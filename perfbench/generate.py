"""Seeded generator for the benchmark's synthetic problem families.

Every family is a length-indexed vector theory (the shape of corpus/vect.p)
plus `n` main axioms.  Main axiom k owns an index constant `nk: nat`, an
index term S = suc^depth(nk), a vector V: vec @ nk and a vcons chain C of
length `depth` on top of V, and states

    ! [V: vec @ nk, X: nat, Y: nat]: (A => ((vapp @ zero @ S @ vnil @ C) = C))

The two sides have types `vec @ (plus @ zero @ S)` and `vec @ S`, so the deep
check emits exactly one index obligation `(plus @ zero @ S) = S` per main
axiom, in axiom order (labels ob1, ob2, ...).  Seeded positions, in shares
fixed per family, decide how each obligation ends: a lemma stating the
equation at a seeded earlier position discharges it after a partial scan of
the earlier axioms; the equation as antecedent A discharges it as a local
assumption after a scan of every earlier axiom; otherwise A = (p @ X), which
matches nothing, and the obligation stays residual after a full scan.  The
deep checker's reflexivity shortcut is not targeted: it only sees equations
whose normalized sides already differ, so no input reaches it.

All expected answers are derived from this construction, never by running
dtf.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRELUDE = (
    ("nat_type", "nat: $tType"),
    ("zero_type", "zero: nat"),
    ("suc_type", "suc: nat > nat"),
    ("plus_type", "plus: nat > nat > nat"),
    ("vec_type", "vec: nat > $tType"),
    ("vnil_type", "vnil: vec @ zero"),
    ("vcons_type", "vcons: !> [N: nat]: (nat > (vec @ N) > (vec @ (suc @ N)))"),
    ("vapp_type",
     "vapp: !> [N: nat, M: nat]: ((vec @ N) > (vec @ M) > (vec @ (plus @ N @ M)))"),
    ("p_type", "p: nat > $o"),
)
PRELUDE_TYPES = 2        # nat, vec
PRELUDE_DEPENDENT = 1    # vec
PRELUDE_CONSTANTS = 7    # zero, suc, plus, vnil, vcons, vapp, p

#: Family shapes: main axioms, index depth, and the shares of main axioms
#: discharged by a lemma and by a local assumption (the rest stay residual).
#: `axioms` stresses the deep check's assumption scan (many axioms, short
#: terms); `terms` stresses the tokenizer and parser (few axioms, long terms);
#: `discharge` is mid-size and mostly residual, to feed obligation export and
#: the prover harness.
FAMILIES = {
    "axioms": {"n": 100, "depth": 4, "lemma": 1 / 3, "local": 1 / 3},
    "terms": {"n": 6, "depth": 64, "lemma": 1 / 3, "local": 1 / 3},
    "discharge": {"n": 60, "depth": 4, "lemma": 0.1, "local": 0.1},
}


# -- terms as (text, size) pairs; size follows dtf.core.term_size ------------


def atom(name: str) -> tuple:
    return name, 1


def app(head: tuple, *args: tuple) -> tuple:
    """Curried application: one App node per argument."""
    text = " @ ".join([head[0]] + [a[0] for a in args])
    return f"({text})", head[1] + sum(a[1] for a in args) + len(args)


def eq(left: tuple, right: tuple) -> tuple:
    return f"({left[0]} = {right[0]})", 1 + left[1] + right[1]


def implies(left: tuple, right: tuple) -> tuple:
    return f"({left[0]} => {right[0]})", 1 + left[1] + right[1]


def quantify(quantifier: str, binders: list, body: tuple) -> tuple:
    """binders: (name, type text, type size); one binder node per variable."""
    head = ", ".join(f"{name}: {ty}" for name, ty, _ in binders)
    size = body[1] + sum(1 + ty_size for _, _, ty_size in binders)
    return f"{quantifier} [{head}]: {body[0]}", size


def sucs(k: int, base: tuple) -> tuple:
    term = base
    for _ in range(k):
        term = app(atom("suc"), term)
    return term


# -- problems ------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """Known answers for one generated problem."""

    path_stem: str
    main_classes: tuple          # class of each main axiom, in order
    residual: tuple              # residual obligation labels, in order
    discharged_by: dict          # discharged label -> lemma label or "local assumption"
    roles: dict                  # role -> count of annotated formulae
    type_symbols: int
    dependent_types: int
    constants: int
    axioms: int
    term_size: int
    conjecture: str

    @property
    def formulae(self) -> int:
        return sum(self.roles.values())

    def check_summary(self) -> str:
        return (f"obligations: {len(self.residual)} residual, "
                f"{len(self.discharged_by)} discharged")

    def parse_line(self, path: str, many: bool) -> str:
        summary = ", ".join(f"{r}: {n}" for r, n in sorted(self.roles.items()))
        prefix = f"{path}: " if many else ""
        return f"{prefix}parsed {self.formulae} formulae ({summary})"

    def stats_block(self, path: str) -> list:
        summary = ", ".join(f"{r}: {n}" for r, n in sorted(self.roles.items()))
        return [
            f"file: {path}",
            f"formulae: {self.formulae} ({summary})",
            f"type symbols: {self.type_symbols} ({self.dependent_types} with term arguments)",
            f"constants: {self.constants}",
            "max type-argument arity: 1",
            f"axiom-like formulae: {self.axioms}",
            f"term size: {self.term_size}",
            f"conjecture: {self.conjecture}",
            "polymorphic: no",
        ]


def _classes(rng: random.Random, n: int, lemma: float, local: float) -> list:
    lemmas, locals_ = int(n * lemma), int(n * local)
    classes = ["lemma"] * lemmas + ["local"] * locals_ + ["residual"] * (n - lemmas - locals_)
    rng.shuffle(classes)
    return classes


def _main_axiom(rng: random.Random, k: int, depth: int, cls: str) -> tuple:
    """Returns (formula, lemma equation) for main axiom k."""
    nk = atom(f"n{k}")
    index = sucs(depth, nk)
    chain = atom("V")
    for i in range(depth):
        chain = app(atom("vcons"), sucs(i, nk), atom(rng.choice("XY")), chain)
    lemma = eq(app(atom("plus"), atom("zero"), index), index)
    premise = lemma if cls == "local" else app(atom("p"), atom("X"))
    body = eq(app(atom("vapp"), atom("zero"), index, atom("vnil"), chain), chain)
    binders = [("V", f"vec @ n{k}", 2), ("X", "nat", 1), ("Y", "nat", 1)]
    return quantify("!", binders, implies(premise, body)), lemma


def generate(seed: int, n: int, depth: int, stem: str,
             lemma: float = 1 / 3, local: float = 1 / 3) -> tuple:
    """Build one problem; returns (text, Expected)."""
    rng = random.Random(f"{stem}:{seed}:{n}:{depth}")
    classes = _classes(rng, n, lemma, local)
    lines = [f"% {stem}: seed {seed}, {n} main axioms, index depth {depth}."]
    lines += [f"thf({label}, type, {decl})." for label, decl in PRELUDE]
    lines += [f"thf(n{k}_type, type, n{k}: nat)." for k in range(1, n + 1)]

    # Lemma for main axiom k goes before main axiom `slot` (0 <= slot < k).
    before: dict = {}
    mains: list = []
    size = 0
    discharged: dict = {}
    residual: list = []
    for k, cls in enumerate(classes, start=1):
        formula, lemma = _main_axiom(rng, k, depth, cls)
        mains.append(f"thf(ax{k}, axiom, {formula[0]}).")
        size += formula[1]
        label = f"ob{k}"
        if cls == "lemma":
            before.setdefault(rng.randrange(k), []).append(
                f"thf(lem{k}, axiom, {lemma[0]}).")
            size += lemma[1]
            discharged[label] = f"lem{k}"
        elif cls == "local":
            discharged[label] = "local assumption"
        else:
            residual.append(label)
    for slot, main in enumerate(mains):
        lines += before.get(slot, [])
        lines.append(main)
    conjecture = quantify("?", [("X", "nat", 1)], app(atom("p"), atom("X")))
    lines.append(f"thf(goal, conjecture, {conjecture[0]}).")
    size += conjecture[1]

    lemmas = sum(1 for c in classes if c == "lemma")
    expected = Expected(
        path_stem=stem,
        main_classes=tuple(classes),
        residual=tuple(residual),
        discharged_by=discharged,
        roles={"axiom": n + lemmas, "conjecture": 1, "type": len(PRELUDE) + n},
        type_symbols=PRELUDE_TYPES,
        dependent_types=PRELUDE_DEPENDENT,
        constants=PRELUDE_CONSTANTS + n,
        axioms=n + lemmas,
        term_size=size,
        conjecture="goal",
    )
    return "\n".join(lines) + "\n", expected


def family(name: str, seed: int, scale: float = 1.0) -> tuple:
    """One problem of a named family; `scale` multiplies the axiom count."""
    shape = FAMILIES[name]
    n = max(3, round(shape["n"] * scale))
    return generate(seed, n, shape["depth"], f"{name}_{seed}_{n}",
                    shape["lemma"], shape["local"])

