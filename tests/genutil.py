"""Seeded random generators and shape checks for property tests.

gen_problem builds small theories that are well typed by construction (all
equations have literally identical sides, all applications match declared
types), so every generated problem must pass both checkers with zero
residual obligations.  gen_dependent_type builds arbitrary dependent types
for comparing the two independent type-flattening implementations.
forall_guard_violations scans erased formulae for universals over base-typed
variables that lack a relatedness premise.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from dtf.core import (
    And,
    App,
    Axiom,
    BaseApp,
    BoolType,
    Choice,
    Const,
    ConstDecl,
    Eq,
    Exists,
    Forall,
    Implies,
    Lam,
    Name,
    NameKind,
    Not,
    Or,
    Pi,
    Theory,
    TypeDecl,
    Var,
    free_vars,
)
from dtf.syntax import Problem


def load_generator():
    """The benchmark's problem generator, `perfbench/generate.py`."""
    if "perfbench_generate" in sys.modules:
        return sys.modules["perfbench_generate"]
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def gen_problem(seed: int, max_decls: int = 5) -> Problem:
    rng = random.Random(seed)
    decls: list = []
    bases: list = []      # arity-0 type Names
    ground: dict = {}     # base text -> list of Const terms
    families: list = []   # (Name, telescope base Names)
    arrows: list = []     # (Const, dom base, cod base)
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def add_base() -> None:
        name = Name(fresh("b"), NameKind.TYPE)
        decls.append(TypeDecl(name, (), f"{name.text}_type"))
        const = Name(fresh("k"), NameKind.CONST)
        decls.append(ConstDecl(const, BaseApp(name), f"{const.text}_type"))
        bases.append(name)
        ground[name.text] = [Const(const)]

    add_base()
    limit = rng.randint(3, max_decls)
    while len(decls) < limit:
        room = limit - len(decls)
        moves = ["axiom", "arrow"]
        if room >= 2:
            moves += ["base", "family"]
        move = rng.choice(moves)
        if move == "base":
            add_base()
        elif move == "family":
            width = rng.randint(1, 2)
            telescope = tuple(
                (Name(f"X{i + 1}", NameKind.VAR), BaseApp(rng.choice(bases)))
                for i in range(width))
            name = Name(fresh("d"), NameKind.TYPE)
            decls.append(TypeDecl(name, telescope, f"{name.text}_type"))
            families.append((name, telescope))
            if len(decls) < limit:
                args = tuple(rng.choice(ground[ty.head.text])
                             for _, ty in telescope)
                const = Name(fresh("v"), NameKind.CONST)
                decls.append(ConstDecl(const, BaseApp(name, args),
                                       f"{const.text}_type"))
        elif move == "arrow":
            dom = rng.choice(bases)
            cod = rng.choice(bases)
            const = Name(fresh("g"), NameKind.CONST)
            ty = Pi(Name("X1", NameKind.VAR), BaseApp(dom), BaseApp(cod))
            decls.append(ConstDecl(const, ty, f"{const.text}_type"))
            arrows.append((Const(const), dom, cod))
        else:
            decls.append(_gen_axiom(rng, fresh("ax"), bases, ground, arrows))
    return Problem(theory=Theory(tuple(decls)))


def _gen_axiom(rng: random.Random, label: str, bases, ground, arrows) -> Axiom:
    base = rng.choice(bases)
    x = Name("Xv", NameKind.VAR)
    form = rng.randint(0, 3 if arrows else 2)
    if form == 0:
        body = Forall(x, BaseApp(base), Eq(Var(x), Var(x), BaseApp(base)))
    elif form == 1:
        c = rng.choice(ground[base.text])
        body = Eq(c, c, BaseApp(base))
    elif form == 2:
        body = Exists(x, BaseApp(base), Eq(Var(x), Var(x), BaseApp(base)))
    else:
        fn, dom, cod = rng.choice(arrows)
        body = Forall(x, BaseApp(dom),
                      Eq(App(fn, Var(x)), App(fn, Var(x)), BaseApp(cod)))
    return Axiom(label, body)


def gen_dependent_type(seed: int):
    rng = random.Random(seed)

    def term(depth: int):
        roll = rng.random()
        if depth <= 0 or roll < 0.5:
            if roll < 0.25:
                return Var(Name(f"X{rng.randint(1, 3)}", NameKind.VAR))
            return Const(Name(f"c{rng.randint(1, 3)}", NameKind.CONST))
        return App(term(depth - 1), term(depth - 1))

    def ty(depth: int):
        roll = rng.random()
        if depth <= 0:
            roll *= 0.6
        if roll < 0.45:
            args = tuple(term(1) for _ in range(rng.randint(0, 2)))
            return BaseApp(Name(f"t{rng.randint(1, 3)}", NameKind.TYPE), args)
        if roll < 0.6:
            return BoolType()
        return Pi(Name(f"X{rng.randint(1, 3)}", NameKind.VAR),
                  ty(depth - 1), ty(depth - 1))

    return ty(rng.randint(1, 4))


def forall_guard_violations(term, per_heads: set) -> list:
    """Find universals over base-typed variables with no relatedness guard.

    Scans each maximal block of consecutive universal quantifiers: every
    binder whose domain is a base type must occur free in at least one
    premise (a left operand of the implication chain heading the block body)
    whose head constant is one of per_heads.  Returns the unguarded binder
    names; an erased formula must yield none.
    """
    violations: list = []

    def guards(var_text: str, premise) -> bool:
        head = premise
        while isinstance(head, App):
            head = head.fun
        return (isinstance(head, Const) and head.name.text in per_heads
                and var_text in free_vars(premise))

    def walk(t) -> None:
        if isinstance(t, Forall):
            block: list = []
            body = t
            while isinstance(body, Forall):
                block.append((body.binder.text, body.domain))
                body = body.body
            premises: list = []
            while isinstance(body, Implies):
                premises.append(body.left)
                body = body.right
            for var_text, domain in block:
                if isinstance(domain, BaseApp):
                    if not any(guards(var_text, p) for p in premises):
                        violations.append(var_text)
            for p in premises:
                walk(p)
            walk(body)
        elif isinstance(t, (Implies, And, Or)):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, Not):
            walk(t.arg)
        elif isinstance(t, Eq):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, App):
            walk(t.fun)
            walk(t.arg)
        elif isinstance(t, (Exists, Choice, Lam)):
            walk(t.body)

    walk(term)
    return violations


def gen_formula_problem(seed: int) -> Problem:
    """A generated theory plus one quantified conjecture (for round trips)."""
    problem = gen_problem(seed)
    rng = random.Random(seed + 10_000)
    bases = [d.name for d in problem.theory.decls
             if isinstance(d, TypeDecl) and not d.telescope]
    base = rng.choice(bases)
    x = Name("Zz", NameKind.VAR)
    conjecture = Forall(x, BaseApp(base), Eq(Var(x), Var(x), BaseApp(base)))
    return Problem(
        roles=problem.roles,
        theory=problem.theory,
        conjecture=conjecture,
        conjecture_name="generated_goal",
    )
