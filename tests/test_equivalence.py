"""`<=>` is equality at $o.  Checking `l <=> r` checks l and r once each,
where the expansion `(l => r) & (r => l)` checks each twice, once under an
assumption from the other half.  The obligations therefore differ, but not
what they ask: the two agree on accept or reject, and the conjunction of
their closed residual formulae is the same proposition.

The proposition is compared by truth table: each distinct normalized atom
or index equation is a propositional variable, and an equation at $o is a
biconditional.
"""

import itertools
import random

import pytest

from dtf.core import (
    And,
    BoolType,
    Bottom,
    Eq,
    Implies,
    Not,
    Or,
    Top,
    alpha_key,
    beta_eta_normalize,
)
from dtf.deep import check_problem
from dtf.shallow import check_shallow
from dtf.syntax import Problem, parse_problem

SIGNATURE = """\
thf(nat_type, type, nat: $tType).
thf(zero_type, type, zero: nat).
thf(plus_type, type, plus: nat > nat > nat).
thf(vec_type, type, vec: nat > $tType).
thf(vnil_type, type, vnil: vec @ zero).
thf(n_type, type, n: nat).
thf(m_type, type, m: nat).
thf(v_type, type, v: vec @ n).
thf(w_type, type, w: vec @ m).
thf(p_type, type, p: vec @ (plus @ zero @ zero) > $o).
thf(q_type, type, q: $o).
thf(r_type, type, r: $o).
"""

# Formulae; the first three leave an index-term obligation each (zero or n
# against plus @ zero @ zero, n against m), and (n = m) can discharge one.
OBLIGED = ["(p @ vnil)", "(p @ v)", "(v = w)"]
PLAIN = ["q", "r", "(n = m)", "$true", "$false"]
ILL_TYPED = ["n", "vnil"]  # not formulae: both forms must reject them


def _formula(rng: random.Random, depth: int):
    """A formula tree: an atom's text, ("~", f), or (op, left, right)."""
    if depth == 0 or rng.random() < 0.3:
        pool = OBLIGED if rng.random() < 0.5 else PLAIN
        return rng.choice(ILL_TYPED if rng.random() < 0.03 else pool)
    if rng.random() < 0.15:
        return ("~", _formula(rng, depth - 1))
    return (rng.choice(["&", "|", "=>", "<=>", "<=>"]), _formula(rng, depth - 1), _formula(rng, depth - 1))


def _render(tree, expand: bool) -> str:
    if isinstance(tree, str):
        return tree
    if tree[0] == "~":
        return f"(~ {_render(tree[1], expand)})"
    op, left, right = tree[0], _render(tree[1], expand), _render(tree[2], expand)
    if op == "<=>" and expand:
        return f"(({left} => {right}) & ({right} => {left}))"
    return f"({left} {op} {right})"


def gen_equivalences(seed: int) -> tuple:
    """The texts of one problem of one to three `l <=> r` axioms, with `<=>`
    kept and with every `<=>` written out as its expansion."""
    rng = random.Random(seed)
    trees = [("<=>", _formula(rng, 2), _formula(rng, 2)) for _ in range(rng.randint(1, 3))]
    return tuple(SIGNATURE + "".join(f"thf(a{i}, axiom, {_render(t, expand)}).\n"
                                     for i, t in enumerate(trees))
                 for expand in (False, True))


def _verdict(text: str):
    """None when rejected; else the closed residual formulae and the number
    of obligations discharged by a local assumption."""
    problem = parse_problem(text)
    assert isinstance(problem, Problem), problem
    shallow_ok = not check_shallow(problem)
    report = check_problem(problem)
    assert shallow_ok or not report.ok  # the deep check rejects what the shallow one does
    if not shallow_ok:
        return None
    # The only axioms are the equivalences, which match no obligation; an
    # obligation discharged by a local assumption has its goal as a premise,
    # so leaving it out of the conjunction changes nothing.
    assert all(ob.discharged_by == "local assumption" for ob in report.discharged)
    return [ob.formula for ob in report.obligations], len(report.discharged)


def _atoms(t, atoms: dict) -> None:
    if isinstance(t, (Top, Bottom)):
        return
    if isinstance(t, (And, Or, Implies)) or (isinstance(t, Eq) and isinstance(t.at, BoolType)):
        _atoms(t.left, atoms)
        _atoms(t.right, atoms)
    elif isinstance(t, Not):
        _atoms(t.arg, atoms)
    else:
        atoms.setdefault(alpha_key(beta_eta_normalize(t)), len(atoms))


def _value(t, atoms: dict, row: tuple) -> bool:
    if isinstance(t, Top):
        return True
    if isinstance(t, Bottom):
        return False
    if isinstance(t, Not):
        return not _value(t.arg, atoms, row)
    if isinstance(t, (And, Or, Implies)) or (isinstance(t, Eq) and isinstance(t.at, BoolType)):
        left, right = _value(t.left, atoms, row), _value(t.right, atoms, row)
        if isinstance(t, And):
            return left and right
        if isinstance(t, Or):
            return left or right
        return (not left or right) if isinstance(t, Implies) else left == right
    return row[atoms[alpha_key(beta_eta_normalize(t))]]


def _same_proposition(fs: list, gs: list) -> bool:
    """Whether the conjunctions of fs and of gs have the same truth table."""
    atoms: dict = {}
    for t in fs + gs:
        _atoms(t, atoms)
    assert len(atoms) <= 12
    return all(all(_value(f, atoms, row) for f in fs) == all(_value(g, atoms, row) for g in gs)
               for row in itertools.product((False, True), repeat=len(atoms)))


SEEDS = range(150)


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_asks_what_its_expansion_asks(seed):
    kept, expanded = (_verdict(text) for text in gen_equivalences(seed))
    assert (kept is None) == (expanded is None)
    if kept is not None:
        assert _same_proposition(kept[0], expanded[0])


def test_the_generated_equivalences_reach_every_outcome():
    # The property above is only as good as its inputs: some must be
    # rejected, some must leave residual obligations, in different numbers
    # for the two forms, and some must discharge one by a local assumption.
    outcomes: set = set()
    for seed in SEEDS:
        kept, expanded = (_verdict(text) for text in gen_equivalences(seed))
        if kept is None:
            outcomes.add("rejected")
            continue
        outcomes |= {"residual"} if kept[0] else set()
        outcomes |= {"fewer residual"} if len(kept[0]) < len(expanded[0]) else set()
        outcomes |= {"local assumption"} if kept[1] or expanded[1] else set()
    assert outcomes >= {"rejected", "residual", "fewer residual", "local assumption"}


def test_the_worked_example_leaves_two_obligations_where_the_expansion_left_four():
    kept = SIGNATURE + "thf(a1, axiom, (p @ vnil) <=> q).\nthf(a2, axiom, q <=> (p @ vnil)).\n"
    expanded = SIGNATURE + ("thf(a1, axiom, ((p @ vnil) => q) & (q => (p @ vnil))).\n"
                            "thf(a2, axiom, (q => (p @ vnil)) & ((p @ vnil) => q)).\n")
    kept_obs, _ = _verdict(kept)
    expanded_obs, _ = _verdict(expanded)
    goal = parse_problem(SIGNATURE + "thf(g, axiom, zero = (plus @ zero @ zero)).\n").theory.decls[-1].formula
    assert [alpha_key(f) for f in kept_obs] == [alpha_key(goal)] * 2
    assert len(expanded_obs) == 4
    assert _same_proposition(kept_obs, expanded_obs)
