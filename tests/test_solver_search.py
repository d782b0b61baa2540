"""The solver's search against the reference loop that builds every state.

`reference_search` (conftest) runs `simplify_step` on a state per step, and
`reference_leaf_solution` turns each leaf state into its solution;
`_leaf_solutions` advances each branch in place and hands back solutions.
Both must give the same solutions in the same order and visit the same
number of states, so that `max_states` fires at the same step.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    EqualityGoal,
    IDENTITY_SUBST,
    SearchSpaceExceeded,
    StepLimitExceeded,
    UnificationState,
    instance_of,
    normalize,
    parse_context,
    parse_term,
    solve,
    term_vars,
)
from nomc import unify
from nomc.cli import load_system_file
from nomc.unify import _leaf_solutions
from conftest import (
    equivalent_variant,
    random_context,
    random_prenex_formula,
    random_prenex_pattern,
    reference_leaf_solution,
    reference_search,
)
from test_solver_golden import MAX_STATES, _perturb, _problem, _signatures

SEEDS = range(500)

# A commutative split where only one pairing leads to a freshness step on a
# suspension, so the two branches' leaves carry different contexts.
SPLIT_THEN_FRESH = (
    ("fC([a]X, Z)", "fC([b]Y, W)", ""),
    ("fC(W, [a]X)", "fC([b]Y, Z)", ""),
    ("fC(h([a]X), Z)", "fC(h([b]Y), W)", "c#Y"),
    ("fC(fC([a]X, Z), c)", "fC(c, fC(W, [b]Y))", ""),
    ("oplus(fC([a]X, b), Z)", "oplus(W, fC(b, [b]Y))", "a#W"),
)


def _search(initial, protected, sig, max_states):
    return _leaf_solutions(initial.context, initial.goals, protected, sig, max_states)


def _reference_leaf_solutions(context, goals, protected, sig, max_states):
    """`_leaf_solutions` by the reference search and leaf conversion."""
    leaves, _ = reference_search(UnificationState(context, IDENTITY_SUBST, goals), protected, sig, max_states)
    return [reference_leaf_solution(leaf, protected) for leaf in leaves]


def _check_search(initial, protected, sig):
    """The new search against the reference at the reference's state count
    N; returns the reference's leaf states and N."""
    try:
        leaves, visited = reference_search(initial, protected, sig, MAX_STATES)
    except SearchSpaceExceeded as exc:
        with pytest.raises(SearchSpaceExceeded, match=str(exc)):
            _search(initial, protected, sig, MAX_STATES)
        return None
    assert _search(initial, protected, sig, visited) == [reference_leaf_solution(leaf, protected) for leaf in leaves]
    with pytest.raises(SearchSpaceExceeded):
        _search(initial, protected, sig, visited - 1)
    return leaves, visited


def _expected_solutions(leaves, protected):
    solutions = []
    for leaf in leaves:
        solution = reference_leaf_solution(leaf, protected)
        if solution not in solutions:
            solutions.append(solution)
    return tuple(solutions)


def _verdicts(solutions, variables, sig):
    out = []
    for general in solutions[:3]:
        for specific in solutions[:3]:
            try:
                verdict = instance_of(
                    (general.context, general.subst),
                    (specific.context, specific.subst),
                    variables,
                    sig=sig,
                    max_states=MAX_STATES,
                )
            except SearchSpaceExceeded as exc:
                verdict = f"exceeded: {exc}"
            out.append(verdict)
    return out


def _reference_verdicts(monkeypatch, solutions, variables, sig):
    with monkeypatch.context() as patched:
        patched.setattr(unify, "_leaf_solutions", _reference_leaf_solutions)
        return _verdicts(solutions, variables, sig)


def test_search_matches_reference_on_golden_problems(monkeypatch):
    signatures = _signatures()
    compared = 0
    for seed in SEEDS:
        sig, delta, s, nabla, l, protected = _problem(seed, signatures)
        initial = UnificationState(nabla | delta, IDENTITY_SUBST, (EqualityGoal(l, s),))
        checked = _check_search(initial, protected, sig)
        if checked is None:
            continue
        leaves, visited = checked
        expected = _expected_solutions(leaves, protected)
        assert solve(delta, s, nabla, l, protected, sig=sig, max_states=visited) == expected, seed
        with pytest.raises(SearchSpaceExceeded):
            solve(delta, s, nabla, l, protected, sig=sig, max_states=visited - 1)
        variables = term_vars(l) | term_vars(s)
        verdicts = _verdicts(expected, variables, sig)
        assert verdicts == _reference_verdicts(monkeypatch, expected, variables, sig), seed
        compared += 1
    assert compared > len(SEEDS) * 9 // 10


@pytest.mark.parametrize("lhs, rhs, ctx", SPLIT_THEN_FRESH)
def test_freshness_after_split_stays_in_its_branch(ex22_system, lhs, rhs, ctx):
    sig = ex22_system.signature
    initial = UnificationState(
        parse_context(ctx), IDENTITY_SUBST, (EqualityGoal(parse_term(lhs, sig), parse_term(rhs, sig)),)
    )
    leaves, _ = _check_search(initial, frozenset(), sig)
    assert len({leaf.context for leaf in leaves}) > 1


def test_nested_commutative_splits_count_47_states(ex22_system):
    sig = ex22_system.signature
    lhs, rhs = (parse_term(t, sig) for t in ("fC(fC(X1, X2), fC(X3, X4))", "fC(fC(Y1, Y2), fC(Y3, Y4))"))
    initial = UnificationState(frozenset(), IDENTITY_SUBST, (EqualityGoal(lhs, rhs),))
    leaves, visited = _check_search(initial, frozenset(), sig)
    assert visited == 47 and len(leaves) == 8


def _capped(run, max_states):
    """run(max_states)'s answer, or the exception class that ended it."""
    try:
        return run(max_states)
    except (SearchSpaceExceeded, StepLimitExceeded) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_a_state_cap_only_cuts_off(seed, cap):
    # Under any cap, normalize and solve either raise SearchSpaceExceeded or
    # give exactly the uncapped answer: a cap never changes what is found.
    system = load_system_file("prenex").system
    sig = system.signature
    rng = random.Random(seed)
    formula = random_prenex_formula(rng, 4) if seed % 2 else random_prenex_pattern(rng, 4)
    delta, term = random_context(rng), random_prenex_pattern(rng, 4)
    # a commutative variant of the term with some subterms generalised, so
    # that most problems branch and many are solvable
    nabla, pattern = random_context(rng), _perturb(rng, sig, equivalent_variant(rng, delta, term, sig), 0.3)
    runs = (
        lambda max_states: normalize(delta, formula, system, 20, max_states=max_states),
        lambda max_states: solve(delta, term, nabla, pattern, sig=sig, max_states=max_states),
    )
    for run in runs:
        uncapped = _capped(run, unify.DEFAULT_MAX_STATES)
        assert uncapped is not SearchSpaceExceeded
        assert _capped(run, cap) in (uncapped, SearchSpaceExceeded)
