"""Acceptance suite: the worked examples reproduced exactly, plus the
property runs, each within its stated wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools
import random
import time

from nomc import (
    Abstraction,
    App,
    Atom,
    EqualityGoal,
    IDENTITY_SUBST,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    UnificationState,
    Var,
    apply_subst,
    c_class_enumerate,
    check_solution,
    coherence_check,
    derive_alpha_c,
    format_context,
    lifting_backward_construct,
    lifting_forward_check,
    narrow_search,
    narrowing_to_rewriting,
    normal_form_equal_check,
    normalize,
    one_step_rewrites,
    parse_context,
    parse_substitution,
    parse_term,
    permute_term,
    solve,
    term_vars,
)
from nomc.alpha import alpha_key
from nomc.cli import run_command
from nomc.narrowing import NotFound
from conftest import (
    equivalent_variant,
    random_context,
    random_prenex_formula,
    random_prenex_pattern,
    random_substitution,
    random_term,
)

a, b, c, e = Atom("a"), Atom("b"), Atom("c"), Atom("e")
X, Z = Var("X"), Var("Z")


def report(number: int, title: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS  criterion {number:2d} ({title}) in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_binder_judgement(capsys):
    started = time.perf_counter()
    judgement = "lam([a]app(a, X)) =ac lam([b]app(b, (a c).X))"
    assert run_command(["check", "--context", "a#X, b#X, c#X", judgement]) == 0
    assert capsys.readouterr().out.strip() == "derivable"
    assert run_command(["check", "--context", "a#X, b#X", judgement]) == 0
    assert capsys.readouterr().out.strip() == "not derivable"
    with capsys.disabled():
        report(1, "binder judgement flips with context", started, 1.0)


def test_criterion_02_plain_unifier(ex22_system):
    started = time.perf_counter()
    sig = ex22_system.signature
    sols = solve(
        frozenset(),
        parse_term("h(fC([b][a]X, X))", sig),
        frozenset(),
        parse_term("h(Y)", sig),
        sig=sig,
    )
    assert len(sols) == 1
    (sol,) = sols
    assert sol.context == frozenset()
    assert sol.residual_fixpoints == ()
    assert not sol.protected_fixpoint_discharged
    (var,) = sol.subst.domain
    assert sol.subst.get(var) == parse_term("fC([b][a]X, X)", sig)
    report(2, "single unifier, no residual", started, 1.0)


def test_criterion_03_fixpoint_solutions(ex22_system):
    started = time.perf_counter()
    sig = Signature(dict(ex22_system.signature.entries(), g=(1, False)))
    sols = solve(
        frozenset(),
        parse_term("fC([b][a]X, X)", sig),
        frozenset(),
        parse_term("fC([a][b]Z, Z)", sig),
        sig=sig,
    )
    assert len(sols) == 1
    (sol,) = sols
    assert sol.subst == Substitution({Z: Suspension(Permutation(), X)})
    ((perm, var),) = sol.residual_fixpoints
    assert var == X and perm.moved_atoms() == {a, b}

    fixpoint = UnificationState(
        frozenset(),
        IDENTITY_SUBST,
        (EqualityGoal(Suspension(perm, X), Suspension(Permutation(), X)),),
    )
    rho1 = (parse_context("a#X, b#X"), Substitution({X: parse_term("g(e)", sig)}))
    rho2 = (frozenset(), Substitution({X: parse_term("oplus(a, b)", sig)}))
    rho3 = (frozenset(), Substitution({X: parse_term("oplus(oplus(a, b), oplus(a, b))", sig)}))
    assert check_solution(rho1, fixpoint, sig)
    assert check_solution(rho2, fixpoint, sig)
    assert check_solution(rho3, fixpoint, sig)
    assert not check_solution((frozenset(), Substitution({X: a})), fixpoint, sig)
    report(3, "fixed-point residual and its solutions", started, 1.0)


def test_criterion_04_one_step_rewrites(prenex_system):
    started = time.perf_counter()
    sig = prenex_system.signature
    ctx = parse_context("a#P1")
    term = parse_term("or(S1, or(exists([a]Q1), P1))", sig)
    steps = one_step_rewrites(ctx, term, prenex_system)
    results = [s.result for s in steps]
    assert parse_term("or(S1, exists([a]or(P1, Q1)))", sig) in results
    contributed = [s for s in steps if s.rule == "or_exists"]
    assert len(contributed) >= 4
    distinct = {str(s.result) for s in contributed}
    assert len(distinct) >= 4
    report(4, "one-step rewrite set with C-distinct results", started, 1.0)


def test_criterion_05_narrowing_tree(ex22_system):
    started = time.perf_counter()
    sig = ex22_system.signature
    tree = narrow_search(
        frozenset(),
        parse_term("h(fC([b][a]X, X))", sig),
        ex22_system,
        depth=2,
        fixpoint_depth=2,
        max_unifiers=40,
    )
    level1 = [s for s in tree.edges if s.parent is tree.root]
    first = level1[0]
    assert first.rule == "collapse"
    assert first.child.term == parse_term("fC([b][a]X, X)", sig)
    (theta0_var,) = first.step_subst.domain
    assert first.step_subst.get(theta0_var) == parse_term("fC([b][a]X, X)", sig)

    level2 = [s for s in tree.edges if s.parent is first.child and s.rule == "swap_abs"]
    assert level2 and all(s.used_fixpoint_enumeration for s in level2)
    theta1 = [
        s
        for s in level2
        if s.step_subst.get(X) == Suspension(Permutation(), X)
        and format_context(s.child.context) == "a#X, b#X"
    ]
    assert theta1, "freshness branch [Z -> X] with a#X, b#X"
    z1 = [v for v in theta1[0].step_subst.domain if v != X]
    assert [theta1[0].step_subst.get(v) for v in z1] == [Suspension(Permutation(), X)]

    theta2 = [s for s in level2 if s.step_subst.get(X) == parse_term("oplus(a, b)", sig)]
    assert theta2 and theta2[0].child.context == frozenset()
    theta3 = [
        s
        for s in level2
        if s.step_subst.get(X) == parse_term("oplus(oplus(a, b), oplus(a, b))", sig)
    ]
    assert theta3 and theta3[0].child.context == frozenset()

    record = tree.truncation
    assert (record.depth, record.fixpoint_depth, record.max_unifiers) == (2, 2, 40)
    report(5, "branching narrowing tree with flagged fixpoints", started, 5.0)


def test_criterion_06_lifting_forward(prenex_system):
    started = time.perf_counter()
    sig = prenex_system.signature
    s0 = parse_term("and(P1, not(forall([b]Q1)))", sig)
    tree = narrow_search(frozenset(), s0, prenex_system, 2, 0, 50)
    (first,) = [e for e in tree.edges if e.parent is tree.root and e.rule == "not_forall"]
    assert format_context(first.child.context) == "a#Q1"
    (second,) = [
        e
        for e in tree.edges
        if e.parent is first.child
        and e.rule == "and_exists"
        and format_context(e.child.context) == "a#P1, a#Q1"
    ]
    derivation = [first, second]

    rho = parse_substitution("Q1 -> forall([a]R), P1 -> R", sig)
    delta = parse_context("a#R")
    assert lifting_forward_check(derivation, rho, delta, sig) is True

    # rho_1 = theta_1 rho maps the renamed rule variables as listed
    rho_1 = second.step_subst.compose(rho)
    p_rule = [v for v in second.step_subst.domain if v.name.startswith("P")]
    q_rule = [v for v in second.step_subst.domain if v.name.startswith("Q") and v != Var("Q1")]
    assert [rho_1.get(v) for v in p_rule] == [parse_term("R", sig)]
    swapped = permute_term(Permutation(((a, b),)), parse_term("forall([a]R)", sig))
    assert [rho_1.get(v) for v in q_rule] == [App("not", (swapped,))]
    assert rho_1.get(Var("Q1")) == parse_term("forall([a]R)", sig)
    assert rho_1.get(Var("P1")) == parse_term("R", sig)
    rho_0 = first.step_subst.compose(rho_1)
    assert rho_0.get(Var("P1")) == parse_term("R", sig)

    bad = parse_substitution("Q1 -> a, P1 -> a", sig)
    from nomc import PRECONDITION_FAIL

    assert lifting_forward_check(derivation, bad, delta, sig) is PRECONDITION_FAIL
    report(6, "lifting a narrowing derivation to rewriting", started, 1.0)


def test_criterion_07_narrowing_soundness(prenex_system, ex22_system):
    started = time.perf_counter()
    rng = random.Random(71)
    checked = 0
    quotas = (
        (prenex_system, lambda: random_prenex_pattern(rng, 3), 250),
        (ex22_system, lambda: random_term(rng, ex22_system.signature, 2), 500),
    )
    for system, make_root, quota in quotas:
        sig = system.signature
        while checked < quota:
            tree = narrow_search(frozenset(), make_root(), system, 1, 1, 8)
            for edge in tree.edges:
                assert narrowing_to_rewriting(edge, edge.parent, sig=sig)
                checked += 1
    assert checked >= 500
    report(7, f"narrowing-to-rewriting on {checked} steps", started, 60.0)


def test_criterion_08_substitution_compatibility():
    started = time.perf_counter()
    rng = random.Random(81)
    sig = Signature({"f": (2, False), "g": (1, False), "c": (2, True)})
    from nomc import INCONSISTENT, apply_subst, freshness_context_nf

    checked = 0
    while checked < 500:
        ctx = random_context(rng)
        s = random_term(rng, sig, 3)
        t = equivalent_variant(rng, ctx, s, sig)
        assert derive_alpha_c(ctx, s, t, sig)
        theta = random_substitution(rng, sig)
        reduced = freshness_context_nf(ctx, theta)
        if reduced is INCONSISTENT:
            continue
        checked += 1
        assert derive_alpha_c(reduced, apply_subst(theta, s), apply_subst(theta, t), sig)
    report(8, "derivability compatible with substitutions (500 runs)", started, 60.0)


def test_criterion_09_normal_forms_and_coherence(prenex_system):
    started = time.perf_counter()
    rng = random.Random(91)
    sig = prenex_system.signature
    for _ in range(200):
        formula = random_prenex_formula(rng, 4)
        assert normal_form_equal_check(frozenset(), formula, prenex_system, 10)
        partner = equivalent_variant(rng, frozenset(), formula, sig)
        (verdict,) = coherence_check(
            prenex_system, [(frozenset(), formula, partner)], 10
        )
        assert verdict.status == "WITNESSED", (str(formula), str(partner))
    report(9, "normal-form agreement and coherence (200 formulas)", started, 120.0)


def test_criterion_10_oracle_equivalence():
    started = time.perf_counter()
    sig = Signature({"oplus": (2, True)})
    atoms = (a, b, c)
    levels = {1: list(atoms)}
    for height in (2, 3):
        layer: list = []
        below = [t for h in range(1, height) for t in levels[h]]
        for atom in atoms:
            for t in levels[height - 1]:
                layer.append(Abstraction(atom, t))
        for left in levels[height - 1]:
            for right in below:
                layer.append(App("oplus", (left, right)))
        for left in below:
            if left not in levels[height - 1]:
                for right in levels[height - 1]:
                    layer.append(App("oplus", (left, right)))
        levels[height] = layer
    universe = [t for h in levels for t in levels[h]]
    keys = {t: alpha_key(t) for t in universe}
    classes = {t: frozenset(alpha_key(m) for m in c_class_enumerate(t, sig)) for t in universe}
    disagreements = 0
    for s, t in itertools.product(universe, universe):
        if derive_alpha_c(frozenset(), s, t, sig) != (keys[t] in classes[s]):
            disagreements += 1
    assert disagreements == 0
    report(
        10,
        f"oracle agreement on {len(universe) ** 2} ground pairs",
        started,
        60.0,
    )


def test_criterion_11_lifting_round_trip(prenex_system):
    started = time.perf_counter()
    rng = random.Random(111)
    sig = prenex_system.signature
    done = 0
    while done < 100:
        pattern = random_prenex_pattern(rng, 3)
        mapping = {}
        for var in sorted(term_vars(pattern), key=lambda v: v.name):
            image, _ = normalize(
                frozenset(), random_prenex_formula(rng, 2), prenex_system, 20
            )
            mapping[var] = image
        rho0 = Substitution(mapping)
        start_term = apply_subst(rho0, pattern)
        _, trace = normalize(frozenset(), start_term, prenex_system, 30)
        out = lifting_backward_construct(
            frozenset(), pattern, rho0, frozenset(), trace, 1, prenex_system
        )
        assert not isinstance(out, NotFound), (str(pattern), str(rho0))
        steps, residue = out
        assert lifting_forward_check(steps, residue, frozenset(), sig) is True
        assert len(steps) == len(trace)
        done += 1
    report(11, "lifting round trip on 100 instances", started, 120.0)
