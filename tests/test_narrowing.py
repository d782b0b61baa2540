"""Narrowing trees, their bounds, and the lifting correspondence."""

import collections
import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    CSolution,
    EqualityGoal,
    FreshnessConstraint,
    IDENTITY,
    IDENTITY_SUBST,
    NarrowingNode,
    NarrowingStep,
    NarrowingTree,
    NotFound,
    PRECONDITION_FAIL,
    Position,
    RewriteRule,
    RewriteStep,
    RewriteSystem,
    SearchSpaceExceeded,
    Signature,
    Substitution,
    Suspension,
    UnificationState,
    Var,
    check_solution,
    derive_alpha_c,
    format_context,
    lifting_backward_construct,
    lifting_forward_check,
    match,
    narrow_search,
    narrowing_to_rewriting,
    normalize,
    one_step_rewrites,
    parse_context,
    parse_substitution,
    parse_system,
    parse_term,
    apply_subst,
    commutative_variants,
    primary_rewrite_steps,
    r_over_e_one_step,
    replace_at,
    solve,
    subterm_at,
    term_vars,
    TruncationRecord,
    verify_rewrite_step,
)
from nomc import narrowing, rewriting, unify
from nomc.alpha import satisfies_with
from nomc.terms import NameSupply, subterms_with_positions
from nomc.unify import DEFAULT_MAX_STATES
from conftest import (
    ATOMS,
    VARS,
    random_context,
    random_ground_term,
    random_permutation,
    random_prenex_formula,
    random_prenex_pattern,
    random_term,
    reference_expanded_solutions,
    reference_narrow_search,
    reference_redexes,
    reference_skeleton_fits,
    rename_rule_with_map,
    replace,
)

a, b = Atom("a"), Atom("b")
X, Z = Var("X"), Var("Z")


def _children(tree, node):
    return [e for e in tree.edges if e.parent is node]


class TestOneStepNarrowing:
    def test_collapsing_rule_first(self, ex22_system):
        sig = ex22_system.signature
        steps = narrow_search(frozenset(), parse_term("h(fC([b][a]X, X))", sig), ex22_system, 1, 0, 50).edges
        first = steps[0]
        assert first.rule == "collapse"
        assert first.child.term == parse_term("fC([b][a]X, X)", sig)
        (bound_var,) = first.step_subst.domain
        assert first.step_subst.get(bound_var) == parse_term("fC([b][a]X, X)", sig)

    def test_fixpoint_branches_flagged(self, ex22_system):
        sig = ex22_system.signature
        steps = narrow_search(frozenset(), parse_term("fC([b][a]X, X)", sig), ex22_system, 1, 2, 50).edges
        flagged = [s for s in steps if s.used_fixpoint_enumeration]
        assert flagged
        images = [s.step_subst.get(X) for s in flagged]
        assert parse_term("oplus(a, b)", sig) in images
        assert parse_term("oplus(oplus(a, b), oplus(a, b))", sig) in images
        assert any(format_context(s.child.context) == "a#X, b#X" for s in flagged)

    def test_clash_shifted_rules_renamed_at_each_site(self, prenex_system):
        # The binder atom a of and_forall occurs free in both redexes, so
        # both steps need the same clash shift, each on its own renaming.
        sig = prenex_system.signature
        term = parse_term("or(and(a, forall([a]X)), and(a, forall([a]Y)))", sig)
        tree = narrow_search(frozenset(), term, prenex_system, 1, 1, 50)
        first, second = tree.edges
        assert (str(first.position), str(second.position)) == ("0", "1")
        assert a not in first.rule_instance.atoms() and a not in second.rule_instance.atoms()
        assert not first.rule_instance.variables() & second.rule_instance.variables()
        assert narrowing_to_rewriting(first, tree.root, sig=sig)
        assert narrowing_to_rewriting(second, tree.root, sig=sig)

    def test_step_prints_rule_position_substitution_and_child(self, prenex_system):
        term = parse_term("not(exists([a]P))", prenex_system.signature)
        (edge,) = narrow_search(frozenset(), term, prenex_system, 1, 0, 10).edges
        assert str(edge) == "not_exists @ root with [Q0 -> P] ~> {} |- forall([a]not(P))"

    def test_no_rule_applies(self, ex22_system):
        assert narrow_search(frozenset(), a, ex22_system, 1, 1, 10).edges == ()

    def test_variable_positions_skipped(self, ex22_system):
        sig = ex22_system.signature
        steps = narrow_search(frozenset(), parse_term("h(Y)", sig), ex22_system, 1, 0, 50).edges
        # the collapse rule narrows at the root; nothing acts at the bare Y
        assert all(s.position.path == () for s in steps)


class TestNarrowSearch:
    def test_depth_zero_root_only(self, ex22_system):
        tree = narrow_search(frozenset(), a, ex22_system, 0, 0, 10)
        assert tree.edges == () and tree.nodes() == (tree.root,)

    def test_branching_tree_shape(self, ex22_system):
        sig = ex22_system.signature
        tree = narrow_search(
            frozenset(), parse_term("h(fC([b][a]X, X))", sig), ex22_system, 2, 2, 40
        )
        level1 = _children(tree, tree.root)
        assert level1[0].rule == "collapse"
        assert level1[0].child.term == parse_term("fC([b][a]X, X)", sig)
        level2 = _children(tree, level1[0].child)
        subs = [e.step_subst for e in level2]
        z_vars = [v for s in subs for v in s.domain if v.name.startswith("Z")]
        assert z_vars, "renamed rule variable expected in level-2 unifiers"
        images = [s.get(X) for s in subs]
        assert parse_term("oplus(a, b)", sig) in images
        assert parse_term("oplus(oplus(a, b), oplus(a, b))", sig) in images
        assert any(format_context(e.child.context) == "a#X, b#X" for e in level2)
        assert all(e.used_fixpoint_enumeration for e in level2 if e.rule == "swap_abs")
        assert tree.truncation.depth == 2
        assert tree.truncation.fixpoint_depth == 2

    def test_truncation_counted(self, ex22_system):
        sig = ex22_system.signature
        tree = narrow_search(
            frozenset(), parse_term("h(fC([b][a]X, X))", sig), ex22_system, 1, 2, 2
        )
        assert tree.truncation.nodes_truncated >= 1
        assert len(_children(tree, tree.root)) == 2

    def test_monotone_in_bounds(self, ex22_system):
        sig = ex22_system.signature
        term = parse_term("h(fC([b][a]X, X))", sig)

        def fingerprint(tree):
            return {
                (e.child.depth, str(e.child.term), format_context(e.child.context))
                for e in tree.edges
            }

        small = fingerprint(narrow_search(frozenset(), term, ex22_system, 1, 1, 5))
        deeper = fingerprint(narrow_search(frozenset(), term, ex22_system, 2, 1, 5))
        wider = fingerprint(narrow_search(frozenset(), term, ex22_system, 1, 1, 9))
        richer = fingerprint(narrow_search(frozenset(), term, ex22_system, 1, 2, 5))
        assert small <= deeper
        assert small <= wider
        assert small <= richer

    def test_two_quantifier_path_reproduced(self, prenex_system):
        sig = prenex_system.signature
        s0 = parse_term("and(P1, not(forall([b]Q1)))", sig)
        tree = narrow_search(frozenset(), s0, prenex_system, 2, 0, 50)
        (first,) = [e for e in _children(tree, tree.root) if e.rule == "not_forall"]
        assert format_context(first.child.context) == "a#Q1"
        q_new = [v for v in first.step_subst.domain if v.name.startswith("Q")]
        assert len(q_new) == 1
        assert first.step_subst.get(q_new[0]) == parse_term("(a b).Q1", sig)
        matches = [
            e
            for e in _children(tree, first.child)
            if e.rule == "and_exists"
            and format_context(e.child.context) == "a#P1, a#Q1"
        ]
        assert len(matches) == 1
        want = parse_term("exists([a]and(P1, not((a b).Q1)))", sig)
        assert matches[0].child.term == want


class TestNarrowingToRewriting:
    def test_example_trees(self, ex22_system, prenex_system):
        sig22 = ex22_system.signature
        tree = narrow_search(
            frozenset(), parse_term("h(fC([b][a]X, X))", sig22), ex22_system, 2, 1, 20
        )
        for edge in tree.edges:
            assert narrowing_to_rewriting(edge, edge.parent, sig=sig22)
        psig = prenex_system.signature
        tree2 = narrow_search(
            frozenset(),
            parse_term("and(P1, not(forall([b]Q1)))", psig),
            prenex_system,
            2,
            0,
            30,
        )
        for edge in tree2.edges:
            assert narrowing_to_rewriting(edge, edge.parent, sig=psig)

    def test_random_prenex_steps(self, prenex_system):
        rng = random.Random(31)
        sig = prenex_system.signature
        seen = 0
        while seen < 120:
            pattern = random_prenex_pattern(rng, 3)
            tree = narrow_search(frozenset(), pattern, prenex_system, 1, 1, 10)
            for edge in tree.edges:
                assert narrowing_to_rewriting(edge, edge.parent, sig=sig)
                seen += 1
        assert seen >= 120


class TestStepSolutions:
    """Narrowing builds children from solver and fixed-point answers without
    re-checking them; every edge must still solve its step's problem."""

    @staticmethod
    def _ex22_terms(rng, sig):
        for _ in range(20):
            x, y = rng.sample(ATOMS, 2)
            body = Suspension(random_permutation(rng), rng.choice(VARS))
            pair = (Abstraction(x, Abstraction(y, body)), body)
            yield App("h", (App("fC", pair if rng.random() < 0.5 else pair[::-1]),))
        for _ in range(20):
            yield random_term(rng, sig, 3)
        # two residual fixed-point equations on one variable
        for _ in range(20):
            x, y = rng.sample(ATOMS, 2)
            var = Suspension(IDENTITY, rng.choice(VARS))
            left = App("fC", (var, Suspension(random_permutation(rng), var.var)))
            right = App("fC", (Suspension(random_permutation(rng), var.var), var))
            yield App("fC", (Abstraction(x, Abstraction(y, left)), right))

    def test_steps_solve_their_premise_problems(self, ex22_system, prenex_system):
        rng = random.Random(16)
        fixed = [
            (ex22_system, parse_term("h(fC([b][a]X, X))", ex22_system.signature), 2, 2),
            (prenex_system, parse_term("and(P1, not(forall([b]Q1)))", prenex_system.signature), 2, 0),
        ]
        # (a b).V = V and (a c).V = V, then (a b).V = V twice: the second
        # equation holds of no binding of the first, then of every one
        for perm in ("(a c)", "(a b)"):
            shared = f"fC([a][b]fC(V, {perm}.V), fC((a b).V, V))"
            fixed += [(ex22_system, parse_term(shared, ex22_system.signature), 1, d) for d in (1, 2)]
        cases = fixed + [(prenex_system, random_prenex_pattern(rng, 3), 2, 1) for _ in range(60)]
        cases += [
            (ex22_system, term, 2, 1 + i % 2)
            for i, term in enumerate(self._ex22_terms(rng, ex22_system.signature))
        ]
        kinds = collections.Counter()
        for index, (system, term, depth, fixpoint_depth) in enumerate(cases):
            sig = system.signature
            tree = narrow_search(frozenset(), term, system, depth, fixpoint_depth, 20)
            assert tree.edges or index >= len(fixed)
            for edge in tree.edges:
                sub = subterm_at(edge.parent.term, edge.position.path)
                problem = UnificationState(
                    edge.parent.context | edge.rule_instance.context,
                    IDENTITY_SUBST,
                    (EqualityGoal(edge.rule_instance.lhs, sub),),
                )
                solution = (edge.child.context, edge.step_subst)
                assert check_solution(solution, problem, sig), (str(term), str(edge))
                kinds[system is ex22_system, edge.used_fixpoint_enumeration] += 1
        # plain and fixed-point edges on ex22, plain edges on prenex
        assert kinds[True, True] and kinds[True, False] and kinds[False, False], kinds


class TestLiftingForward:
    def _example_derivation(self, prenex_system):
        sig = prenex_system.signature
        s0 = parse_term("and(P1, not(forall([b]Q1)))", sig)
        tree = narrow_search(frozenset(), s0, prenex_system, 2, 0, 50)
        (first,) = [e for e in _children(tree, tree.root) if e.rule == "not_forall"]
        (second,) = [
            e
            for e in _children(tree, first.child)
            if e.rule == "and_exists"
            and format_context(e.child.context) == "a#P1, a#Q1"
        ]
        return [first, second]

    def test_valid_instantiation_lifts(self, prenex_system):
        sig = prenex_system.signature
        derivation = self._example_derivation(prenex_system)
        rho = parse_substitution("Q1 -> forall([a]R), P1 -> R", sig)
        assert lifting_forward_check(derivation, rho, parse_context("a#R"), sig) is True

    def test_inconsistent_instantiation(self, prenex_system):
        sig = prenex_system.signature
        derivation = self._example_derivation(prenex_system)
        rho = parse_substitution("Q1 -> a, P1 -> a", sig)
        out = lifting_forward_check(derivation, rho, parse_context("a#R"), sig)
        assert out is PRECONDITION_FAIL

    def test_empty_derivation(self, prenex_system):
        assert lifting_forward_check([], Substitution(), frozenset(), prenex_system.signature) is True

    def test_unsatisfied_context_fails_precondition(self, prenex_system):
        sig = prenex_system.signature
        derivation = self._example_derivation(prenex_system)
        # leaves a#Q1 standing but the judging context cannot derive it
        rho = parse_substitution("P1 -> R", sig)
        out = lifting_forward_check(derivation, rho, frozenset(), sig)
        assert out is PRECONDITION_FAIL


class TestLiftingBackward:
    def test_single_step(self, prenex_system):
        sig = prenex_system.signature
        s0 = parse_term("not(forall([a]Q))", sig)
        rho0 = parse_substitution("Q -> b", sig)
        _, trace = normalize(frozenset(), parse_term("not(forall([a]b))", sig), prenex_system, 10)
        out = lifting_backward_construct(
            frozenset(), s0, rho0, frozenset(), trace, 0, prenex_system
        )
        assert not isinstance(out, NotFound)
        steps, residue = out
        assert len(steps) == 1 and residue == IDENTITY_SUBST
        assert derive_alpha_c(
            frozenset(), steps[0].child.term, parse_term("exists([a]not(b))", sig), sig
        )
        assert lifting_forward_check(steps, residue, frozenset(), sig) is True

    def test_fresh_names_avoid_the_variables_of_rho0(self, prenex_system):
        # not_forall's Q is renamed to Q0 unless Q0 is taken. Here only
        # rho0's image holds Q0, and a rule variable of that name would
        # capture it: the unifier would no longer solve the step.
        sig = prenex_system.signature
        s0 = parse_term("not(forall([a]P))", sig)
        rho0 = parse_substitution("P -> not(Q0)", sig)
        _, trace = normalize(frozenset(), apply_subst(rho0, s0), prenex_system, 10)
        out = lifting_backward_construct(frozenset(), s0, rho0, frozenset(), trace, 0, prenex_system)
        assert not isinstance(out, NotFound)
        (step,), residue = out
        assert str(step.rule_instance) == "|- not(forall([a]Q1)) -> exists([a]not(Q1))"
        assert str(step.child.term) == "exists([a]not(not(Q0)))"
        assert lifting_forward_check((step,), residue, frozenset(), sig) is True

    def test_empty_trace(self, prenex_system):
        sig = prenex_system.signature
        s0 = parse_term("not(forall([a]Q))", sig)
        rho0 = parse_substitution("Q -> b", sig)
        out = lifting_backward_construct(
            frozenset(), s0, rho0, frozenset(), (), 0, prenex_system
        )
        assert out == ((), rho0)

    def test_two_step_ground_instance(self, prenex_system):
        sig = prenex_system.signature
        delta = parse_context("a#R")
        s0 = parse_term("and(P1, not(forall([b]Q1)))", sig)
        rho0 = parse_substitution("Q1 -> forall([a]R), P1 -> R", sig)
        start = parse_term("and(R, not(forall([b]forall([a]R))))", sig)
        _, trace = normalize(delta, start, prenex_system, 10)
        out = lifting_backward_construct(frozenset(), s0, rho0, delta, trace, 0, prenex_system)
        assert not isinstance(out, NotFound)
        steps, residue = out
        assert [s.rule for s in steps] == ["not_forall", "and_exists"]
        assert lifting_forward_check(steps, residue, delta, sig) is True

    def test_unnormalised_rho_rejected(self, prenex_system):
        sig = prenex_system.signature
        s0 = parse_term("not(forall([a]Q))", sig)
        rho0 = parse_substitution("Q -> not(forall([a]b))", sig)
        with pytest.raises(ValueError):
            lifting_backward_construct(
                frozenset(), s0, rho0, frozenset(), (), 0, prenex_system
            )

    def test_child_not_ac_to_the_recorded_result(self, ex22_system, monkeypatch):
        # Step 0 records a rearranged result, but the narrowing child is the
        # plain one, fC(fC(h(a), b), fC(h(a), c)). Collapsing its h(a) at 0.0
        # gives fC(fC(a, b), fC(h(a), c)), not =ac to the recorded
        # fC(fC(a, c), fC(h(a), b)): the constructed unifier solves step 1's
        # problem, and only the =ac comparison refuses the child.
        sig = ex22_system.signature
        s0 = parse_term("fC(fC(h(h(a)), b), fC(h(a), c))", sig)
        trace = []
        for result in ("fC(fC(h(a), c), fC(h(a), b))", "fC(fC(a, c), fC(h(a), b))"):
            source = trace[-1].result if trace else s0
            (step,) = [
                step
                for step in one_step_rewrites(frozenset(), source, ex22_system)
                if step.rule == "collapse" and str(step.position) == "0.0" and step.result == parse_term(result, sig)
            ]
            trace.append(step)
        checked = []
        check = narrowing.check_solution
        monkeypatch.setattr(narrowing, "check_solution", lambda *args: checked.append(check(*args)) or checked[-1])
        out = lifting_backward_construct(frozenset(), s0, IDENTITY_SUBST, frozenset(), trace, 0, ex22_system)
        assert out == NotFound(step_index=1)
        assert checked == [True, True]

    def test_round_trip_on_random_instances(self, prenex_system):
        rng = random.Random(32)
        sig = prenex_system.signature
        done = 0
        while done < 25:
            pattern = random_prenex_pattern(rng, 3)
            mapping = {}
            for var in sorted(term_vars(pattern), key=lambda v: v.name):
                image = random_prenex_formula(rng, 2)
                image, _ = normalize(frozenset(), image, prenex_system, 20)
                mapping[var] = image
            rho0 = Substitution(mapping)
            start = apply_subst(rho0, pattern)
            _, trace = normalize(frozenset(), start, prenex_system, 30)
            out = lifting_backward_construct(
                frozenset(), pattern, rho0, frozenset(), trace, 1, prenex_system
            )
            assert not isinstance(out, NotFound), (str(pattern), str(rho0))
            steps, residue = out
            assert lifting_forward_check(steps, residue, frozenset(), sig) is True
            done += 1


def _unreplayable_trace(system):
    sig = system.signature
    _, trace = normalize(frozenset(), parse_term("not(exists([a]b))", sig), system, 10)
    s0, rho0 = parse_term("not(forall([a]Q))", sig), parse_substitution("Q -> b", sig)
    return lifting_backward_construct(frozenset(), s0, rho0, frozenset(), trace, 0, system)


def _unchained_derivation(system):
    sig = system.signature
    tree = narrow_search(frozenset(), parse_term("not(X)", sig), system, 1, 0, 50)
    return lifting_forward_check(tree.edges[:2], IDENTITY_SUBST, frozenset(), sig)


@pytest.mark.parametrize(
    "call, message",
    [
        (_unreplayable_trace, "trace does not replay from s0 rho0 under delta"),
        (_unchained_derivation, "narrowing steps do not form a chain"),
    ],
    ids=["backward_trace_elsewhere", "forward_siblings"],
)
def test_lifting_input_checks_name_the_fault(prenex_system, call, message):
    with pytest.raises(ValueError) as err:
        call(prenex_system)
    assert str(err.value) == message


# -- backward lifting against the construction it replaced -------------------
#
# Backward lifting once tried the direct unifier and, when that failed, a
# solver search at the recorded position with fixed-point expansion and two
# candidate residues. The search never returned a step, so it was dropped;
# the old construction stays here as the reference, counting in `fallback`
# how often it searched ("entered") and how often that found a step
# ("returned").


def _reference_lifting_backward_construct(
    delta0, s0, rho0, delta, trace, fixpoint_depth, system, *, fallback, max_states=DEFAULT_MAX_STATES
):
    sig = system.signature
    trace = tuple(trace)
    for var in sorted(rho0.domain, key=lambda v: v.name):
        if primary_rewrite_steps(delta, rho0.get(var), system, max_states=max_states):
            raise ValueError(f"rho0 is not normalised: {var} maps to a reducible term")
    if not satisfies_with(delta0, rho0, delta):
        raise ValueError("rho0 does not satisfy the root context under delta")
    source = apply_subst(rho0, s0)
    for recorded in trace:
        if not verify_rewrite_step(delta, source, recorded, sig):
            raise ValueError("trace does not replay from s0 rho0 under delta")
        source = recorded.result
    if not trace:
        return (), rho0
    node = NarrowingNode(delta0, s0, 0)
    rho_cur = rho0
    steps = []
    avoid = narrowing._gather_vars(node) | rho0.domain | {c.var for c in delta}
    avoid = avoid.union(*(term_vars(image) for _, image in rho0.items()))
    for index, recorded in enumerate(trace):
        built = _reference_lift_one(
            node, rho_cur, recorded, delta, system, fixpoint_depth, avoid, max_states, fallback
        )
        if built is None:
            return NotFound(index)
        step, rho_cur = built
        steps.append(step)
        node = step.child
        avoid = avoid | narrowing._gather_vars(node) | step.rule_instance.variables()
    return tuple(steps), rho_cur


def _reference_lift_one(node, rho_cur, recorded, delta, system, fixpoint_depth, avoid, max_states, fallback):
    sig = system.signature
    pos = recorded.position
    try:
        sub = subterm_at(node.term, pos.path)
    except ValueError:
        return None
    if isinstance(sub, Suspension):
        return None
    renamed, var_map = rename_rule_with_map(recorded.rule_instance, avoid)
    sigma = Substitution(
        {var_map[v]: image for v, image in recorded.subst.items() if v in var_map}
    )
    variables = term_vars(node.term) | {c.var for c in node.context}
    problem = UnificationState(
        node.context | renamed.context, IDENTITY_SUBST, (EqualityGoal(renamed.lhs, sub),)
    )

    def lifted(candidates, residues):
        for context, theta, flagged in candidates:
            # narrowing trusts solver answers; this reference re-checks its own
            if not check_solution((context, theta), problem, sig):
                continue
            child = narrowing._child(node, pos, renamed, context, theta)
            for residue in residues:
                if not satisfies_with(child.context, residue, delta):
                    continue
                if not derive_alpha_c(
                    delta, apply_subst(residue, child.term), recorded.result, sig
                ):
                    continue
                if not all(
                    derive_alpha_c(
                        delta,
                        rho_cur.get(v),
                        apply_subst(residue, theta.get(v)),
                        sig,
                    )
                    for v in variables
                ):
                    continue
                return NarrowingStep(recorded.rule, pos, theta, flagged, child, node, renamed), residue
        return None

    direct = lifted([(delta, rho_cur.compose(sigma), False)], (IDENTITY_SUBST,))
    if direct is not None:
        return direct
    fallback["entered"] += 1
    solutions = solve(
        node.context, sub, renamed.context, renamed.lhs, sig=sig, max_states=max_states
    )
    found = lifted(narrowing._expanded_solutions(solutions, sig, fixpoint_depth, {}), (IDENTITY_SUBST, rho_cur))
    fallback["returned"] += found is not None
    return found


def _lifting_outcome(construct, problem, **kwargs):
    """What a backward lifting answers, in comparable form: the NotFound,
    the refusal's message, or each step's rule, position, unifier, child
    term and child context, with the residue."""
    try:
        out = construct(*problem, **kwargs)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, NotFound):
        return out
    steps, residue = out
    return [(s.rule, s.position, s.step_subst, s.child.term, s.child.context) for s in steps], residue


def _round_trip_problems(rng, system, count):
    """Criterion 11's inputs: a random pattern, normal random images, and
    the trace that normalises the instance."""
    for _ in range(count):
        pattern = random_prenex_pattern(rng, 3)
        rho0 = Substitution(
            {
                v: normalize(frozenset(), random_prenex_formula(rng, 2), system, 20)[0]
                for v in sorted(term_vars(pattern), key=lambda v: v.name)
            }
        )
        _, trace = normalize(frozenset(), apply_subst(rho0, pattern), system, 30)
        yield frozenset(), pattern, rho0, frozenset(), trace, 1, system


def _tier1_lifting_problems(prenex_system, flip_system):
    """Every backward lifting input of the other tests and of the CLI tests."""
    sig = prenex_system.signature

    def problem(term, rho, context="", target="", fixpoint_depth=0, system=prenex_system, trace=None):
        s0 = parse_term(term, system.signature)
        rho0 = parse_substitution(rho, system.signature)
        delta = parse_context(target)
        if trace is None:
            _, trace = normalize(delta, apply_subst(rho0, s0), system, 30)
        return parse_context(context), s0, rho0, delta, trace, fixpoint_depth, system

    yield problem("not(forall([a]Q))", "Q -> b")
    yield problem("not(forall([a]Q))", "Q -> b", fixpoint_depth=1)
    yield problem("not(forall([a]Q))", "Q -> b", trace=())
    yield problem("and(P1, not(forall([b]Q1)))", "Q1 -> forall([a]R), P1 -> R", target="a#R")
    yield problem("not(forall([a]Q))", "Q -> not(forall([a]b))", trace=())
    yield problem("not(Q)", "Q -> not(exists([a]a))", fixpoint_depth=1)
    yield problem("not(forall([b]Q))", "Q -> a", context="a#Q", fixpoint_depth=1)
    yield problem("(a c).X", "X -> c", fixpoint_depth=1, system=flip_system)
    yield from _round_trip_problems(random.Random(32), prenex_system, 25)
    yield from _round_trip_problems(random.Random(111), prenex_system, 100)


def _rearranged_trace(rng, delta, start, system, length):
    """Up to `length` steps from `start`, each a random primary step whose
    result is, half the time, one of its commutative rearrangements."""
    sig = system.signature
    trace = []
    term = start
    for _ in range(length):
        steps = primary_rewrite_steps(delta, term, system)
        if not steps:
            break
        step = rng.choice(steps)
        if rng.random() < 0.5:
            step = replace(step, result=rng.choice(commutative_variants(step.result, sig)))
        trace.append(step)
        term = step.result
    return tuple(trace)


def _rearranged_problems(rng, prenex_system, ex22_system, count):
    """Seeded prenex and ex22 lifting problems over rearranged traces; the
    images are random terms brought to normal form."""
    for index in range(count):
        delta = frozenset()
        if index % 2:
            system = ex22_system
            sig = system.signature
            if rng.random() < 0.5:
                pattern = random_term(rng, sig, 3)
            else:  # an instance of swap_abs's left-hand side, under h
                x, y = rng.sample(ATOMS, 2)
                arg = random_term(rng, sig, 1)
                pattern = App("h", (App("fC", (Abstraction(x, Abstraction(y, arg)), arg)),))
            if rng.random() < 0.5:
                delta = random_context(rng)
            images = [random_term(rng, sig, 2) for _ in term_vars(pattern)]
        else:
            system = prenex_system
            pattern = random_prenex_pattern(rng, 3)
            images = [random_prenex_formula(rng, 2) for _ in term_vars(pattern)]
        variables = sorted(term_vars(pattern), key=lambda v: v.name)
        rho0 = Substitution(
            {v: normalize(delta, image, system, 20)[0] for v, image in zip(variables, images)}
        )
        trace = _rearranged_trace(rng, delta, apply_subst(rho0, pattern), system, 4)
        yield frozenset(), pattern, rho0, delta, trace, 1, system


class TestLiftingBackwardReference:
    FLIP = "sig:\n  g: 1\nrules:\n  flip: |- a -> b\n"
    # Step 0's result is swapped under `and` before not_forall fires at 0,
    # where the direct unifier cannot reach the swapped-in conjunct.
    SWAPPED = ("and(not(forall([a]P)), not(forall([a]Q)))", "P -> b, Q -> c", "and(not(forall([a]c)), exists([a]not(b)))")

    def _swapped_problem(self, system):
        sig = system.signature
        term, rho, swapped = self.SWAPPED
        s0, rho0 = parse_term(term, sig), parse_substitution(rho, sig)
        first = primary_rewrite_steps(frozenset(), apply_subst(rho0, s0), system)[0]
        first = replace(first, result=parse_term(swapped, sig))
        second = next(s for s in primary_rewrite_steps(frozenset(), first.result, system) if s.position.path == (0,))
        return frozenset(), s0, rho0, frozenset(), (first, second), 1, system

    def test_swapped_conjunct_is_not_found_at_step_one(self, prenex_system):
        problem = self._swapped_problem(prenex_system)
        assert [(s.rule, str(s.position)) for s in problem[4]] == [("not_forall", "0"), ("not_forall", "0")]
        fallback = collections.Counter()
        assert _lifting_outcome(_reference_lifting_backward_construct, problem, fallback=fallback) == NotFound(1)
        assert fallback == {"entered": 1, "returned": 0}
        assert lifting_backward_construct(*problem) == NotFound(1)

    def test_same_answers_as_the_solver_fallback(self, prenex_system, ex22_system):
        flip_system = parse_system(self.FLIP).system
        problems = list(_tier1_lifting_problems(prenex_system, flip_system))
        problems.append(self._swapped_problem(prenex_system))
        problems.extend(_rearranged_problems(random.Random(13), prenex_system, ex22_system, 240))
        fallback = collections.Counter()
        outcomes = collections.Counter()
        for problem in problems:
            old = _lifting_outcome(_reference_lifting_backward_construct, problem, fallback=fallback)
            new = _lifting_outcome(lifting_backward_construct, problem)
            assert new == old, (str(problem[1]), str(problem[2]), [str(s.result) for s in problem[4]])
            outcomes[type(old).__name__] += 1
        assert fallback["entered"] >= 1 and fallback["returned"] == 0, fallback
        # steps, NotFound and refused inputs all occur
        assert outcomes.keys() == {"tuple", "NotFound", "str"}, outcomes


# -- narrowing against eager renaming -----------------------------------------
#
# Narrowing once renamed rules apart eagerly, before the skeleton test, from
# an avoid set it grew by each renamed rule and re-gathered from each node and
# each child. It now draws names from one name supply, and only where a rule
# fits; the eager construction, every rule at every non-variable subterm,
# stays here as the reference, and trees are compared up to the names rules
# drew.


def _reference_expand_node(node, system, fixpoint_depth, max_unifiers, avoid, max_states):
    sig = system.signature
    steps = []
    avoid = avoid | narrowing._gather_vars(node)
    # Every (subterm, rule) pair in scan order, and whether the rule fits there.
    # `redexes` calls `prepare` only where a rule fits, so the renamings for
    # the sites passed over since its last call are made first, and those
    # after the last one when the scan ends.
    sites = iter(
        [
            (rule, reference_skeleton_fits(rule.lhs, sub, sig, True))
            for _, sub in subterms_with_positions(node.term)
            if not isinstance(sub, Suspension)
            for rule in system.rules
        ]
    )

    def rename(rule):
        nonlocal avoid
        renamed = rename_rule_with_map(rule, avoid)[0]
        avoid = avoid | renamed.variables()
        return renamed

    def prepare(rule, _):
        for passed, fits in sites:
            renamed = rename(passed)
            if fits:
                assert passed is rule
                return renamed

    def attempt(sub, rule):
        return solve(node.context, sub, rule.context, rule.lhs, sig=sig, max_states=max_states)

    for pos, rule, solutions in reference_redexes(node.context, node.term, system, prepare, attempt, unify=True):
        for context, theta, flagged in narrowing._expanded_solutions(solutions, sig, fixpoint_depth, {}):
            if len(steps) >= max_unifiers:
                return steps, True, avoid
            child = narrowing._child(node, pos, rule, context, theta)
            steps.append(NarrowingStep(rule.name, pos, theta, flagged, child, node, rule))
            avoid = avoid | narrowing._gather_vars(child)
    for passed, _ in sites:
        rename(passed)
    return steps, False, avoid


def _reference_narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers):
    root = NarrowingNode(delta, term, 0)
    edges, frontier = [], [root]
    avoid = narrowing._gather_vars(root)
    nodes_truncated = 0
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            steps, truncated, avoid = _reference_expand_node(
                node, system, fixpoint_depth, max_unifiers, avoid, DEFAULT_MAX_STATES
            )
            nodes_truncated += truncated
            edges.extend(steps)
            next_frontier.extend(s.child for s in steps)
        frontier = next_frontier
        if not frontier:
            break
    record = TruncationRecord(depth, max_unifiers, fixpoint_depth, nodes_truncated)
    return NarrowingTree(root, tuple(edges), record)


def _vars_in_order(term, out):
    """The variables of a term by first occurrence, added to the dict `out`."""
    if isinstance(term, Suspension):
        out.setdefault(term.var)
    elif isinstance(term, Abstraction):
        _vars_in_order(term.body, out)
    elif isinstance(term, App):
        for arg in term.args:
            _vars_in_order(arg, out)
    return out


def _tree_outline(tree):
    """Everything a tree answers, edge by edge, with each parent given as
    its index among the nodes, up to the names its rules drew: each edge's
    rule-instance variables are named by their first occurrence in its
    left-hand side, and that renaming holds below the edge too."""
    index = {id(node): i for i, node in enumerate(tree.nodes())}
    accumulated = tree.accumulated()
    renamings = {id(tree.root): {}}
    edges = []
    for e in tree.edges:  # breadth first: a parent comes before its children
        renaming = dict(renamings[id(e.parent)])
        for k, var in enumerate(_vars_in_order(e.rule_instance.lhs, {})):
            renaming[var] = Var(f"~{e.child.depth}.{k}")
        renamings[id(e.child)] = renaming
        images = Substitution({v: Suspension(IDENTITY, w) for v, w in renaming.items()})

        def subst(theta):
            return Substitution({renaming.get(v, v): apply_subst(images, t) for v, t in theta.items()})

        context = frozenset(FreshnessConstraint(c.atom, renaming.get(c.var, c.var)) for c in e.child.context)
        edges.append(
            (
                index[id(e.parent)],
                e.rule,
                e.position,
                subst(e.step_subst),
                rewriting.renamed_rule(e.rule_instance, renaming),
                context,
                apply_subst(images, e.child.term),
                subst(accumulated[e.child]),
                e.child.depth,
                e.used_fixpoint_enumeration,
            )
        )
    return edges, tree.truncation


def _swap_family_term(rng):
    """h(fC([x][y]pi.V, pi.V)) in either argument order."""
    x, y = rng.sample(ATOMS, 2)
    body = Suspension(random_permutation(rng), rng.choice(VARS))
    pair = (Abstraction(x, Abstraction(y, body)), body)
    return App("h", (App("fC", pair if rng.random() < 0.5 else pair[::-1]),))


def _seeded_narrowing_cases(rng, prenex_system, ex22_system, count):
    """(context, term, system, depth, fixpoint_depth, max_unifiers): seeded
    prenex patterns, ex22 random terms and the swap_abs family in turn, half
    of them under a random context, at depths 2-3 with few unifiers."""
    for index in range(count):
        kind = index % 3
        if kind == 0:
            system, term, fixpoint_depth = prenex_system, random_prenex_pattern(rng, 3), 0
        elif kind == 1:
            system, term, fixpoint_depth = ex22_system, random_term(rng, ex22_system.signature, 3), 1
        else:
            system, term, fixpoint_depth = ex22_system, _swap_family_term(rng), 1
        delta = random_context(rng) if rng.random() < 0.5 else frozenset()
        yield delta, term, system, rng.choice((2, 3)), fixpoint_depth, rng.randint(2, 5)


class TestNameSupply:
    def test_same_trees_as_eager_renaming(self, prenex_system, ex22_system):
        kinds = collections.Counter()
        for delta, term, system, depth, fixpoint_depth, max_unifiers in _seeded_narrowing_cases(
            random.Random(17), prenex_system, ex22_system, 300
        ):
            tree = narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            reference = _reference_narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            assert _tree_outline(tree) == _tree_outline(reference), (format_context(delta), str(term))
            kinds["edges"] += len(tree.edges)
            kinds["fixpoint"] += sum(e.used_fixpoint_enumeration for e in tree.edges)
            kinds["truncated"] += tree.truncation.nodes_truncated
            kinds["context"] += bool(delta) and bool(tree.edges)
            kinds["deep"] += any(e.child.depth == 3 for e in tree.edges)
        assert all(kinds[k] for k in ("fixpoint", "truncated", "context", "deep")), kinds
        assert kinds["edges"] >= 1000, kinds

    def test_root_expansion_matches_eager_renaming(self, prenex_system, ex22_system):
        for delta, term, system, _, fixpoint_depth, max_unifiers in _seeded_narrowing_cases(
            random.Random(18), prenex_system, ex22_system, 60
        ):
            tree = narrow_search(delta, term, system, 1, fixpoint_depth, max_unifiers)
            reference, truncated, _ = _reference_expand_node(
                tree.root, system, fixpoint_depth, max_unifiers, frozenset(), DEFAULT_MAX_STATES
            )
            record = TruncationRecord(1, max_unifiers, fixpoint_depth, int(truncated))
            assert _tree_outline(tree) == _tree_outline(NarrowingTree(tree.root, tuple(reference), record))

    def test_rule_instances_renamed_apart(self, prenex_system, ex22_system):
        # Why the supply need not re-gather a child's variables: every
        # node's variables are the root's or those of an instance above it.
        for delta, term, system, depth, fixpoint_depth, max_unifiers in _seeded_narrowing_cases(
            random.Random(19), prenex_system, ex22_system, 90
        ):
            tree = narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            root_vars = narrowing._gather_vars(tree.root)
            instances = {id(e.rule_instance): e.rule_instance.variables() for e in tree.edges}
            seen = set(root_vars)
            for variables in instances.values():
                assert seen.isdisjoint(variables), str(term)
                seen |= variables
            above = {id(tree.root): root_vars}
            for edge in tree.edges:  # breadth first: a parent comes before its children
                above[id(edge.child)] = above[id(edge.parent)] | edge.rule_instance.variables()
                assert narrowing._gather_vars(edge.child) <= above[id(edge.child)], (str(term), str(edge))

    def test_copies_built_only_where_attempted(self, prenex_system, ex22_system, monkeypatch):
        built = collections.Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(narrowing, "renamed_rule", counting("renamed", narrowing.renamed_rule))
        monkeypatch.setattr(rewriting, "permute_rule", counting("shifted", rewriting.permute_rule))
        # an attempt runs the solver, or the linear walk at a linear node
        monkeypatch.setattr(rewriting, "solve", counting("solved", rewriting.solve))
        monkeypatch.setattr(rewriting, "_linear_walk", counting("walked", rewriting._linear_walk))
        monkeypatch.setattr(NameSupply, "draw", counting("drawn", NameSupply.draw))
        # and(a, forall([a]X)) needs and_forall's atom a shifted off; in all
        # three, some rule is filed under a head its skeleton does not fit
        texts = (
            "or(and(a, forall([a]X)), and(a, forall([a]Y)))",
            "and(P1, not(forall([b]Q1)))",
            "not(and(P, or(Q, forall([a]R))))",
        )
        cases = [(frozenset(), parse_term(text, prenex_system.signature), prenex_system, 2, 0, 0) for text in texts]
        cases += _seeded_narrowing_cases(random.Random(20), prenex_system, ex22_system, 60)
        totals = collections.Counter()
        for delta, term, system, _, fixpoint_depth, _ in cases:
            sig = system.signature
            built.clear()
            tree = narrow_search(delta, term, system, 2, fixpoint_depth, 1000)
            assert tree.truncation.nodes_truncated == 0
            sites = collections.Counter()
            for node in tree.nodes():
                if node.depth == 2:
                    continue
                for _, sub in subterms_with_positions(node.term):
                    if not isinstance(sub, Suspension):
                        for rule in system.rules:
                            sites[reference_skeleton_fits(rule.lhs, sub, sig, True)] += 1
            # one draw of names and one renamed copy per fitting (site, rule)
            # pair, one shifted copy per retry, and one attempt on each copy
            assert built["drawn"] == built["renamed"] == sites[True], str(term)
            assert built["renamed"] + built["shifted"] == built["solved"] + built["walked"], str(term)
            totals.update(built)
            totals.update({"rejected": sites[False]})
        # a renaming or a draw at the rejected sites would fail the count
        assert totals["rejected"] and totals["shifted"], totals
        assert totals["solved"] and totals["walked"], totals


#
# A residual fixed-point equation whose variable an earlier option bound is
# checked against that binding, not enumerated again, and a binding settles
# the context's constraints on its variable. The product expansion that
# enumerated every equation stays in conftest as the reference.


def _shared_variable_term(rng):
    """fC([x][y]fC(V, pi1.V), fC(pi2.V, V)): two residual equations on V."""
    x, y = rng.sample(ATOMS, 2)
    var = Suspension(IDENTITY, rng.choice(VARS))
    left = App("fC", (var, Suspension(random_permutation(rng), var.var)))
    right = App("fC", (Suspension(random_permutation(rng), var.var), var))
    return App("fC", (Abstraction(x, Abstraction(y, left)), right))


def _unique(items):
    return list(dict.fromkeys(items))


def _constrains_bound(context, theta):
    return any(c.var in theta.domain for c in context)


class TestSharedResiduals:
    def test_root_edges_equal_the_deduplicated_product(self, ex22_system, monkeypatch):
        rng = random.Random(27)
        totals = collections.Counter()
        for index in range(150):
            term, fixpoint_depth = _shared_variable_term(rng), 1 + index % 2
            steps = narrow_search(frozenset(), term, ex22_system, 1, fixpoint_depth, 10_000).edges
            with monkeypatch.context() as patched:
                patched.setattr(narrowing, "_expanded_solutions", reference_expanded_solutions)
                reference = narrow_search(frozenset(), term, ex22_system, 1, fixpoint_depth, 10_000).edges
            got = _unique(
                (e.rule, e.position, e.step_subst, e.child.context, e.child.term, e.used_fixpoint_enumeration)
                for e in steps
            )
            want = _unique(
                (
                    e.rule,
                    e.position,
                    e.step_subst,
                    frozenset(c for c in e.child.context if c.var not in e.step_subst.domain),
                    e.child.term,
                    e.used_fixpoint_enumeration,
                )
                for e in reference
            )
            assert got == want, str(term)
            totals["edges"] += len(steps)
            totals["reference"] += len(reference)
            totals["stale"] += sum(_constrains_bound(e.child.context, e.step_subst) for e in reference)
        # the product repeated edges and left constraints on bound variables
        assert totals["reference"] > totals["edges"] and totals["stale"], totals

    def test_distinct_variables_close_as_the_product(self, ex22_system):
        # With no variable shared, closing one equation at a time gives the
        # product's answers in its order.
        sig = ex22_system.signature
        rng = random.Random(30)
        for index in range(30):
            perms = [random_permutation(rng) for _ in range(2)]
            residuals = tuple((perm, var) for perm, var in zip(perms, rng.sample(VARS, 2)) if perm.moved_atoms())
            answer = CSolution(random_context(rng), IDENTITY_SUBST, residuals)
            got = list(narrowing._expanded_solutions((answer, answer), sig, 1 + index % 2, {}))
            assert got == list(reference_expanded_solutions((answer, answer), sig, 1 + index % 2))


class TestNoConstraintOnBoundVariable:
    """No answer of the solver and no narrowing node has a context
    constraint on a variable its substitution binds."""

    def test_solver_answers(self, prenex_system, ex22_system, lambda_signature):
        rng = random.Random(28)
        subject_vars = (Var("S1"), Var("S2"))
        settled = 0
        for index in range(600):
            sig = (prenex_system.signature, ex22_system.signature, lambda_signature)[index % 3]
            variables = subject_vars if index % 2 else VARS
            nabla, l = random_context(rng), random_term(rng, sig, 3)
            delta, s = random_context(rng, variables=variables), random_term(rng, sig, 3, variables=variables)
            try:
                if index % 2:
                    answers = match(nabla, l, delta, s, sig=sig, max_states=2000)
                else:
                    answers = solve(delta, s, nabla, l, sig=sig, max_states=2000)
            except SearchSpaceExceeded:
                continue
            for answer in answers:
                assert not _constrains_bound(answer.context, answer.subst), (str(l), str(s), str(answer))
                settled += _constrains_bound(nabla | delta, answer.subst)
        assert settled, "no answer bound a constrained variable"

    def test_narrowing_nodes(self, prenex_system, ex22_system):
        rng = random.Random(29)
        cases = list(_seeded_narrowing_cases(rng, prenex_system, ex22_system, 60))
        cases += [(frozenset(), _shared_variable_term(rng), ex22_system, 1, 1 + i % 2, 1000) for i in range(40)]
        nodes = 0
        for delta, term, system, depth, fixpoint_depth, max_unifiers in cases:
            tree = narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            accumulated = tree.accumulated()
            for edge in tree.edges:  # accumulated binds every variable step_subst binds
                assert not _constrains_bound(edge.child.context, accumulated[edge.child]), (str(term), str(edge))
                nodes += 1
        assert nodes >= 500, nodes


#
# A search keeps one table of fixed-point options for all its nodes, and
# composes no node's accumulated substitution: `NarrowingTree.accumulated`
# does, on request. The eager build, which composed every child's
# substitution and enumerated afresh at every site, stays in conftest as the
# reference.

FIXPOINT_PAIRS = ("ba", "ac", "cb", "bc", "ca")
FIXPOINT_WRAPPERS = ("{}", "oplus({}, a)", "h({})", "fC(b, {})")


def _fixpoint_terms(sig):
    """h(W(fC([p][q]V, V))) for every atom pair (p, q) of the narrow_lift
    workload, every wrapper W it uses, and V in X, Y."""
    for p, q in FIXPOINT_PAIRS:
        for wrapper in FIXPOINT_WRAPPERS:
            for var in "XY":
                yield parse_term(f"h({wrapper.format(f'fC([{p}][{q}]{var}, {var})')})", sig)


def _read_once_cases(rng, prenex_system, ex22_system):
    """The fixed-point terms at the workload's bounds and with a tighter
    enumeration and unifier bound, seeded prenex patterns as the workload
    narrows them, and the seeded cases of `TestNameSupply`."""
    sig = ex22_system.signature
    for index, term in enumerate(_fixpoint_terms(sig)):
        yield frozenset(), term, ex22_system, 2, 2, 40
        yield frozenset(), term, ex22_system, 2, 1, 4 + index % 3
    for p, q in FIXPOINT_PAIRS:  # one permutation on two variables, and two on one
        for text in (f"fC([{p}][{q}]X, X), fC([{p}][{q}]Y, Y)", f"fC([{p}][{q}]X, X), fC([{p}][d]X, X)"):
            yield frozenset(), parse_term(f"oplus({text})", sig), ex22_system, 1, 1, 100
    for _ in range(40):
        delta = random_context(rng) if rng.random() < 0.5 else frozenset()
        yield delta, random_prenex_pattern(rng, 3), prenex_system, 2, 0, rng.choice((3, 50))
    yield from _seeded_narrowing_cases(rng, prenex_system, ex22_system, 60)


def _edge_records(tree, accumulated):
    """Each edge of a tree with its parent's index among the nodes and its
    child's substitution in `accumulated`, and the truncation record."""
    index = {id(node): i for i, node in enumerate(tree.nodes())}
    edges = [
        (
            index[id(e.parent)],
            e.rule,
            e.position,
            e.step_subst,
            e.rule_instance,
            e.child.term,
            e.child.context,
            str(accumulated[e.child]),
            e.child.depth,
            e.used_fixpoint_enumeration,
        )
        for e in tree.edges
    ]
    return edges, tree.truncation


class TestSearchPaysForWhatItReturns:
    def test_same_trees_as_the_eager_build(self, prenex_system, ex22_system):
        kinds = collections.Counter()
        for delta, term, system, depth, fixpoint_depth, max_unifiers in _read_once_cases(
            random.Random(31), prenex_system, ex22_system
        ):
            tree = narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            accumulated = tree.accumulated()
            reference = reference_narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            assert _edge_records(tree, accumulated) == _edge_records(*reference), (format_context(delta), str(term))
            kinds["edges"] += len(tree.edges)
            kinds["fixpoint"] += sum(e.used_fixpoint_enumeration for e in tree.edges)
            kinds["truncated"] += tree.truncation.nodes_truncated
            # a depth-2 child whose accumulated substitution binds more than its step's
            kinds["deep"] += sum(
                e.child.depth == 2 and not accumulated[e.child].domain <= e.step_subst.domain for e in tree.edges
            )
        assert all(kinds[k] for k in ("fixpoint", "truncated", "deep")), kinds
        assert kinds["edges"] >= 1500, kinds

    def test_each_residual_enumerated_once_per_search(self, prenex_system, ex22_system, monkeypatch):
        calls, residuals = collections.Counter(), set()
        enumerate_options, solve_for = narrowing.enumerate_fixpoint_solutions, rewriting.solve

        def counting_enumerate(perm, var, sig, depth):
            calls[perm, var] += 1
            return enumerate_options(perm, var, sig, depth)

        def recording_solve(*args, **kwargs):
            answers = solve_for(*args, **kwargs)
            residuals.update(key for answer in answers for key in answer.residual_fixpoints)
            return answers

        monkeypatch.setattr(narrowing, "enumerate_fixpoint_solutions", counting_enumerate)
        monkeypatch.setattr(rewriting, "solve", recording_solve)
        totals = collections.Counter()
        for delta, term, system, depth, fixpoint_depth, max_unifiers in _read_once_cases(
            random.Random(32), prenex_system, ex22_system
        ):
            calls.clear()
            residuals.clear()
            narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            assert set(calls) <= residuals and all(n == 1 for n in calls.values()), str(term)
            totals["searches" if residuals else "no_residual"] += 1
            totals["calls"] += sum(calls.values())
            calls.clear()
            reference_narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers)
            totals["reference_calls"] += sum(calls.values())
        # the eager build enumerated the same residual at several sites
        assert totals["no_residual"] and totals["searches"], totals
        assert totals["reference_calls"] > totals["calls"] > 0, totals

    def test_a_deep_read_composes_in_a_loop(self, monkeypatch):
        theta = Substitution({X: a})
        root = NarrowingNode(frozenset(), a, 0)
        edges, parent = [], root
        for depth in range(1, 3 * sys.getrecursionlimit()):
            child = NarrowingNode(frozenset(), a, depth)
            edges.append(NarrowingStep("r", Position(()), theta, False, child, parent, None))
            parent = child
        tree = NarrowingTree(root, tuple(edges), TruncationRecord(len(edges), 1, 0))
        composed = collections.Counter()
        compose = Substitution.compose

        def counting(self, other):
            composed["calls"] += 1
            return compose(self, other)

        monkeypatch.setattr(Substitution, "compose", counting)
        accumulated = tree.accumulated()
        assert composed["calls"] == len(edges)
        assert list(accumulated) == list(tree.nodes())
        assert accumulated[root] == IDENTITY_SUBST and accumulated[parent] == theta


#
# At a node whose term is linear, under any context, narrowing unifies a
# rule with a walk cost by the linear walk wherever the state cap cannot
# fire. `reference_narrow_search` in conftest runs the solver on every
# attempt.


def _generated_rule(rng, name, sig):
    """A linear rule over ex22's signature with at most one commutative
    node: nested binders, rule atoms that can clash with a subject's, and
    a random freshness context on its variables."""
    counter = itertools.count()
    commutative = [rng.random() < 0.7]  # whether a commutative node may still be placed

    def pattern(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if rng.random() < 0.6:
                return Suspension(random_permutation(rng), Var(f"W{next(counter)}"))
            return rng.choice(ATOMS[:3])
        if roll < 0.55:
            return Abstraction(rng.choice(ATOMS[:3]), pattern(depth - 1))
        if commutative[0]:
            commutative[0] = False
            return App(rng.choice(("fC", "oplus")), (pattern(depth - 1), pattern(depth - 1)))
        return App("h", (pattern(depth - 1),))

    lhs = App("h", (pattern(rng.randint(1, 3)),))
    variables = sorted(term_vars(lhs), key=lambda v: v.name)
    rhs = Suspension(random_permutation(rng), rng.choice(variables)) if variables else rng.choice(ATOMS[:3])
    context = frozenset(
        FreshnessConstraint(rng.choice(ATOMS[:3]), rng.choice(variables))
        for _ in range(rng.randint(0, 2) if variables else 0)
    )
    return RewriteRule(name, context, lhs, rhs)


def _linear_term(rng, sig, depth, next_var):
    """A random term over sig in which no variable occurs twice: each
    suspension has a fresh variable from `next_var()` and a random
    permutation."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Suspension(random_permutation(rng), next_var())
        return rng.choice(ATOMS)
    kind = rng.choice(("abs",) + sig.symbols)
    if kind == "abs":
        return Abstraction(rng.choice(ATOMS), _linear_term(rng, sig, depth - 1, next_var))
    return App(kind, tuple(_linear_term(rng, sig, depth - 1, next_var) for _ in range(sig.arity(kind))))


def _variable_supply(base):
    counter = itertools.count()
    return lambda: Var(f"{base}{next(counter)}")


def _linear_subject(rng, lhs, sig):
    """A linear term shaped like `lhs` at most places: a node may be cut to
    a fresh suspension, a rule suspension grows into a random linear term,
    atoms and binders may change (so rule atoms can clash with it), and
    commutative arguments may swap."""
    next_var = _variable_supply("V")

    def build(t):
        if rng.random() < 0.15:
            return Suspension(random_permutation(rng), next_var())
        if isinstance(t, Suspension):
            return _linear_term(rng, sig, 2, next_var)
        if isinstance(t, Atom):
            return rng.choice(ATOMS) if rng.random() < 0.3 else t
        if isinstance(t, Abstraction):
            return Abstraction(rng.choice(ATOMS) if rng.random() < 0.4 else t.atom, build(t.body))
        args = [build(arg) for arg in t.args]
        if sig.is_commutative(t.sym) and rng.random() < 0.5:
            args.reverse()
        return App(t.sym, tuple(args))

    return build(lhs)


def _walks(lhs, sig, term):
    """Whether a narrowing node with `term` unifies a rule with left-hand
    side `lhs` by the linear walk, decided here and not by the library:
    neither the term nor the left-hand side repeats a variable, and the
    left-hand side has at most one commutative node."""
    lhs_nodes = [sub for _, sub in subterms_with_positions(lhs)]
    rule_vars = [sub.var for sub in lhs_nodes if isinstance(sub, Suspension)]
    term_vars_seen = [sub.var for _, sub in subterms_with_positions(term) if isinstance(sub, Suspension)]
    c = sum(isinstance(sub, App) and sig.is_commutative(sub.sym) for sub in lhs_nodes)
    return c <= 1 and len(set(rule_vars)) == len(rule_vars) and len(set(term_vars_seen)) == len(term_vars_seen)


def _linear_narrowing_case(rng, prenex_system, ex22_system):
    """(system, term, fixpoint_depth, max_unifiers): prenex formulas,
    patterns and linear terms, or ex22 with up to two generated rules
    added, on fixed-point terms (not linear), random terms, linear terms
    with permuted suspensions and ground terms."""
    if rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.35:
            term = random_prenex_pattern(rng, 3)
        elif roll < 0.8:
            term = _linear_term(rng, prenex_system.signature, 3, _variable_supply("V"))
        else:
            term = random_prenex_formula(rng, 3)
        return prenex_system, term, 0, rng.randint(3, 40)
    sig = ex22_system.signature
    rules = ex22_system.rules + tuple(_generated_rule(rng, f"g{i}", sig) for i in range(rng.randint(0, 2)))
    system = RewriteSystem(rules, sig)
    roll = rng.random()
    if roll < 0.25:
        term = rng.choice(list(_fixpoint_terms(sig)))
    elif roll < 0.4:
        term = random_term(rng, sig, 3)
    elif roll < 0.85:
        term = _linear_term(rng, sig, 3, _variable_supply("V"))
    else:
        term = random_ground_term(rng, sig, 3)
    return system, term, rng.choice((1, 2)), rng.randint(3, 60)


def _search_or_none(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except SearchSpaceExceeded:
        return None


def _linear_unification_draw(rng, sig):
    """(rule, subject, delta): a generated linear rule, a linear subject
    mostly shaped like its left-hand side, and a random context on the
    subject's variables."""
    rule = _generated_rule(rng, "g", sig)
    sub = _linear_subject(rng, rule.lhs, sig) if rng.random() < 0.85 else _linear_term(rng, sig, 3, _variable_supply("V"))
    variables = tuple(sorted(term_vars(sub), key=lambda v: v.name)) or VARS
    return rule, sub, random_context(rng, variables=variables, size=3)


class TestLinearNodeWalk:
    def test_same_trees_and_exceptions_as_the_solver(self, prenex_system, ex22_system, monkeypatch):
        counts = collections.Counter()
        expanding, walked, solved = [], [], []  # the node being expanded; each walked and solved attempt
        expand, walk, solve_for = narrowing._expand_node, rewriting._linear_walk, rewriting.solve

        def recording_expand(node, system, *rest):
            expanding[:] = [node, system.signature]
            return expand(node, system, *rest)

        def recording_walk(delta, sub, rule, sig):
            node, _ = expanding
            walked.append((_walks(rule.lhs, sig, node.term), node))
            return walk(delta, sub, rule, sig)

        def recording_solve(delta, sub, nabla, lhs, **kwargs):
            node, sig = expanding
            solved.append(_walks(lhs, sig, node.term))
            return solve_for(delta, sub, nabla, lhs, **kwargs)

        monkeypatch.setattr(narrowing, "_expand_node", recording_expand)
        monkeypatch.setattr(rewriting, "_linear_walk", recording_walk)
        monkeypatch.setattr(rewriting, "solve", recording_solve)

        @settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rng = random.Random(seed)
            system, term, fixpoint_depth, max_unifiers = _linear_narrowing_case(rng, prenex_system, ex22_system)
            if rng.random() < 0.3:
                variables = tuple(sorted(term_vars(term), key=lambda v: v.name)) or VARS
                delta = random_context(rng, variables=variables)
            else:
                delta = frozenset()
            args = (delta, term, system, 2, fixpoint_depth, max_unifiers)
            max_states = DEFAULT_MAX_STATES
            if rng.random() < 0.8:
                max_states = rng.choice((0, 1, rng.randint(2, 60)))
            walked.clear()
            solved.clear()
            tree = _search_or_none(narrow_search, *args, max_states=max_states)
            reference = _search_or_none(reference_narrow_search, *args, max_states=max_states)
            where = (format_context(delta), str(term), max_states)
            # the walk runs wherever it can, and the solver only elsewhere
            assert all(walks for walks, _ in walked), where
            assert not any(solved), where
            counts["cases"] += 1
            counts["capped"] += max_states != DEFAULT_MAX_STATES
            counts["walks"] += len(walked)
            counts["open_walks"] += sum(bool(term_vars(node.term)) for _, node in walked)
            counts["context_walks"] += sum(bool(node.context) for _, node in walked)
            if reference is None:
                # the solver-only reference hit the cap: the scan hits it
                # too, or it walked past every attempt the cap cut short
                counts["exceeded"] += tree is None
                if tree is None:
                    return
                reference = reference_narrow_search(*args)
                counts["walked_past_the_cap"] += 1
            assert tree is not None, where
            assert _edge_records(tree, tree.accumulated()) == _edge_records(*reference), where
            counts["edges"] += len(tree.edges)
            counts["open_edges"] += sum(bool(e.step_subst.domain & term_vars(e.parent.term)) for e in tree.edges)
            counts["truncated"] += tree.truncation.nodes_truncated

        check()
        # some caps fire, some searches walk past a cap the reference hits,
        # some nodes are cut off, and walks bind subject variables under
        # contexts
        assert all(counts[k] for k in ("exceeded", "walked_past_the_cap", "truncated", "context_walks")), counts
        assert counts["capped"] >= 50 and counts["walks"] >= 500 and counts["open_walks"] >= 200, counts
        assert counts["open_edges"] >= 200, counts

    def test_walk_answers_are_the_solvers(self, ex22_system):
        counts = collections.Counter()
        sig = ex22_system.signature

        @settings(max_examples=600, derandomize=True, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rng = random.Random(seed)
            rule, sub, delta = _linear_unification_draw(rng, sig)
            got = rewriting._linear_walk(delta, sub, rule, sig)
            assert got == solve(delta, sub, rule.context, rule.lhs, sig=sig), (str(rule), str(sub), format_context(delta))
            problem = UnificationState(rule.context | delta, IDENTITY_SUBST, (EqualityGoal(rule.lhs, sub),))
            for solution in got:
                assert check_solution((solution.context, solution.subst), problem, sig)
            counts["answers"] += bool(got)
            counts["several"] += len(got) > 1
            counts["binds_subject"] += any(sol.subst.domain & term_vars(sub) for sol in got)
            counts["context"] += any(sol.context for sol in got)
            # a ground instance of the subject under a non-empty context on
            # variables the rule lacks: every answer keeps that context as it is
            grounding = {v: random_ground_term(rng, sig, 2) for v in sorted(term_vars(sub), key=lambda v: v.name)}
            ground = apply_subst(Substitution(grounding), sub)
            ground_delta = random_context(rng, size=3) | {FreshnessConstraint(rng.choice(ATOMS), rng.choice(VARS))}
            where = (str(rule), str(ground), format_context(ground_delta))
            ground_got = rewriting._linear_walk(ground_delta, ground, rule, sig)
            assert ground_got == solve(ground_delta, ground, rule.context, rule.lhs, sig=sig), where
            assert all(sol.context == ground_delta for sol in ground_got), where
            counts["ground_answers"] += bool(ground_got)

        check()
        assert counts["answers"] >= 100 and all(counts[k] for k in ("several", "binds_subject", "context")), counts
        assert counts["ground_answers"] >= 100, counts

    def test_solver_runs_only_where_the_cap_could_fire(self, prenex_system, monkeypatch):
        # The cap counts the solver's states, and the solver runs only where
        # no walk can: here, where a variable occurs twice.
        sig = prenex_system.signature
        assert {"and_forall", "not_forall"} <= prenex_system._walkable
        cases = {
            ("and(b, forall([a]c))", ""): (["forall([a]and(b, c))"], 0),
            ("not(forall([a]X))", "b#X"): (["exists([a]not(X))"], 0),
            ("and(X, forall([a]X))", ""): (
                [
                    "forall([a]and(X, X))",
                    "forall([a]and(forall([a]forall([a]Q0)), Q0))",
                    "exists([a]and(forall([a]exists([a]Q1)), Q1))",
                ],
                2,
            ),
        }
        calls = collections.Counter()
        solve_for = unify.solve

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve_for(*args, **kwargs)

        monkeypatch.setattr(rewriting, "solve", counting_solve)
        for (text, context), (children, solver_calls) in cases.items():
            term, delta = parse_term(text, sig), parse_context(context, sig)
            # a cap of 0 lets no solver call through, so only a search that
            # walks everywhere gets by it
            max_states = DEFAULT_MAX_STATES if solver_calls else 0
            calls.clear()
            tree = narrow_search(delta, term, prenex_system, 1, 0, 10, max_states=max_states)
            assert ([str(e.child.term) for e in tree.edges], calls["solve"]) == (children, solver_calls), text
            reference = reference_narrow_search(delta, term, prenex_system, 1, 0, 10)
            assert _edge_records(tree, tree.accumulated()) == _edge_records(*reference), text
            if solver_calls:
                with pytest.raises(SearchSpaceExceeded):
                    narrow_search(delta, term, prenex_system, 1, 0, 10, max_states=0)


@functools.cache
def _small_prenex_patterns(size, used=0):
    """(pattern, variables used) for every linear prenex pattern of `size`
    nodes, a quantifier and its binder counting as one, whose variables
    follow the first `used`: each leaf is a, b or the next fresh variable,
    each binder a or b."""
    if size == 1:
        return ((a, used), (b, used), (Suspension(IDENTITY, Var(f"X{used + 1}")), used + 1))
    out = []
    for body, n in _small_prenex_patterns(size - 1, used):
        out.append((App("not", (body,)), n))
        out += [(App(q, (Abstraction(x, body),)), n) for q in ("forall", "exists") for x in (a, b)]
    for left_size in range(1, size - 1):
        for left, k in _small_prenex_patterns(left_size, used):
            for right, n in _small_prenex_patterns(size - 1 - left_size, k):
                out += [(App(op, (left, right)), n) for op in ("and", "or")]
    return tuple(out)


class TestSmallPrenexPatterns:
    """Every non-ground linear prenex pattern up to five nodes, narrowed one
    step: the edges the solver gives at every attempt, each of them sound."""

    def test_same_edges_as_the_solver_and_each_sound(self, prenex_system):
        sig = prenex_system.signature
        patterns, edges = {}, {}
        for size in range(1, 6):
            terms = [term for term, used in _small_prenex_patterns(size) if used]
            patterns[size], edges[size] = len(terms), 0
            for term in terms:
                tree = narrow_search(frozenset(), term, prenex_system, 1, 0, 50)
                reference = reference_narrow_search(frozenset(), term, prenex_system, 1, 0, 50)
                assert _edge_records(tree, tree.accumulated()) == _edge_records(*reference), str(term)
                for edge in tree.edges:
                    assert narrowing_to_rewriting(edge, tree.root, sig=sig), (str(term), str(edge))
                edges[size] += len(tree.edges)
        assert patterns == {1: 1, 2: 5, 3: 35, 4: 275, 5: 2277}
        assert edges == {1: 0, 2: 2, 3: 38, 4: 434, 5: 4462}


class TestStateCap:
    """`max_states` caps the solver's states, and the linear walk takes
    none: a scan that walks at every attempt gives at a cap of 0 what it
    gives at the default cap, and a rule the walk cannot take still raises
    there."""

    def test_walk_only_scans_give_the_default_cap_answer_at_cap_zero(self, prenex_system):
        sig = prenex_system.signature
        rng = random.Random(53)
        rewrote = 0
        for _ in range(150):
            formula = random_prenex_formula(rng, 4)
            nf, trace = normalize(frozenset(), formula, prenex_system, 50, max_states=0)
            assert (nf, trace) == normalize(frozenset(), formula, prenex_system, 50), str(formula)
            rewrote += bool(trace)
        edges = 0
        for size in range(1, 5):
            for term, _ in _small_prenex_patterns(size):
                tree = narrow_search(frozenset(), term, prenex_system, 2, 0, 50, max_states=0)
                reference = narrow_search(frozenset(), term, prenex_system, 2, 0, 50)
                records = _edge_records(tree, tree.accumulated())
                assert records == _edge_records(reference, reference.accumulated()), str(term)
                edges += len(tree.edges)
        assert rewrote >= 50 and edges >= 500, (rewrote, edges)
        # two commutative nodes: the solver runs, and the cap stops it
        pair_sig = Signature({"k": (2, False), "f": (2, True), "o": (2, True), "e": (0, False)})
        rule = RewriteRule("r", frozenset(), parse_term("k(o(X0, X1), f(X2, X3))", pair_sig), parse_term("e", pair_sig))
        system = RewriteSystem((rule,), pair_sig)
        assert system._walkable == frozenset()
        for text in ("k(o(a, b), f(c, d))", "k(o(Y0, b), f(c, Y1))"):
            term = parse_term(text, pair_sig)
            assert narrow_search(frozenset(), term, system, 1, 0, 10).edges
            with pytest.raises(SearchSpaceExceeded):
                narrow_search(frozenset(), term, system, 1, 0, 10, max_states=0)
        ground = parse_term("k(o(a, b), f(c, d))", pair_sig)
        assert normalize(frozenset(), ground, system, 10)[1]
        with pytest.raises(SearchSpaceExceeded):
            normalize(frozenset(), ground, system, 10, max_states=0)


# A signature with constants, which no bundled system declares, over
# generated rules.
CONSTANT_SIG = Signature({"zero": (0, False), "one": (0, False), "g": (1, False), "f": (2, True)})


def _constant_rule(rng, name):
    """A rule over CONSTANT_SIG: a random left-hand side other than a bare
    variable, a right-hand side over its variables and a random context on
    them."""
    lhs = random_term(rng, CONSTANT_SIG, rng.randint(1, 3))
    while isinstance(lhs, Suspension):
        lhs = random_term(rng, CONSTANT_SIG, rng.randint(1, 3))
    variables = tuple(sorted(term_vars(lhs), key=lambda v: v.name))
    if variables:
        rhs = random_term(rng, CONSTANT_SIG, 2, variables=variables)
    else:
        rhs = random_ground_term(rng, CONSTANT_SIG, 2)
    size = rng.randint(0, 2) if variables else 0
    context = frozenset(FreshnessConstraint(rng.choice(ATOMS), rng.choice(variables)) for _ in range(size))
    return RewriteRule(name, context, lhs, rhs)


def _reference_candidate_steps(delta, term, system, max_states):
    """`rewriting._candidate_steps` over `reference_redexes`, with the
    matcher filter at every site and rules renamed as that scan renames
    them."""
    avoid = term_vars(term) | {c.var for c in delta}

    def prepare(rule, _):
        if not avoid:
            return system._fresh_rules[rule.name]
        return rewriting.renamed_rule(rule, NameSupply(avoid).draw(rule.renaming_bases))

    attempt = functools.partial(rewriting._verified_matchers, delta, sig=system.signature, max_states=max_states)
    for pos, rule, answers in reference_redexes(delta, term, system, prepare, attempt, unify=False):
        for answer in answers:
            result = replace_at(term, pos.path, apply_subst(answer.subst, rule.rhs))
            yield RewriteStep(rule.name, pos, answer.subst, result, rule)


def _steps_or_none(steps):
    try:
        return [(s.rule, s.position, s.subst, s.result, s.rule_instance) for s in steps]
    except SearchSpaceExceeded:
        return None


class TestConstants:
    """Generated systems over a signature with constants: the redex scan and
    narrowing answer as their references do, and the class oracle raises
    nothing but its bound."""

    def test_same_steps_and_trees_as_the_references(self):
        counts = collections.Counter()
        max_states = 2_000

        @settings(max_examples=500, derandomize=True, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rng = random.Random(seed)
            rules = tuple(_constant_rule(rng, f"r{i}") for i in range(rng.randint(1, 3)))
            system = RewriteSystem(rules, CONSTANT_SIG)
            grounding = Substitution({v: random_ground_term(rng, CONSTANT_SIG, 2) for v in VARS})
            lhs = rng.choice(rules).lhs
            if rng.random() < 0.5:
                term = apply_subst(grounding, lhs) if rng.random() < 0.5 else lhs
            else:
                term = random_term(rng, CONSTANT_SIG, 3)
            delta = random_context(rng, size=2) if rng.random() < 0.3 else frozenset()
            where = ([str(rule) for rule in rules], str(term), format_context(delta))
            steps = _steps_or_none(rewriting._candidate_steps(delta, term, system, max_states))
            assert steps == _steps_or_none(_reference_candidate_steps(delta, term, system, max_states)), where
            args = (delta, term, system, 2, 1, 20)
            tree = _search_or_none(narrow_search, *args, max_states=max_states)
            reference = _search_or_none(reference_narrow_search, *args, max_states=max_states)
            assert (tree is None) == (reference is None), where
            if tree is not None:
                assert _edge_records(tree, tree.accumulated()) == _edge_records(*reference), where
            ground = apply_subst(grounding, term)
            try:
                results = r_over_e_one_step(ground, system, max_states=max_states)
            except SearchSpaceExceeded:
                counts["oracle_exceeded"] += 1
            else:
                counts["oracle_results"] += bool(results)
            counts["steps"] += bool(steps)
            counts["edges"] += bool(tree and tree.edges)
            lhs_nodes = [sub for rule in rules for _, sub in subterms_with_positions(rule.lhs)]
            counts["constant_lhs"] += any(isinstance(sub, App) and not sub.args for sub in lhs_nodes)

        check()
        assert all(counts[k] >= 100 for k in ("steps", "edges", "oracle_results", "constant_lhs")), counts
