"""Narrowing trees, their bounds, and the lifting correspondence."""

import random

import pytest

from nomc import (
    Atom,
    IDENTITY_SUBST,
    NarrowingNode,
    NotFound,
    PRECONDITION_FAIL,
    Substitution,
    Var,
    derive_alpha_c,
    format_context,
    lifting_backward_construct,
    lifting_forward_check,
    narrow_search,
    narrowing_to_rewriting,
    normalize,
    one_step_narrowings,
    parse_context,
    parse_substitution,
    parse_term,
)
from conftest import random_prenex_formula, random_prenex_pattern

a, b = Atom("a"), Atom("b")
X, Z = Var("X"), Var("Z")


def _children(tree, node):
    return [e for e in tree.edges if e.parent is node]


class TestOneStepNarrowing:
    def test_collapsing_rule_first(self, ex22_system):
        sig = ex22_system.signature
        root = NarrowingNode(frozenset(), parse_term("h(fC([b][a]X, X))", sig), IDENTITY_SUBST, 0)
        steps = one_step_narrowings(root, ex22_system, 0, 50)
        first = steps[0]
        assert first.rule == "collapse"
        assert first.child.term == parse_term("fC([b][a]X, X)", sig)
        (bound_var,) = first.step_subst.domain
        assert first.step_subst.get(bound_var) == parse_term("fC([b][a]X, X)", sig)

    def test_fixpoint_branches_flagged(self, ex22_system):
        sig = ex22_system.signature
        root = NarrowingNode(frozenset(), parse_term("fC([b][a]X, X)", sig), IDENTITY_SUBST, 0)
        steps = one_step_narrowings(root, ex22_system, 2, 50)
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
        root = NarrowingNode(frozenset(), term, IDENTITY_SUBST, 0)
        first, second = one_step_narrowings(root, prenex_system, 1, 50)
        assert (str(first.position), str(second.position)) == ("0", "1")
        assert a not in first.rule_instance.atoms() and a not in second.rule_instance.atoms()
        assert not first.rule_instance.variables() & second.rule_instance.variables()
        assert narrowing_to_rewriting(first, root, sig=sig)
        assert narrowing_to_rewriting(second, root, sig=sig)

    def test_no_rule_applies(self, ex22_system):
        root = NarrowingNode(frozenset(), a, IDENTITY_SUBST, 0)
        assert one_step_narrowings(root, ex22_system, 1, 10) == ()

    def test_variable_positions_skipped(self, ex22_system):
        sig = ex22_system.signature
        root = NarrowingNode(frozenset(), parse_term("h(Y)", sig), IDENTITY_SUBST, 0)
        steps = one_step_narrowings(root, ex22_system, 0, 50)
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
    def test_steps_solve_their_premise_problems(self, ex22_system, prenex_system):
        from nomc import (
            EqualityGoal,
            UnificationState,
            check_solution,
            subterm_at,
        )

        cases = (
            (ex22_system, "h(fC([b][a]X, X))", 2, 2),
            (prenex_system, "and(P1, not(forall([b]Q1)))", 2, 0),
        )
        for system, text, depth, fixpoint_depth in cases:
            sig = system.signature
            tree = narrow_search(
                frozenset(), parse_term(text, sig), system, depth, fixpoint_depth, 20
            )
            assert tree.edges
            for edge in tree.edges:
                sub = subterm_at(edge.parent.term, edge.position.path)
                problem = UnificationState(
                    edge.parent.context | edge.rule_instance.context,
                    IDENTITY_SUBST,
                    (EqualityGoal(edge.rule_instance.lhs, sub),),
                )
                assert check_solution(
                    (edge.child.context, edge.step_subst), problem, sig
                )


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

    def test_round_trip_on_random_instances(self, prenex_system):
        rng = random.Random(32)
        sig = prenex_system.signature
        done = 0
        while done < 25:
            pattern = random_prenex_pattern(rng, 3)
            from nomc import term_vars

            mapping = {}
            for var in term_vars(pattern):
                image = random_prenex_formula(rng, 2)
                image, _ = normalize(frozenset(), image, prenex_system, 20)
                mapping[var] = image
            rho0 = Substitution(mapping)
            start = rho0.apply(pattern)
            _, trace = normalize(frozenset(), start, prenex_system, 30)
            out = lifting_backward_construct(
                frozenset(), pattern, rho0, frozenset(), trace, 1, prenex_system
            )
            assert not isinstance(out, NotFound), (str(pattern), str(rho0))
            steps, residue = out
            assert lifting_forward_check(steps, residue, frozenset(), sig) is True
            done += 1
