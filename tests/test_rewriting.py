"""Rewriting steps, normalisation, the ground class oracle, and coherence."""

import collections
import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    Permutation,
    REJECTED,
    RewriteRule,
    RewriteStep,
    RewriteSystem,
    SearchSpaceExceeded,
    Signature,
    StepLimitExceeded,
    Substitution,
    Suspension,
    Var,
    WITNESSED,
    alpha_variants,
    apply_subst,
    c_class_enumerate,
    coherence_check,
    commutative_variants,
    derive_alpha,
    derive_alpha_c,
    free_atoms,
    fresh_atom,
    is_ground,
    lifting_backward_construct,
    narrow_search,
    normal_form_equal_check,
    normalize,
    one_step_rewrites,
    parse_context,
    parse_substitution,
    parse_system,
    parse_term,
    permute_term,
    primary_rewrite_steps,
    r_over_e_one_step,
    replace_at,
    solve,
    subterm_at,
    term_atoms,
    term_vars,
    verify_rewrite_step,
)
import nomc
from nomc import rewriting
from nomc.alpha import EMPTY_CONTEXT, alpha_key, satisfies_with
from nomc.cli import load_system_file
from nomc.rewriting import (
    clash_permutation,
    permute_rule,
)
from nomc.terms import NameSupply, subterms_with_positions
from nomc.unify import DEFAULT_MAX_STATES
from conftest import (
    ATOMS,
    equivalent_variant,
    lhs_fits,
    random_context,
    random_ground_term,
    random_permutation,
    random_prenex_formula,
    random_prenex_pattern,
    random_term,
    reference_dedup_steps,
    reference_redexes,
    reference_skeleton_fits,
    rename_rule_with_map,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X = Var("X")
CSIG = Signature({"oplus": (2, True), "g": (1, False)})


class TestRuleValidation:
    def test_loose_rhs_variable_rejected(self):
        with pytest.raises(ValueError):
            RewriteRule("bad", frozenset(), parse_term("g(a)"), Suspension(IDENTITY, X))

    def test_bare_variable_lhs_rejected(self):
        with pytest.raises(ValueError):
            RewriteRule("bad", frozenset(), Suspension(IDENTITY, X), a)

    def test_loose_context_variable_rejected(self):
        with pytest.raises(ValueError, match="not bound by the left-hand side: Y"):
            RewriteRule("bad", parse_context("a#Y"), parse_term("g(X)"), Suspension(IDENTITY, X))

    def test_renamed_and_shifted_copies_equal_checked_rules(self):
        # The copies skip the constructor's checks; each must be the rule
        # that RewriteRule(...) builds from the same parts.
        rng = random.Random(14)
        rules = [rule for name in ("prenex", "ex22", "lambda") for rule in load_system_file(name).system.rules]
        for rule, _ in itertools.product(rules, range(5)):
            avoid = frozenset(rng.sample([Var(n) for n in ("X", "X0", "Y", "Z1", "P1", "Q")], rng.randint(0, 4)))
            renamed, _ = rename_rule_with_map(rule, avoid)
            subject_atoms = frozenset(rng.sample([Atom(n) for n in ("a", "b", "c", "n0")], rng.randint(1, 3)))
            shift = clash_permutation(renamed, subject_atoms, subject_atoms) or random_permutation(rng)
            for copy in (renamed, permute_rule(renamed, shift)):
                checked = RewriteRule(copy.name, copy.context, copy.lhs, copy.rhs)
                assert copy == checked and hash(copy) == hash(checked)
                assert copy.atoms() == checked.atoms()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: RewriteSystem(s.rules + s.rules[:1], s.signature), "duplicate rule name and_forall"),
        (
            lambda s: r_over_e_one_step(parse_term("not(X)", s.signature), s),
            "the class-rewriting oracle is only defined on ground terms",
        ),
        (
            lambda s: normal_form_equal_check(EMPTY_CONTEXT, parse_term("not(X)", s.signature), s, 10),
            "normal form comparison is only defined on ground terms",
        ),
    ],
    ids=["duplicate_rule_name", "class_oracle_non_ground", "normal_form_check_non_ground"],
)
def test_input_checks_name_the_fault(prenex_system, call, message):
    with pytest.raises(ValueError) as err:
        call(prenex_system)
    assert str(err.value) == message


class TestOneStep:
    def test_prenex_example_containment_and_count(self, prenex_system):
        sig = prenex_system.signature
        ctx = parse_context("a#P1")
        term = parse_term("or(S1, or(exists([a]Q1), P1))", sig)
        steps = one_step_rewrites(ctx, term, prenex_system)
        results = [s.result for s in steps]
        assert parse_term("or(S1, exists([a]or(P1, Q1)))", sig) in results
        or_exists = [s for s in steps if s.rule == "or_exists"]
        assert len(or_exists) >= 4
        for first in or_exists:
            for second in or_exists:
                assert derive_alpha_c(ctx, first.result, second.result, sig)

    def test_normal_form_has_no_steps(self, prenex_system):
        assert one_step_rewrites(frozenset(), a, prenex_system) == ()

    def test_steps_replay(self, prenex_system):
        sig = prenex_system.signature
        ctx = parse_context("a#P1")
        term = parse_term("or(S1, or(exists([a]Q1), P1))", sig)
        for step in one_step_rewrites(ctx, term, prenex_system):
            assert verify_rewrite_step(ctx, term, step, sig)

    def test_step_soundness_on_random_formulas(self, prenex_system):
        rng = random.Random(21)
        sig = prenex_system.signature
        for _ in range(60):
            term = random_prenex_formula(rng, 4)
            for step in one_step_rewrites(frozenset(), term, prenex_system):
                assert verify_rewrite_step(frozenset(), term, step, sig)


class TestVerifiedMatchers:
    def test_answer_outside_delta_whose_premises_hold_is_kept(self):
        # The second answer carries a#X, which delta lacks, yet the other
        # pairing of fC proves the premises under delta: filtering answers
        # by `sol.context <= delta` would drop a valid step.
        sig = Signature({"fC": (2, True)})
        lhs = parse_term("[a]fC([c](d c)(d a).Q, [a](d c).Q)", sig)
        rule = RewriteRule("r", frozenset(), lhs, lhs)
        sub = parse_term("[a]fC([c](d c)(d a)(d a).X, [a](d c)(d a).X)", sig)
        delta = parse_context("a#Z, d#Y")
        answers = nomc.match(rule.context, rule.lhs, delta, sub, sig=sig)
        assert [sol.context <= delta for sol in answers] == [True, False]
        assert str(answers[1].subst) == "[Q -> (d a)(d c)(c a)(d c)(d a).X]"
        kept = rewriting._verified_matchers(delta, sub, rule, sig, DEFAULT_MAX_STATES)
        assert kept == [sol.subst for sol in answers]


# Two commutative symbols, so a generated left-hand side can have none, one
# or two commutative nodes.
WALK_SIG = Signature({"f": (2, True), "o": (2, True), "k": (2, False), "g": (1, False), "e": (0, False)})


def _random_pattern(rng, depth, next_var):
    """A random term schema over WALK_SIG: binders, atoms, and suspensions
    with random permutations of the variables `next_var()` names."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.7:
            return Suspension(random_permutation(rng), next_var())
        return rng.choice(ATOMS[:3])
    if roll < 0.45:
        return Abstraction(rng.choice(ATOMS[:3]), _random_pattern(rng, depth - 1, next_var))
    sym = rng.choice(("f", "o", "f", "o", "k", "g", "e"))
    return App(sym, tuple(_random_pattern(rng, depth - 1, next_var) for _ in range(WALK_SIG.arity(sym))))


def _walk_shape(rule):
    """(linear, n, c, a, f) of a rule, counted here and not by the library:
    whether no variable occurs twice in its left-hand side, that side's
    nodes, commutative nodes and abstractions, and its context's size."""
    nodes = [sub for _, sub in subterms_with_positions(rule.lhs)]
    names = [sub.var.name for sub in nodes if isinstance(sub, Suspension)]
    commutative = sum(isinstance(sub, App) and WALK_SIG.is_commutative(sub.sym) for sub in nodes)
    abstractions = sum(isinstance(sub, Abstraction) for sub in nodes)
    return len(set(names)) == len(names), len(nodes), commutative, abstractions, len(rule.context)


def _walk_bound(rule, size):
    """U = 2^c (n + (a + f) |T| + 1) for a subject of `size` nodes."""
    _, n, c, a, f = _walk_shape(rule)
    return 2**c * (n + (a + f) * size + 1)


def _walk_draw(rng):
    """A rule over WALK_SIG, linear or not, with at most two commutative
    nodes and a random freshness context; and a ground subject, mostly an
    instance of its left-hand side, rearranged and alpha-renamed."""
    linear = rng.random() < 0.6
    while True:
        counter = itertools.count()
        next_var = (lambda: Var(f"X{next(counter)}")) if linear else (lambda: X)
        lhs = _random_pattern(rng, rng.randint(1, 3), next_var)
        if isinstance(lhs, Suspension):
            lhs = App("g", (lhs,))
        if sum(isinstance(sub, App) and WALK_SIG.is_commutative(sub.sym) for _, sub in subterms_with_positions(lhs)) <= 2:
            break
    variables = sorted(term_vars(lhs), key=lambda v: v.name)
    context = frozenset(
        nomc.FreshnessConstraint(rng.choice(ATOMS[:3]), rng.choice(variables))
        for _ in range(rng.randint(0, 2) if variables else 0)
    )
    rule = RewriteRule("r", context, lhs, lhs)
    if rng.random() < 0.75:
        theta = Substitution({v: random_ground_term(rng, WALK_SIG, 2, ATOMS[:3]) for v in variables})
        sub = apply_subst(theta, lhs)
        if rng.random() < 0.6:
            sub = equivalent_variant(rng, EMPTY_CONTEXT, sub, WALK_SIG)
    else:
        sub = random_ground_term(rng, WALK_SIG, 3, ATOMS[:3])
    return rule, sub


def _solver_answers(rule, sub, max_states):
    """`match` followed by `premises_hold`, or "exceeded"."""
    try:
        solutions = nomc.match(rule.context, rule.lhs, EMPTY_CONTEXT, sub, sig=WALK_SIG, max_states=max_states)
    except SearchSpaceExceeded:
        return "exceeded"
    return [sol.subst for sol in solutions if rewriting.premises_hold(EMPTY_CONTEXT, sub, rule, sol.subst, WALK_SIG)]


class TestGroundMatchWalk:
    """On a ground subject under the empty context, a linear left-hand side
    with at most one commutative node is matched by one walk over it,
    wherever the solver's states are bounded by the state cap; the answers
    are the solver's, in its order."""

    def test_same_answers_in_the_same_order_as_the_solver(self):
        counts = collections.Counter()

        @settings(max_examples=400, deadline=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rng = random.Random(seed)
            rule, sub = _walk_draw(rng)
            linear, _, c, _, _ = _walk_shape(rule)
            eligible = linear and c <= 1
            size = sum(1 for _ in subterms_with_positions(sub))
            cost = RewriteSystem((rule,), WALK_SIG)._walk_costs.get(rule.name)
            assert (cost is not None) == eligible
            bound = cost and cost[0] + cost[1] * size
            if eligible:
                assert bound == _walk_bound(rule, size)
            max_states = DEFAULT_MAX_STATES
            if rng.random() < 0.25:
                max_states = rng.randint(1, 2 * (bound or 40))
            with mock.patch.object(rewriting, "match", wraps=rewriting.match) as spy:
                try:
                    got = rewriting._verified_matchers(EMPTY_CONTEXT, sub, rule, WALK_SIG, max_states, bound)
                except SearchSpaceExceeded:
                    got = "exceeded"
            walked = not spy.called
            assert walked == (eligible and bound <= max_states)
            assert got == _solver_answers(rule, sub, max_states), (str(rule), str(sub))
            counts["eligible"] += eligible
            counts["walked"] += walked
            counts["several"] += walked and len(got) > 1
            counts["none"] += walked and not got

        check()
        assert counts["walked"] > counts["eligible"] / 2, counts
        assert counts["several"] and counts["none"], counts

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_the_solver_stays_within_the_bound(self, seed):
        rule, sub = _walk_draw(random.Random(seed))
        linear, _, c, _, _ = _walk_shape(rule)
        if not (linear and c <= 1):
            reject()
        size = sum(1 for _ in subterms_with_positions(sub))
        nomc.match(rule.context, rule.lhs, EMPTY_CONTEXT, sub, sig=WALK_SIG, max_states=_walk_bound(rule, size))

    def test_every_walk_answer_instantiates_to_the_subject(self):
        # `_verified_matchers` keeps a walk answer on the rule's freshness
        # context alone: the =ac half of `premises_hold` holds by construction.
        counts = collections.Counter()

        @settings(max_examples=400, derandomize=True, deadline=None, database=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rule, sub = _walk_draw(random.Random(seed))
            linear, _, c, _, _ = _walk_shape(rule)
            if not (linear and c <= 1):
                reject()
            for theta, fresh in rewriting._linear_walk(rule.lhs, sub, WALK_SIG):
                assert not fresh  # a ground subject leaves no constraint
                instance = apply_subst(theta, rule.lhs)
                assert derive_alpha_c(EMPTY_CONTEXT, sub, instance, WALK_SIG), (str(rule), str(sub), str(theta))
                counts["answers"] += 1
                counts["fails_context"] += not satisfies_with(rule.context, theta, EMPTY_CONTEXT)

        check()
        assert counts["answers"] >= 100 and counts["fails_context"], counts

    def test_the_walk_is_taken_up_to_the_bound_and_no_further(self):
        # One commutative node, one binder, one constraint; the redex sits
        # below the root, so the bound counts the whole term's nodes.
        rule = RewriteRule("r", parse_context("b#X"), parse_term("k([a]X, f(Y, e))", WALK_SIG), parse_term("g(Y)", WALK_SIG))
        system = RewriteSystem((rule,), WALK_SIG)
        term = parse_term("g(k([b]g(c), f(e, c)))", WALK_SIG)
        bound = 2 * (6 + (1 + 1) * 8 + 1)
        assert _walk_bound(rule, 8) == bound
        results = {}
        for max_states in (bound, bound - 1):
            with mock.patch.object(rewriting, "match", wraps=rewriting.match) as spy:
                steps = primary_rewrite_steps(EMPTY_CONTEXT, term, system, max_states=max_states)
            results[max_states] = [str(step.result) for step in steps], spy.call_count
        assert results == {bound: (["g(g(c))"], 0), bound - 1: (["g(g(c))"], 1)}

    def test_two_commutative_nodes_keep_the_solver(self):
        # The walk's order would differ here: the solver splits at o, then f.
        rule = RewriteRule("r", frozenset(), parse_term("k(o(X0, X1), f(X2, X3))", WALK_SIG), parse_term("e", WALK_SIG))
        system = RewriteSystem((rule,), WALK_SIG)
        assert "r" not in system._walk_costs
        term = parse_term("k(o(a, b), f(c, d))", WALK_SIG)
        with mock.patch.object(rewriting, "match", wraps=rewriting.match) as spy:
            assert len(primary_rewrite_steps(EMPTY_CONTEXT, term, system)) == 1
        assert spy.call_count == 1


class TestNormalize:
    def test_negation_push(self, prenex_system):
        sig = prenex_system.signature
        nf, trace = normalize(
            frozenset(), parse_term("not(forall([a]Q1))", sig), prenex_system, 10
        )
        assert len(trace) == 1
        assert nf == App("exists", (Abstraction(a, App("not", (Suspension(IDENTITY, Var("Q1")),))),))

    def test_two_step_ground_instance(self, prenex_system):
        sig = prenex_system.signature
        delta = parse_context("a#R")
        start = parse_term("and(R, not(forall([b]forall([a]R))))", sig)
        nf, trace = normalize(delta, start, prenex_system, 10)
        assert len(trace) == 2
        shifted = permute_term(Permutation(((a, b),)), parse_term("forall([a]R)", sig))
        want = App(
            "exists",
            (Abstraction(a, App("and", (Suspension(IDENTITY, Var("R")), App("not", (shifted,))))),),
        )
        assert derive_alpha_c(delta, nf, want, sig)

    def test_zero_steps_on_normal_form(self, prenex_system):
        nf, trace = normalize(frozenset(), a, prenex_system, 5)
        assert nf == a and trace == ()

    def test_step_limit(self):
        sig = Signature({"f": (1, False)})
        system = RewriteSystem(
            (RewriteRule("spin", frozenset(), parse_term("f(X)", sig), parse_term("f(X)", sig)),),
            sig,
        )
        with pytest.raises(StepLimitExceeded):
            normalize(frozenset(), parse_term("f(a)", sig), system, 5)

    def test_alpha_variants_normalize_alike(self, prenex_system):
        rng = random.Random(22)
        sig = prenex_system.signature
        for _ in range(40):
            term = random_prenex_formula(rng, 4)
            variant = equivalent_variant(rng, frozenset(), term, sig)
            nf1, _ = normalize(frozenset(), term, prenex_system, 12)
            nf2, _ = normalize(frozenset(), variant, prenex_system, 12)
            assert derive_alpha_c(frozenset(), nf1, nf2, sig)


class TestClassEnumeration:
    def test_single_commutative_node(self):
        pair = App("oplus", (a, b))
        assert set(c_class_enumerate(pair, CSIG)) == {pair, App("oplus", (b, a))}

    def test_symmetric_term_collapses(self):
        pair = App("oplus", (a, b))
        square = App("oplus", (pair, pair))
        # three commutative nodes give at most eight variants; the equal
        # subtrees collapse the root swap, leaving four distinct terms.
        assert len(c_class_enumerate(square, CSIG)) == 4

    def test_asymmetric_term_full_size(self):
        term = App("oplus", (App("oplus", (a, b)), App("oplus", (a, c))))
        assert len(c_class_enumerate(term, CSIG)) == 8

    def test_non_commutative_singleton(self):
        assert c_class_enumerate(App("g", (a,)), CSIG) == (App("g", (a,)),)

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            c_class_enumerate(Suspension(IDENTITY, X), CSIG)


class TestCanonicalAlpha:
    """The plain `alpha_key` is exact on ground terms: equal keys mean
    alpha-equal."""

    def test_equal_iff_alpha_equal(self):
        rng = random.Random(23)
        from conftest import random_ground_term

        for _ in range(150):
            s = random_ground_term(rng, CSIG, 3)
            t = random_ground_term(rng, CSIG, 3)
            assert (alpha_key(s) == alpha_key(t)) == derive_alpha(frozenset(), s, t)

    def test_variants_share_canonical_form(self):
        s = Abstraction(a, App("oplus", (a, b)))
        t = Abstraction(c, App("oplus", (c, b)))
        assert alpha_key(s) == alpha_key(t)


class TestGroundOracle:
    def test_single_redex(self, prenex_system):
        sig = prenex_system.signature
        term = parse_term("not(forall([a]b))", sig)
        results = r_over_e_one_step(term, prenex_system)
        assert len(results) == 1
        assert derive_alpha_c(
            frozenset(), results[0], parse_term("exists([a]not(b))", sig), sig
        )

    def test_normal_form_empty(self, prenex_system):
        assert r_over_e_one_step(a, prenex_system) == ()

    def test_contains_matching_route_results(self, prenex_system):
        rng = random.Random(24)
        sig = prenex_system.signature
        for _ in range(25):
            term = random_prenex_formula(rng, 3)
            class_results = r_over_e_one_step(term, prenex_system)
            for step in one_step_rewrites(frozenset(), term, prenex_system):
                assert any(
                    derive_alpha_c(frozenset(), step.result, u, sig)
                    for u in class_results
                ), (str(term), str(step.result))

    def test_alpha_variants_cover_binder_renamings(self):
        term = Abstraction(a, b)
        pool = {a, b, c}
        variants = alpha_variants(term, pool)
        assert Abstraction(c, b) in variants
        assert all(derive_alpha(frozenset(), term, v) for v in variants)


class TestNormalFormAgreement:
    def test_ground_normal_form_trivial(self, prenex_system):
        assert normal_form_equal_check(frozenset(), a, prenex_system, 5)

    def test_single_step(self, prenex_system):
        term = parse_term("not(forall([a]b))", prenex_system.signature)
        assert normal_form_equal_check(frozenset(), term, prenex_system, 5)

    def test_random_samples(self, prenex_system):
        rng = random.Random(25)
        for _ in range(30):
            term = random_prenex_formula(rng, 4)
            assert normal_form_equal_check(frozenset(), term, prenex_system, 10)


class TestCoherence:
    def test_reflexive_sample(self, prenex_system):
        term = parse_term("not(forall([a]b))", prenex_system.signature)
        (verdict,) = coherence_check(prenex_system, [(frozenset(), term, term)], 3)
        assert verdict.status == WITNESSED

    def test_commuted_negation(self, prenex_system):
        sig = prenex_system.signature
        t1 = parse_term("or(not(forall([a]Q1)), P1)", sig)
        t2 = parse_term("or(P1, not(forall([a]Q1)))", sig)
        (verdict,) = coherence_check(prenex_system, [(frozenset(), t1, t2)], 3)
        assert verdict.status == WITNESSED

    def test_empty_samples(self, prenex_system):
        assert coherence_check(prenex_system, [], 3) == ()

    def test_unrelated_sample_rejected(self, prenex_system):
        (verdict,) = coherence_check(prenex_system, [(frozenset(), a, b)], 3)
        assert verdict.status == REJECTED


def _step_fields(steps):
    return [(s.rule, s.position, s.subst, s.result, s.rule_instance) for s in steps]


def _normalize_outcome(ctx, term, system):
    try:
        nf, trace = normalize(ctx, term, system, 6)
    except StepLimitExceeded as exc:
        return "limit", exc.term, _step_fields(exc.trace)
    return "nf", nf, _step_fields(trace)


class TestPreparedRules:
    """A shared system's renamed rules, from its table or built at a site,
    may not change a step."""

    # Ground, then non-ground (variables named like the rules' own), then
    # ground again, so a reused system must follow the avoid set.
    TERMS = {
        "prenex": (
            "or(not(forall([a]b)), and(a, exists([b]c)))",
            "or(P, exists([a]and(Q, not(forall([b]P0)))))",
            "and(c, forall([a]or(b, exists([b]a))))",
            "not(forall([a]and(Q1, exists([b]Q))))",
            "or(and(a, forall([b]c)), and(a, forall([c]d)))",
        ),
        "ex22": (
            "h(fC([a][b]c, c))",
            "h(fC([b][a]X, X))",
            "fC([a][b]h(a), h(a))",
            "h(fC([a][b]Z, Z))",
            "h(h(b))",
        ),
        "lambda": ("lam([a]app(a, b))", "lam([a]app(a, X))", "app(a, b)"),
    }

    def test_reused_system_gives_the_same_steps(self):
        for name, texts in self.TERMS.items():
            reused = load_system_file(name).system
            sig = reused.signature
            ctx = parse_context("a#P, c#Q1")
            for text in texts + texts:
                term = parse_term(text, sig)
                for enumerate_steps in (primary_rewrite_steps, one_step_rewrites):
                    for delta in (frozenset(), ctx):
                        fresh = RewriteSystem(reused.rules, sig)
                        expected = _step_fields(enumerate_steps(delta, term, fresh))
                        assert _step_fields(enumerate_steps(delta, term, reused)) == expected, (name, text)
                fresh = RewriteSystem(reused.rules, sig)
                assert _normalize_outcome(ctx, term, reused) == _normalize_outcome(ctx, term, fresh)

    def test_clash_shift_matches_a_direct_computation(self, prenex_system):
        # The binder atom a of and_forall occurs free in both redexes, so
        # each step needs the clash shift; and(b, c) clashes on no atom.
        term = parse_term("or(and(b, c), or(and(a, forall([b]c)), and(a, forall([c]d))))", prenex_system.signature)
        steps = primary_rewrite_steps(frozenset(), term, prenex_system)
        assert len(steps) >= 2
        for step in steps:
            sub = subterm_at(term, step.position.path)
            fresh = prenex_system._fresh_rules[step.rule]
            direct = clash_permutation(fresh, term_atoms(sub), term_atoms(term))
            assert direct is not None and step.rule_instance == permute_rule(fresh, direct)

    @staticmethod
    def _count_copies(monkeypatch):
        built = []
        original = rewriting.renamed_rule

        def counting(rule, renaming):
            built.append(rule.name)
            return original(rule, renaming)

        monkeypatch.setattr(rewriting, "renamed_rule", counting)
        return built

    def test_class_scan_builds_no_renamed_copy(self, monkeypatch):
        loaded = load_system_file("prenex").system
        system = RewriteSystem(loaded.rules, loaded.signature)
        built = self._count_copies(monkeypatch)
        term = parse_term("and(a, not(or(b, forall([a]and(c, exists([b]a))))))", system.signature)
        assert normal_form_equal_check(frozenset(), term, system, 10)
        assert r_over_e_one_step(term, system)
        assert built == []

    def test_non_ground_scan_builds_one_copy_per_fitting_site(self, monkeypatch):
        built = self._count_copies(monkeypatch)
        total = 0
        for name, texts in self.TERMS.items():
            system = load_system_file(name).system
            sig = system.signature
            for text in texts:
                term = parse_term(text, sig)
                for delta in (frozenset(), parse_context("a#P, c#Q1")):
                    if not term_vars(term) | {c.var for c in delta}:
                        continue
                    fitting = [
                        (pos, rule.name)
                        for pos, sub in subterms_with_positions(term)
                        if not isinstance(sub, Suspension)
                        for rule in system.rules
                        if reference_skeleton_fits(rule.lhs, sub, sig, False)
                    ]
                    built.clear()
                    primary_rewrite_steps(delta, term, system)
                    assert sorted(built) == sorted(rule for _, rule in fitting), (name, text)
                    total += len(fitting)
        assert total >= 10


SYSTEMS = {name: load_system_file(name).system for name in ("prenex", "ex22")}


def _random_subject(rng, name):
    if name == "prenex":
        return random_prenex_pattern(rng, 4)
    return random_term(rng, SYSTEMS[name].signature, 3)


class TestFirstRedexScans:
    """normalize and the class oracle stop their scan at the first redex;
    they must agree with the eager enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_normalize_follows_the_first_primary_step(self, name, seed):
        rng = random.Random(seed)
        system = SYSTEMS[name]
        term, ctx = _random_subject(rng, name), random_context(rng)
        current, trace = term, []
        for _ in range(6):
            steps = primary_rewrite_steps(ctx, current, system)
            if not steps:
                break
            trace.append(steps[0])
            current = steps[0].result
        else:
            if primary_rewrite_steps(ctx, current, system):
                expected = "limit", current, _step_fields(trace)
                assert _normalize_outcome(ctx, term, system) == expected
                return
        assert _normalize_outcome(ctx, term, system) == ("nf", current, _step_fields(trace))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_class_oracle_takes_the_eager_first_result(self, seed):
        rng = random.Random(seed)
        system = SYSTEMS["prenex"]
        plain = system.without_commutativity()
        # Two quantifier paths, so the first source often has several redexes.
        term = App("or", (random_prenex_formula(rng, 3), random_prenex_formula(rng, 3)))
        expected = None
        for source in rewriting._ground_oracle_sources(term, system):
            steps = primary_rewrite_steps(frozenset(), source, plain)
            if steps:
                expected = steps[0].result
                break
        _, first = next(rewriting._class_steps(term, system, 100_000), (None, None))
        assert (first and first.result) == expected


def _eager_candidate_steps(delta, term, system, max_states=DEFAULT_MAX_STATES):
    """`_candidate_steps` as it was with the renaming memo: every rule is
    renamed apart from the term's and the context's variables before the
    scan, by the old search loop."""
    avoid = term_vars(term) | {c.var for c in delta}
    renamed = {rule.name: rename_rule_with_map(rule, avoid)[0] for rule in system.rules}
    attempt = functools.partial(rewriting._verified_matchers, delta, sig=system.signature, max_states=max_states)
    prepare = lambda rule: renamed[rule.name]
    for pos, rule, thetas in rewriting.redexes(delta, term, system, prepare, attempt, unify=False):
        for theta in thetas:
            result = replace_at(term, pos.path, apply_subst(theta, rule.rhs))
            yield RewriteStep(rule.name, pos, theta, result, rule)


def _eager_outcomes(delta, term, system):
    """primary_rewrite_steps, one_step_rewrites and normalize's outcome over
    the eager renaming."""
    primary = reference_dedup_steps(delta, _eager_candidate_steps(delta, term, system))
    expanded = [
        dataclasses.replace(step, result=variant)
        for step in _eager_candidate_steps(delta, term, system)
        for variant in commutative_variants(step.result, system.signature)
    ]
    steps = lambda t: ((t, step) for step in _eager_candidate_steps(delta, t, system))
    try:
        nf, trace = rewriting._normal_form(steps, term, 6)
        outcome = "nf", nf, _step_fields(trace)
    except StepLimitExceeded as exc:
        outcome = "limit", exc.term, _step_fields(exc.trace)
    return _step_fields(primary), _step_fields(reference_dedup_steps(delta, expanded)), outcome


class TestSameStepsAsEagerRenaming:
    def test_non_ground_steps(self):
        rng = random.Random(21)
        seen = collections.Counter()
        for index in range(400):
            name = ("prenex", "ex22")[index % 2]
            system = SYSTEMS[name]
            term, delta = _random_subject(rng, name), random_context(rng)
            if is_ground(term):
                continue
            primary = primary_rewrite_steps(delta, term, system)
            new = (
                _step_fields(primary),
                _step_fields(one_step_rewrites(delta, term, system)),
                _normalize_outcome(delta, term, system),
            )
            assert new == _eager_outcomes(delta, term, system), (name, str(term))
            seen[name] += bool(primary)
            unshifted = system._fresh_rules
            seen["shifted"] += any(step.rule_instance.atoms() != unshifted[step.rule].atoms() for step in primary)
            seen["context"] += bool(delta) and bool(primary)
        assert all(seen[k] >= 3 for k in ("prenex", "ex22", "shifted", "context")), seen


PAIRING = {"prenex": "or", "ex22": "fC", "lambda+rules": "plus"}  # a commutative symbol of each


class TestBucketedDedup:
    def test_steps_equal_the_pairwise_dedup(self):
        # `_dedup_steps` compares a step only with kept steps of equal
        # `alpha_key`; the pairwise loop must keep the very same steps.
        rng = random.Random(19)
        dropped = collections.Counter()
        for index in range(240):
            name = ("prenex", "ex22", "lambda+rules")[index % 3]
            system = SKELETON_SYSTEMS[name]
            sig = system.signature
            term = _random_subject(rng, name) if name in SYSTEMS else random_term(rng, sig, 3)
            delta = random_context(rng)
            if rng.random() < 0.5:
                # Rewriting either side of a commutative pair gives results
                # alpha-equal up to rearrangement.
                term = App(PAIRING[name], (term, equivalent_variant(rng, delta, term, sig)))
            candidates = list(rewriting._candidate_steps(delta, term, system, DEFAULT_MAX_STATES))
            expanded = [
                dataclasses.replace(step, result=variant)
                for step in candidates
                for variant in commutative_variants(step.result, sig)
            ]
            primary = reference_dedup_steps(delta, candidates)
            one_step = reference_dedup_steps(delta, expanded)
            assert _step_fields(primary_rewrite_steps(delta, term, system)) == _step_fields(primary), str(term)
            assert _step_fields(one_step_rewrites(delta, term, system)) == _step_fields(one_step), str(term)
            dropped[name] += len(expanded) - len(one_step)
        # Each system's subjects have alpha-equal results to drop.
        assert all(dropped[name] >= 3 for name in SKELETON_SYSTEMS), dropped


# Every operation on a system, on ground and non-ground input.
READ_ONLY_CASES = {
    # ground term, non-ground term, a normalised substitution for it
    "prenex": ("and(a, not(or(b, forall([a]and(c, exists([b]a))))))", "or(P, not(forall([b]Q)))", "P -> a, Q -> c"),
    "ex22": ("h(fC([a][b]c, c))", "h(fC([b][a]X, X))", "X -> c"),
    "lambda": ("lam([a]app(a, b))", "lam([a]app(a, X))", "X -> b"),
}


class TestReadOnlySystem:
    def test_operations_leave_every_attribute_in_place(self):
        systems = {name: load_system_file(name).system for name in READ_ONLY_CASES}
        watched = [s for system in systems.values() for s in (system, system.without_commutativity())]
        before = [dict(vars(s)) for s in watched]
        lifted = 0
        for name, (ground_text, open_text, rho_text) in READ_ONLY_CASES.items():
            system = systems[name]
            sig = system.signature
            ground, open_term = parse_term(ground_text, sig), parse_term(open_text, sig)
            rho = parse_substitution(rho_text, sig)
            delta = parse_context("c#P, a#X")
            for ctx, term in ((frozenset(), ground), (delta, open_term)):
                normalize(ctx, term, system, 10)
                one_step_rewrites(ctx, term, system)
                coherence_check(system, [(ctx, term, term)], 2)
                narrow_search(ctx, term, system, 2, 1, 5)
            r_over_e_one_step(ground, system)
            assert normal_form_equal_check(frozenset(), ground, system, 10)
            for s0, rho0 in ((ground, Substitution()), (open_term, rho)):
                _, trace = normalize(frozenset(), apply_subst(rho0, s0), system, 10)
                out = lifting_backward_construct(frozenset(), s0, rho0, frozenset(), trace, 1, system)
                lifted += bool(out) and len(out[0])
        assert lifted >= 3
        for system, snapshot in zip(watched, before):
            assert vars(system).keys() == snapshot.keys()
            assert all(vars(system)[key] is value for key, value in snapshot.items()), system


# The bundled lambda system has no rules. These rules extend its signature
# with a commutative symbol and add left-hand sides prenex and ex22 lack: a
# free atom, an abstraction at the root, an atom at the root, and atoms
# under a commutative symbol.
LAMBDA_RULES = parse_system(
    "sig:\n  lam: 1\n  app: 2\n  plus: 2 commutative\n\nrules:\n"
    "  eta: a#X |- lam([a]app(X, a)) -> X\n"
    "  beta_id: |- app(lam([a]a), Y) -> Y\n"
    "  comm_atom: |- plus(a, lam([b]plus(b, Y))) -> Y\n"
    "  bind_root: |- [a]plus(a, X) -> X\n"
    "  atom_root: |- a -> b\n"
).system
SKELETON_SYSTEMS = {**SYSTEMS, "lambda+rules": LAMBDA_RULES}


def _near_miss(rng, lhs, sig):
    """The lhs with random parts redrawn: its variables mostly instantiated
    and, now and then, a node replaced by a random term (suspensions,
    binders and the atoms a, b, c, d included)."""
    if rng.random() < 0.15:
        return random_term(rng, sig, 2)
    if isinstance(lhs, Suspension):
        return lhs if rng.random() < 0.2 else random_term(rng, sig, 2)
    if isinstance(lhs, Abstraction):
        return Abstraction(rng.choice(ATOMS), _near_miss(rng, lhs.body, sig))
    if isinstance(lhs, App):
        return App(lhs.sym, tuple(_near_miss(rng, arg, sig) for arg in lhs.args))
    return rng.choice(ATOMS)


class TestSkeletonFilter:
    """The fit masks may only reject a rule that has no matcher (or, in
    unify mode, no unifier) at the subterm, with or without the clash shift."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(SKELETON_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_rejection_implies_no_answer(self, name, seed):
        rng = random.Random(seed)
        system = SKELETON_SYSTEMS[name]
        sig = system.signature
        delta = random_context(rng)
        for rule in system.rules:
            if rng.random() < 0.7:
                sub = _near_miss(rng, rule.lhs, sig)
            else:
                sub = random_term(rng, sig, 3)
            avoid = term_vars(sub) | {c.var for c in delta}
            prepared = rename_rule_with_map(rule, avoid)[0]
            sub_atoms = term_atoms(sub)
            shift = clash_permutation(prepared, sub_atoms, sub_atoms | {c.atom for c in delta})
            candidates = [prepared] + ([permute_rule(prepared, shift)] if shift else [])
            if not lhs_fits(system, rule, sub, unify=False):
                for used in candidates:
                    assert rewriting._verified_matchers(delta, sub, used, sig, 100_000) == [], (rule, sub)
            if not lhs_fits(system, rule, sub, unify=True):
                for used in candidates:
                    assert solve(delta, sub, used.context, used.lhs, sig=sig) == (), (rule, sub)

    def test_subject_variables_fit_only_when_unifying(self, prenex_system):
        sig = prenex_system.signature
        (rule,) = [rule for rule in prenex_system.rules if rule.name == "not_exists"]  # not(exists([a]Q))
        sub = parse_term("not(X)", sig)
        assert not lhs_fits(prenex_system, rule, sub, unify=False)
        assert lhs_fits(prenex_system, rule, sub, unify=True)
        assert lhs_fits(prenex_system, rule, parse_term("not(exists([b]c))", sig), unify=False)

    def test_commutative_arguments_fit_in_either_order(self, prenex_system):
        sig = prenex_system.signature
        (rule,) = [rule for rule in prenex_system.rules if rule.name == "and_forall"]  # and(P, forall([a]Q))
        assert lhs_fits(prenex_system, rule, parse_term("and(forall([b]c), not(a))", sig), unify=False)
        assert not lhs_fits(prenex_system, rule, parse_term("and(not(a), exists([b]c))", sig), unify=False)
        plain = prenex_system.without_commutativity()
        assert not lhs_fits(plain, rule, parse_term("and(forall([b]c), not(a))", sig), unify=False)

    def test_normal_form_scan_makes_no_match_call(self, monkeypatch, prenex_system):
        calls = []
        original = rewriting.match

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rewriting, "match", counting)
        term = parse_term("and(not(X), or(Y, Z))", prenex_system.signature)
        assert normalize(frozenset(), term, prenex_system, 10) == (term, ())
        assert calls == []

    def test_fitting_sites_yield_the_fitting_rules_in_declaration_order(self):
        rng = random.Random(35)
        for system in SKELETON_SYSTEMS.values():
            for twin in (system, system.without_commutativity()):
                sig = twin.signature
                for unify in (False, True):
                    for _ in range(40):
                        if rng.random() < 0.7:
                            term = _near_miss(rng, rng.choice(twin.rules).lhs, sig)
                        else:
                            term = random_term(rng, sig, 3)
                        sites = [(path, sub, r.name) for path, sub, r in rewriting._fitting_sites(term, twin, unify)]
                        expected = [
                            (pos.path, sub, rule.name)
                            for pos, sub in subterms_with_positions(term)
                            if not isinstance(sub, Suspension)
                            for rule in twin.rules
                            if reference_skeleton_fits(rule.lhs, sub, sig, unify)
                        ]
                        assert sites == expected, (str(term), unify)
        prenex = SKELETON_SYSTEMS["prenex"]
        for text, unify, names in (
            ("and(forall([a]X), exists([b]Y))", False, ["and_forall", "and_exists"]),
            ("not(X)", True, ["not_exists", "not_forall"]),
        ):
            term = parse_term(text, prenex.signature)
            sites = rewriting._fitting_sites(term, prenex, unify)
            assert [rule.name for path, _, rule in sites if path == ()] == names


def _reference_commutative_variants(term, sig):
    """`commutative_variants` as it was before it became lazy."""
    if isinstance(term, (Atom, Suspension)):
        return (term,)
    if isinstance(term, Abstraction):
        return tuple(Abstraction(term.atom, b) for b in _reference_commutative_variants(term.body, sig))
    arg_variants = [_reference_commutative_variants(a, sig) for a in term.args]
    out = {}
    for combo in itertools.product(*arg_variants):
        out[App(term.sym, combo)] = None
        if sig.is_commutative(term.sym):
            out[App(term.sym, (combo[1], combo[0]))] = None
    return tuple(out)


def _reference_alpha_variants(term, pool):
    """`alpha_variants` on ground terms as it was before it became lazy."""
    if isinstance(term, Atom):
        return (term,)
    out = {}
    if isinstance(term, Abstraction):
        for body in _reference_alpha_variants(term.body, pool):
            out[Abstraction(term.atom, body)] = None
            free = free_atoms(body)
            for atom in sorted(pool, key=lambda a: a.name):
                if atom != term.atom and atom not in free:
                    swapped = permute_term(Permutation(((term.atom, atom),)), body)
                    out[Abstraction(atom, swapped)] = None
        return tuple(out)
    arg_variants = [_reference_alpha_variants(a, pool) for a in term.args]
    for combo in itertools.product(*arg_variants):
        out[App(term.sym, combo)] = None
    return tuple(out)


class TestLazyVariants:
    """The class oracle reads commutative and alpha variants lazily; they
    come in the order the eager enumeration gave them."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SKELETON_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_same_order_as_the_eager_enumeration(self, name, seed):
        rng = random.Random(seed)
        sig = SKELETON_SYSTEMS[name].signature
        term = random_term(rng, sig, 4)
        assert commutative_variants(term, sig) == _reference_commutative_variants(term, sig)
        ground = random_ground_term(rng, sig, 4)
        pool = set(rng.sample(ATOMS + (Atom("n0"),), rng.randint(0, 5)))
        assert alpha_variants(ground, pool) == _reference_alpha_variants(ground, pool)


class _ReferenceTooCostly(Exception):
    """The old pool's class outgrew the reference's budget."""


def _old_pool_sources(term, system, budget=None):
    """The class oracle's sources with the binder pool it had before it was
    cut to the rules' atoms: every atom of the term and of the rules, plus
    one fresh atom. The reference for the smaller pool; past `budget`
    sources it gives up (the old pool's classes grow as its size to the
    number of binders)."""
    pool = term_atoms(term) | system.atoms()
    atoms = sorted(pool | {fresh_atom(pool)}, key=lambda a: a.name)
    seen = set()
    for member in rewriting._commutative_variants(term, system.signature):
        for variant in rewriting._alpha_variants(member, atoms):
            if variant not in seen:
                if len(seen) == budget:
                    raise _ReferenceTooCostly
                seen.add(variant)
                yield variant


def _eager_r_over_e_one_step(term, system, *, max_states=DEFAULT_MAX_STATES, budget=None):
    """`r_over_e_one_step` as it was before the class scan became lazy and its
    binder pool shrank: every old-pool source's primary steps, deduplicated
    there by alpha, then modulo =ac by `derive_alpha_c`."""
    if not is_ground(term):
        raise ValueError("the class-rewriting oracle is only defined on ground terms")
    plain = system.without_commutativity()
    sig = system.signature
    results = []
    for source in _old_pool_sources(term, system, budget):
        for step in primary_rewrite_steps(EMPTY_CONTEXT, source, plain, max_states=max_states):
            if not any(derive_alpha_c(EMPTY_CONTEXT, step.result, r, sig) for r in results):
                results.append(step.result)
    return tuple(results)


def _old_pool_verdict(term, system, max_steps, budget=None):
    """`normal_form_equal_check` on the empty context with the old pool's
    class normal form; "limit" where a normal form runs past `max_steps`."""
    plain = system.without_commutativity()

    def steps(t):
        for source in _old_pool_sources(t, system, budget):
            for step in primary_rewrite_steps(EMPTY_CONTEXT, source, plain):
                yield source, step

    try:
        nf_matching, _ = normalize(EMPTY_CONTEXT, term, system, max_steps)
        nf_class, _ = rewriting._normal_form(steps, term, max_steps)
    except StepLimitExceeded:
        return "limit"
    return derive_alpha_c(EMPTY_CONTEXT, nf_matching, nf_class, system.signature)


def _verdict(term, system, max_steps):
    try:
        return normal_form_equal_check(EMPTY_CONTEXT, term, system, max_steps)
    except StepLimitExceeded:
        return "limit"


_POOL_SIG = "sig:\n  lam: 1\n  app: 2\n  pair: 2 commutative\n  g: 1\n  h: 2\n  f: 2\n  k: 2\n\nrules:\n"
# Ground systems for the pool property. The bundled three, then rules that
# are not closed: free atoms on the left, atoms that a right-hand side makes
# free or binds, a literal atom next to a freshness condition, and rules
# whose binder atoms the clash shift alone must move.
POOL_SYSTEMS = {
    "prenex": SYSTEMS["prenex"],
    "ex22": SYSTEMS["ex22"],
    "lambda": load_system_file("lambda").system,
    "lambda+rules": LAMBDA_RULES,
    "non-closed": parse_system(
        _POOL_SIG + "  spin: |- a -> a\n  beta: |- app(lam([a]X), a) -> X\n"
        "  eta: |- lam([b]app(a, X)) -> X\n  proj: |- pair(a, b) -> b\n"
    ).system,
    "intro": parse_system(_POOL_SIG + "  intro: |- g(X) -> f(X, a)\n  keep: a#X |- g(X) -> k(X, X)\n").system,
    "unbind": parse_system(_POOL_SIG + "  unbind: |- g([a]X) -> k(a, X)\n  keep: a#X |- g(X) -> k(X, X)\n").system,
    "literal": parse_system(_POOL_SIG + "  lit: a#X |- h(b, X) -> g(X)\n  proj: |- pair(a, b) -> b\n").system,
    "capture": parse_system(
        _POOL_SIG + "  capture: |- g(X) -> f(X, lam([b]X))\n  free: |- app(lam([a]X), Y) -> f(X, Y)\n"
    ).system,
    "shift": parse_system(
        _POOL_SIG + "  keep: a#X |- g(X) -> k(X, X)\n  drop: a#X |- g(lam([a]X)) -> X\n"
        "  swap: a#X, b#Y |- h(X, lam([a]lam([b]Y))) -> h(lam([b]lam([a]Y)), X)\n  proj: |- pair(a, b) -> b\n"
    ).system,
}

# The pool systems plus one whose only left-hand side is an abstraction, so
# that an abstraction head alone can decide whether a class has a fitting site.
SCAN_SYSTEMS = {**POOL_SYSTEMS, "binder-head": parse_system(_POOL_SIG + "  bind: a#X |- [a]k(a, X) -> X\n").system}

def _same_answers(new, old, sig):
    """The same length, and element-wise =ac."""
    return len(new) == len(old) and all(derive_alpha_c(EMPTY_CONTEXT, u, v, sig) for u, v in zip(new, old))


def _pool_subject(rng, name, ground=True):
    """A random term, ground unless `ground` is False; half the time a rule's
    left-hand side instance under binders named by the atoms a, b, c, d, so a
    binder often carries an atom of the rule or of the redex."""
    system = SCAN_SYSTEMS[name]
    sig = system.signature
    make = random_ground_term if ground else random_term
    if not system.rules or rng.random() < 0.5:
        if name == "prenex":
            if not ground:
                return random_prenex_pattern(rng, 4)
            return App("or", (random_prenex_formula(rng, 3), random_prenex_formula(rng, 2)))
        return make(rng, sig, 3)
    rule = rng.choice(system.rules)
    theta = Substitution({v: make(rng, sig, 1) for v in rule.variables()})
    term = apply_subst(theta, rule.lhs)
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            term = Abstraction(rng.choice(ATOMS), term)
        else:
            sym = rng.choice([s for s in sig.symbols if sig.arity(s)])
            args = [make(rng, sig, 1) for _ in range(sig.arity(sym))]
            args[rng.randrange(len(args))] = term
            term = App(sym, tuple(args))
    return term


class TestClassPool:
    """The class oracle renames binders to the rules' atoms, plus one fresh
    atom only where a rule tells such binders apart; it answers as the old
    pool of every atom of the term and the rules plus a fresh one did."""

    def test_which_systems_keep_the_fresh_atom(self):
        keeps = {name: system._unnamed_binders for name, system in POOL_SYSTEMS.items()}
        assert keeps == {
            "prenex": False,
            "ex22": False,
            "lambda": False,
            "lambda+rules": True,
            "non-closed": True,
            "intro": True,
            "unbind": True,
            "literal": True,
            "capture": True,
            "shift": False,
        }

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(POOL_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_same_answers_as_the_old_pool(self, name, seed):
        system = POOL_SYSTEMS[name]
        term = _pool_subject(random.Random(seed), name)
        try:
            old = _eager_r_over_e_one_step(term, system, budget=5_000)
            old_verdict = _old_pool_verdict(term, system, 6, budget=5_000)
        except _ReferenceTooCostly:
            reject()
        new = r_over_e_one_step(term, system)
        assert _same_answers(new, old, system.signature), (str(term), [str(t) for t in new], [str(t) for t in old])
        assert _verdict(term, system, 6) == old_verdict, str(term)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("intro", "lam([a]g(b))"),
            ("unbind", "lam([a]g([b]a))"),
            ("literal", "lam([a]h(b, a))"),
            ("capture", "lam([a]lam([b]g(f(a, b))))"),
            ("capture", "lam([a]app(lam([c]c), b))"),
            ("non-closed", "[b]lam([b]app(a, pair(b, c)))"),
        ],
    )
    def test_rules_that_need_the_fresh_atom(self, name, text):
        # Each term loses a result unless its binder can also be renamed to
        # an atom no rule mentions.
        system = POOL_SYSTEMS[name]
        term = parse_term(text, system.signature)
        old = _eager_r_over_e_one_step(term, system)
        assert _same_answers(r_over_e_one_step(term, system), old, system.signature)
        no_fresh = RewriteSystem(system.rules, system.signature)
        object.__setattr__(no_fresh, "_unnamed_binders", False)
        assert not _same_answers(r_over_e_one_step(term, no_fresh), old, system.signature)

    def test_six_nested_binders_scan_few_sources(self, prenex_system, monkeypatch):
        term = parse_term(
            "forall([a]forall([b]forall([c]forall([d]forall([e]forall([f]"
            "or(a, or(b, or(c, or(d, or(e, f)))))))))))",
            prenex_system.signature,
        )
        assert len(list(rewriting._ground_oracle_sources(term, prenex_system))) == 32
        # No prenex rule fits any of its subterms, so the oracle answers
        # without generating one of those 32 sources.
        generated = _record_sources(monkeypatch)
        assert r_over_e_one_step(term, prenex_system) == ()
        assert normal_form_equal_check(frozenset(), term, prenex_system, 10)
        assert generated == []


def _record_sources(monkeypatch):
    """Make the class oracle log every source it generates; returns the log."""
    generated = []
    original = rewriting._ground_oracle_sources

    def recording(*args, **kwargs):
        for source in original(*args, **kwargs):
            generated.append(source)
            yield source

    monkeypatch.setattr(rewriting, "_ground_oracle_sources", recording)
    return generated


def _or_chain(n, last=None):
    """`or(c0, or(c1, ... or(c{n-2}, last)))`; `last` is `c{n-1}` by default."""
    text = last or f"c{n - 1}"
    for i in reversed(range(n - 1)):
        text = f"or(c{i}, {text})"
    return text


# `gg` fits `g(g(b))` but never matches it: `b` is free, so no member of its
# class renames it to `a`.
GG_SYSTEM = parse_system("sig:\n  or: 2 commutative\n  g: 1\n\nrules:\n  gg: |- g(g(a)) -> a\n").system


class TestSourcesCap:
    def test_cap_fires_on_a_long_or_chain(self):
        # 2^19 rearrangements, each with a fitting site; the scan stops at
        # the bound instead.
        term = parse_term(_or_chain(20, "g(g(b))"), GG_SYSTEM.signature)
        for check in (
            lambda: r_over_e_one_step(term, GG_SYSTEM, max_sources=500),
            lambda: normal_form_equal_check(frozenset(), term, GG_SYSTEM, 10, max_sources=500),
        ):
            with pytest.raises(SearchSpaceExceeded, match=r"max_sources=500: scanned 500 sources"):
                check()

    def test_chain_with_no_fitting_site_needs_no_scan(self, prenex_system, monkeypatch):
        # No prenex rule fits the bare chain anywhere, so its 2^19 members
        # are never generated and the cap cannot fire.
        generated = _record_sources(monkeypatch)
        for n in (15, 20):
            term = parse_term(_or_chain(n), prenex_system.signature)
            start = time.perf_counter()
            assert r_over_e_one_step(term, prenex_system, max_sources=500) == ()
            assert normal_form_equal_check(frozenset(), term, prenex_system, 10, max_sources=500)
            assert time.perf_counter() - start < 1.0
        assert generated == []

    def test_results_below_the_cap_are_unchanged(self, prenex_system):
        sig = prenex_system.signature
        for text in ("or(not(forall([a]b)), and(c, exists([b]a)))", "or(a, or(b, or(c, forall([a]not(a)))))"):
            term = parse_term(text, sig)
            size = len(list(rewriting._ground_oracle_sources(term, prenex_system)))
            expected = r_over_e_one_step(term, prenex_system)
            assert expected and r_over_e_one_step(term, prenex_system, max_sources=size) == expected
            with pytest.raises(SearchSpaceExceeded):
                r_over_e_one_step(term, prenex_system, max_sources=size - 1)
            assert normal_form_equal_check(frozenset(), term, prenex_system, 10, max_sources=size)


class TestAcKey:
    """`alpha_key` over the signature is exact for =ac on ground terms."""

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(("prenex", "ex22", "lambda")), st.integers(0, 2**32 - 1))
    def test_keys_are_equal_exactly_when_ac_equal(self, name, seed):
        rng = random.Random(seed)
        sig = POOL_SYSTEMS[name].signature

        def draw(depth):
            if name == "prenex":
                return random_prenex_formula(rng, depth)
            return random_ground_term(rng, sig, depth)

        s = draw(4)
        roll = rng.random()
        if roll < 0.5:
            t = equivalent_variant(rng, frozenset(), s, sig)
        elif roll < 0.75:
            # A variant with two atoms swapped: sometimes =ac, mostly not.
            x, y = rng.sample(ATOMS, 2)
            t = permute_term(Permutation(((x, y),)), equivalent_variant(rng, frozenset(), s, sig))
        else:
            t = draw(2)
        assert (alpha_key(s, sig) == alpha_key(t, sig)) == derive_alpha_c(frozenset(), s, t, sig), (str(s), str(t))

    def test_atom_and_constant_that_print_alike(self):
        sig = Signature({"pair": (2, True), "c": (0, False)})
        s, t = App("pair", (Atom("c"), App("c", ()))), App("pair", (App("c", ()), Atom("c")))
        assert derive_alpha_c(frozenset(), s, t, sig)
        assert alpha_key(s, sig) == alpha_key(t, sig)
        assert alpha_key(Atom("c"), sig) != alpha_key(App("c", ()), sig)


class TestClassOracle:
    """One lazy class scan serves the one-step oracle and the class normal
    form; one normalisation loop serves both normal forms."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_one_step_oracle_equals_the_eager_scan(self, name, seed):
        rng = random.Random(seed)
        system = SYSTEMS[name]
        if name == "prenex":
            term = App("or", (random_prenex_formula(rng, 3), random_prenex_formula(rng, 2)))
        else:
            term = random_ground_term(rng, system.signature, 3)
        assert r_over_e_one_step(term, system) == _eager_r_over_e_one_step(term, system)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("prenex", "ex22", "lambda")), st.integers(0, 2**32 - 1))
    def test_first_result_of_each_ac_class_in_order(self, name, seed):
        # The reference judges the classes pairwise by `derive_alpha_c`. Half
        # the terms carry a free atom named `~0`, like a marker of the old key.
        rng = random.Random(seed)
        system = POOL_SYSTEMS[name]
        sig = system.signature
        if name == "prenex":
            term = App("or", (random_prenex_formula(rng, 3), random_prenex_formula(rng, 2)))
        else:
            term = random_ground_term(rng, sig, 3)
        if rng.random() < 0.5:
            term = permute_term(Permutation(((c, Atom("~0")),)), term)
        expected = []
        for _, step in rewriting._class_steps(term, system, DEFAULT_MAX_STATES):
            if not any(derive_alpha_c(EMPTY_CONTEXT, step.result, kept, sig) for kept in expected):
                expected.append(step.result)
        assert r_over_e_one_step(term, system) == tuple(expected), str(term)

    def test_free_atom_named_like_a_binder_marker(self):
        # Binders renamed to atoms `~0`, `~1`, ... once made the =ac key, so
        # a free `~0` split one class into `k([a]f(a, ~0))` and `k([b]f(b, ~0))`.
        system = parse_system(
            "sig:\n  g: 1\n  k: 1\n  f: 2\n  q: 2 commutative\n\n"
            "rules:\n  wrap: |- g(X) -> k(X)\n  pick: |- q(a, b) -> a\n"
        ).system
        marker = Atom("~0")
        results = r_over_e_one_step(App("g", (Abstraction(a, App("f", (a, marker))),)), system)
        assert len(results) == 1
        expected = App("k", (Abstraction(b, App("f", (b, marker))),))
        assert derive_alpha_c(EMPTY_CONTEXT, results[0], expected, system.signature)

    def test_class_scan_interns_no_marker_atom(self):
        # A fresh process, since other tests make `~0` on purpose.
        code = (
            "from nomc import Atom, parse_term, r_over_e_one_step\n"
            "from nomc.cli import load_system_file\n"
            "system = load_system_file('prenex').system\n"
            "term = parse_term('not(forall([a]forall([b]forall([c]or(a, or(b, c))))))', system.signature)\n"
            "assert r_over_e_one_step(term, system)\n"
            "markers = sorted(name for name in Atom._table if name.startswith('~'))\n"
            "assert not markers, markers\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nomc.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_class_step_limit_keeps_its_trace(self):
        # `b` is in normal form, but its alpha-variant `a` rewrites to itself.
        system = parse_system("sig:\n  lam: 1\n\nrules:\n  spin: |- a -> a\n").system
        term = parse_term("lam([b]b)", system.signature)
        assert normalize(frozenset(), term, system, 3) == (term, ())
        with pytest.raises(StepLimitExceeded) as info:
            normal_form_equal_check(frozenset(), term, system, 3)
        assert len(info.value.trace) == 3
        assert info.value.term == info.value.trace[-1].result
        assert all(step.rule == "spin" for step in info.value.trace)
        # The trace replays: each step verifies against its recorded source,
        # a member of the class of the previous result.
        sources, trace = info.value.sources, info.value.trace
        assert len(sources) == 3 and sources[0] != term
        for previous, source, step in zip((term,) + tuple(s.result for s in trace), sources, trace):
            assert derive_alpha_c(frozenset(), source, previous, system.signature)
            assert verify_rewrite_step(frozenset(), source, step, system.signature)

    def test_normalize_step_limit_sources_are_the_previous_terms(self):
        system = parse_system("sig:\n  f: 1\n\nrules:\n  spin: |- f(X) -> f(X)\n").system
        term = parse_term("f(a)", system.signature)
        with pytest.raises(StepLimitExceeded) as info:
            normalize(frozenset(), term, system, 2)
        trace = info.value.trace
        assert info.value.sources == (term, trace[0].result)
        assert all(verify_rewrite_step(frozenset(), s, step, system.signature) for s, step in zip(info.value.sources, trace))

    def test_binders_are_renamed_to_atoms_no_rule_mentions(self):
        # The rule's right-hand side brings in a free `a`. Under the binder
        # `[a]` it is captured; only the variant `[n0]`, whose binder no rule
        # mentions, keeps it free. A pool of rule atoms alone loses the second.
        system = parse_system("sig:\n  lam: 1\n  g: 1\n  f: 2\n\nrules:\n  intro: |- g(X) -> f(X, a)\n").system
        results = r_over_e_one_step(parse_term("lam([a]g(b))", system.signature), system)
        assert [str(t) for t in results] == ["lam([a]f(b, a))", "lam([n0]f(b, a))"]
        assert not derive_alpha_c(frozenset(), results[0], results[1], system.signature)

    def test_plain_system_is_built_once(self, prenex_system):
        plain = prenex_system.without_commutativity()
        assert prenex_system.without_commutativity() is plain
        assert plain.rules == prenex_system.rules
        assert plain.signature == prenex_system.signature.without_commutativity()


def _unfiltered_class_steps(term, system):
    """`_class_steps` as it was before it skipped classes with no fitting
    site: every source is scanned."""
    plain = system.without_commutativity()
    for source in rewriting._ground_oracle_sources(term, system):
        for step in rewriting._candidate_steps(EMPTY_CONTEXT, source, plain, DEFAULT_MAX_STATES, frozenset()):
            yield source, step


def _class_outcome(class_steps, term, system, max_steps=6):
    """The one-step oracle's results, then the class normal form with its
    trace and sources (or the step limit's), under the scan `class_steps`."""
    sig = system.signature
    results = {}
    for _, step in class_steps(term, system):
        results.setdefault(alpha_key(step.result, sig), step.result)
    sources = []

    def steps(t):
        for source, step in class_steps(t, system):
            sources.append(source)
            yield source, step

    try:
        nf, trace = rewriting._normal_form(steps, term, max_steps)
    except StepLimitExceeded as exc:
        return tuple(results.values()), "limit", exc.term, exc.trace, exc.sources
    return tuple(results.values()), nf, trace, tuple(sources)


def _filtered_class_steps(term, system):
    return rewriting._class_steps(term, system, DEFAULT_MAX_STATES)


class TestClassFilter:
    """The class oracle generates no source of a class where no rule's
    skeleton fits any subterm of the term modulo commutativity."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(POOL_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_same_answers_as_the_unfiltered_scan(self, name, seed):
        system = POOL_SYSTEMS[name]
        term = _pool_subject(random.Random(seed), name)
        try:
            old = _class_outcome(_unfiltered_class_steps, term, system)
            new = _class_outcome(_filtered_class_steps, term, system)
        except SearchSpaceExceeded:
            reject()
        assert new == old, str(term)
        assert r_over_e_one_step(term, system) == old[0]
        if old[1] != "limit":
            # The class normal form: where the filter saves the most.
            nf = old[1]
            assert r_over_e_one_step(nf, system) == () == tuple(_unfiltered_class_steps(nf, system))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(POOL_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_no_fitting_site_in_any_member(self, name, seed):
        system = POOL_SYSTEMS[name]
        plain = system.without_commutativity()
        term = _pool_subject(random.Random(seed), name)
        try:
            term = rewriting._normal_form(lambda t: _filtered_class_steps(t, system), term, 6)[0]
        except (StepLimitExceeded, SearchSpaceExceeded):
            pass
        if rewriting._class_fits(term, system):
            return
        assert tuple(_filtered_class_steps(term, system)) == ()
        for source in itertools.islice(rewriting._ground_oracle_sources(term, system), 2_000):
            for _, sub in subterms_with_positions(source):
                for rule in system.rules:
                    assert not reference_skeleton_fits(rule.lhs, sub, plain.signature, False), (str(source), rule.name)
            assert primary_rewrite_steps(EMPTY_CONTEXT, source, plain) == ()

    def test_a_renamed_binder_can_carry_a_rules_atom(self):
        # `spin` does not rewrite `b`, but `b` fits the skeleton of every
        # atom, and its class holds `lam([a]a)`, where `spin` rewrites the
        # bound `a`.
        system = parse_system("sig:\n  lam: 1\n\nrules:\n  spin: |- a -> a\n").system
        term = parse_term("lam([b]b)", system.signature)
        (spin,) = system.rules
        assert lhs_fits(system, spin, Atom("b"), False)
        assert rewriting._class_fits(term, system)
        assert r_over_e_one_step(term, system) == (parse_term("lam([a]a)", system.signature),)


def _scan_record(scan, ctx, term, system, unify):
    """Every item a redex scan yields and every `prepare(rule)` call it
    makes, in order. Rules are renamed as narrowing renames them, with names
    drawn at every call, so a changed call order shows in the names."""
    sig = system.signature
    names = NameSupply(term_vars(term) | {c.var for c in ctx})
    calls = []

    def prepare(rule):
        calls.append(rule.name)
        return rewriting.renamed_rule(rule, names.draw(rule.renaming_bases))

    if unify:
        attempt = lambda sub, rule: solve(ctx, sub, rule.context, rule.lhs, sig=sig, max_states=2_000)
    else:
        attempt = functools.partial(rewriting._verified_matchers, ctx, sig=sig, max_states=2_000)
    yielded = []
    try:
        for pos, rule, answers in scan(ctx, term, system, prepare, attempt, unify):
            yielded.append((pos, rule, tuple(answers)))
    except SearchSpaceExceeded:
        yielded.append("exceeded")
    return yielded, calls


def _all_rules_class_fits(term, system):
    """`_class_fits` as it was: every rule tried at every subterm."""
    sig = system.signature
    return any(
        reference_skeleton_fits(rule.lhs, sub, sig, False)
        for _, sub in subterms_with_positions(term)
        for rule in system.rules
    )


class TestRedexScan:
    """The scan walks (path, subterm) pairs and builds a Position only for a
    site it yields; it yields and prepares as the scan over
    `subterms_with_positions` did, and the class-fit test reads the root's
    fit mask, with no match."""

    def test_systems_cover_abstraction_and_atom_heads(self):
        binder_head = SCAN_SYSTEMS["binder-head"]
        (bind,) = binder_head.rules
        assert lhs_fits(binder_head, bind, parse_term("[b]k(b, c)", binder_head.signature), False)
        lambda_rules = SCAN_SYSTEMS["lambda+rules"]
        (atom_root,) = [rule for rule in lambda_rules.rules if isinstance(rule.lhs, Atom)]
        assert all(lhs_fits(lambda_rules, atom_root, atom, False) for atom in ATOMS)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(SCAN_SYSTEMS)), st.booleans(), st.integers(0, 2**32 - 1))
    def test_same_items_and_prepare_calls_as_the_reference(self, name, unify, seed):
        rng = random.Random(seed)
        system = SCAN_SYSTEMS[name]
        term, ctx = _pool_subject(rng, name, ground=False), random_context(rng)
        new = _scan_record(rewriting.redexes, ctx, term, system, unify)
        assert new == _scan_record(reference_redexes, ctx, term, system, unify), str(term)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SCAN_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_class_fits_as_every_rule_at_every_subterm(self, name, seed):
        system = SCAN_SYSTEMS[name]
        term = _pool_subject(random.Random(seed), name)
        assert rewriting._class_fits(term, system) == _all_rules_class_fits(term, system), str(term)

    def test_class_fits_answers_without_a_match_call(self, monkeypatch, prenex_system):
        term = parse_term("forall([a]exists([b]and(a, or(not(b), c))))", prenex_system.signature)
        assert r_over_e_one_step(term, prenex_system) == ()
        calls = []
        original = rewriting.match

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rewriting, "match", counting)
        assert not rewriting._class_fits(term, prenex_system)
        assert calls == []


# Every system of the scan and skeleton properties, with and without
# commutativity.
FIT_SYSTEMS = {
    (name, plain): system.without_commutativity() if plain else system
    for name, system in {**SKELETON_SYSTEMS, **SCAN_SYSTEMS}.items()
    for plain in (False, True)
}


class TestFitMasks:
    """A subterm's fit mask holds the bit of each left-hand side that
    `reference_skeleton_fits` accepts there and no other, and SITE exactly
    when some left-hand side fits at a non-variable subterm at or below it."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FIT_SYSTEMS)), st.booleans(), st.integers(0, 2**32 - 1))
    def test_bits_equal_the_reference_skeleton_test(self, key, unify, seed):
        rng = random.Random(seed)
        system = FIT_SYSTEMS[key]
        sig = system.signature
        if system.rules and rng.random() < 0.6:
            term = _near_miss(rng, rng.choice(system.rules).lhs, sig)
            if rng.random() < 0.5:
                # under a random node, next to random siblings
                sym = rng.choice(sig.symbols)
                args = [random_term(rng, sig, 2) for _ in range(sig.arity(sym))]
                if args:
                    args[rng.randrange(len(args))] = term
                    term = App(sym, tuple(args))
        else:
            term = random_term(rng, sig, 4)
        bits = {rule.name: bit for bit, rule in system._lhs}
        nodes, firsts, masks = rewriting._fit_masks(term, system, unify)
        assert len(nodes) == len(firsts) == len(masks) == sum(1 for _ in subterms_with_positions(term))
        assert nodes[0] is term
        for sub, first in zip(nodes, firsts):
            children = sub.args if isinstance(sub, App) else (sub.body,) if isinstance(sub, Abstraction) else ()
            assert list(map(id, children)) == list(map(id, nodes[first : first + len(children)]))
        for sub, mask in zip(nodes, masks):
            for rule in system.rules:
                assert bool(mask & bits[rule.name]) == reference_skeleton_fits(rule.lhs, sub, sig, unify), (
                    str(sub),
                    rule.name,
                )
            below = any(
                not isinstance(part, Suspension) and reference_skeleton_fits(rule.lhs, part, sig, unify)
                for _, part in subterms_with_positions(sub)
                for rule in system.rules
            )
            assert bool(mask & rewriting.SITE) == below, str(sub)


def _eager_reachable(delta, term, system, max_steps, max_states):
    """`rewriting._reachable` as it was before it became a generator: the
    whole breadth-first reach set, as a list."""
    seen = {term: None}  # insertion-ordered set
    frontier = [term]
    for _ in range(max_steps):
        nxt = []
        for t in frontier:
            for step in primary_rewrite_steps(delta, t, system, max_states=max_states):
                if step.result not in seen:
                    seen[step.result] = None
                    nxt.append(step.result)
        if not nxt:
            break
        frontier = nxt
    return list(seen)


def _pairwise_coherence_check(system, samples, max_steps, *, max_states=DEFAULT_MAX_STATES):
    """`coherence_check` as it was before its reach sets were memoised and
    read lazily: every reach set is built in full, and each `t2` reduct's
    reach set is recomputed for every `t1` step."""
    sig = system.signature
    verdicts = []
    for index, (delta, t1, t2) in enumerate(samples):
        if not derive_alpha_c(delta, t1, t2, sig):
            verdicts.append(rewriting.CoherenceVerdict(index, REJECTED, "sample terms are not =ac-related"))
            continue
        t1_steps = primary_rewrite_steps(delta, t1, system, max_states=max_states)
        status = WITNESSED
        detail = ""
        t2_steps = None
        for step in t1_steps:
            reach_left = _eager_reachable(delta, step.result, system, max_steps, max_states)
            if t2_steps is None:
                t2_steps = primary_rewrite_steps(delta, t2, system, max_states=max_states)
            witnessed = False
            for right in t2_steps:
                reach_right = _eager_reachable(delta, right.result, system, max_steps, max_states)
                if any(
                    derive_alpha_c(delta, u, v, sig)
                    for u in reach_left
                    for v in reach_right
                ):
                    witnessed = True
                    break
            if not witnessed:
                status = rewriting.NOT_WITNESSED
                detail = f"no closing reduct for {step.result}"
                break
        verdicts.append(rewriting.CoherenceVerdict(index, status, detail))
    return tuple(verdicts)


class TestCoherenceReach:
    """Each reach set is computed once per sample, with the same verdicts."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SKELETON_SYSTEMS)), st.integers(0, 2**32 - 1))
    def test_verdicts_equal_the_pairwise_formulation(self, name, seed):
        # lambda+rules is not coherent (`atom_root` rewrites the bound `a` of
        # [a]a but not of [b]b), so NOT-WITNESSED verdicts occur as well.
        rng = random.Random(seed)
        system = SKELETON_SYSTEMS[name]
        sig = system.signature
        samples = []
        for _ in range(3):
            delta = random_context(rng)
            if name == "prenex":
                term = App("or", (random_prenex_pattern(rng, 3), random_prenex_pattern(rng, 3)))
            else:
                term = random_term(rng, sig, 3)
            samples.append((delta, term, equivalent_variant(rng, delta, term, sig)))
        assert coherence_check(system, samples, 2) == _pairwise_coherence_check(system, samples, 2)

    def test_not_witnessed_on_the_non_coherent_system(self):
        sig = LAMBDA_RULES.signature
        t1, t2 = parse_term("lam([a]a)", sig), parse_term("lam([b]b)", sig)
        (verdict,) = coherence_check(LAMBDA_RULES, [(frozenset(), t1, t2)], 2)
        assert verdict.status == rewriting.NOT_WITNESSED
        assert verdict == _pairwise_coherence_check(LAMBDA_RULES, [(frozenset(), t1, t2)], 2)[0]

    def test_closing_needs_a_further_step(self):
        # t1's reduct lam([a]c) meets t2's reduct d only after one more step.
        system = parse_system(
            "sig:\n  lam: 1\n\nrules:\n"
            "  atom_a: |- a -> c\n  join_c: |- lam([a]c) -> d\n  join_id: |- lam([b]b) -> d\n"
        ).system
        sample = (frozenset(), parse_term("lam([a]a)", system.signature), parse_term("lam([b]b)", system.signature))
        for max_steps, status in ((0, rewriting.NOT_WITNESSED), (1, WITNESSED)):
            (verdict,) = coherence_check(system, [sample], max_steps)
            assert verdict.status == status
            assert (verdict,) == _pairwise_coherence_check(system, [sample], max_steps)

    def test_the_walk_reads_reach_sets_only_as_far_as_it_closes(self):
        # t1's reduct L = lam([a]f(f(e, e), f(e, e))) meets t2's reduct d at
        # d's first reduct, L itself. Rewriting L needs more than 5 states,
        # but the walk never reads past L in its own reach set.
        system = parse_system(
            "sig:\n  lam: 1\n  f: 2 commutative\n\nrules:\n"
            "  atom_a: |- a -> f(f(e, e), f(e, e))\n  join_id: |- lam([b]b) -> d\n"
            "  back: |- d -> lam([a]f(f(e, e), f(e, e)))\n  flat: |- f(f(X1, X2), f(X3, X4)) -> e\n"
        ).system
        sig = system.signature
        sample = (frozenset(), parse_term("lam([a]a)", sig), parse_term("lam([b]b)", sig))
        with pytest.raises(SearchSpaceExceeded):
            primary_rewrite_steps(frozenset(), parse_term("lam([a]f(f(e, e), f(e, e)))", sig), system, max_states=5)
        assert coherence_check(system, [sample], 1, max_states=5) == (rewriting.CoherenceVerdict(0, WITNESSED),)

    def test_no_reach_set_is_computed_twice(self, monkeypatch):
        # Two reducts of t1, lam([a]c) and lam([a]e), close with t2's reduct
        # d only after a further step; both walks read d's reach set.
        seen = []
        original = rewriting._reachable

        def recording(delta, term, system, max_steps, max_states):
            seen.append(term)
            return original(delta, term, system, max_steps, max_states)

        monkeypatch.setattr(rewriting, "_reachable", recording)
        system = parse_system(
            "sig:\n  lam: 1\n\nrules:\n  atom_c: |- a -> c\n  atom_e: |- a -> e\n"
            "  join_c: |- lam([a]c) -> d\n  join_e: |- lam([a]e) -> d\n  join_id: |- lam([b]b) -> d\n"
        ).system
        sig = system.signature
        sample = (frozenset(), parse_term("lam([a]a)", sig), parse_term("lam([b]b)", sig))
        (verdict,) = coherence_check(system, [sample], 1)
        assert verdict.status == WITNESSED
        assert verdict == _pairwise_coherence_check(system, [sample], 1)[0]
        assert [str(t) for t in seen] == ["lam([a]c)", "d", "lam([a]e)"]

    def test_a_reduct_closed_at_once_needs_no_reach_set(self, monkeypatch, prenex_system):
        # README's sample: every reduct of t1 is =ac to a reduct of t2, so
        # only t1 and t2 are rewritten.
        rewritten = []
        original = rewriting.primary_rewrite_steps

        def recording(delta, term, system, **kwargs):
            rewritten.append(term)
            return original(delta, term, system, **kwargs)

        monkeypatch.setattr(rewriting, "primary_rewrite_steps", recording)
        sig = prenex_system.signature
        t1 = parse_term("or(not(forall([a]Q1)), P1)", sig)
        t2 = parse_term("or(P1, not(forall([a]Q1)))", sig)
        (verdict,) = coherence_check(prenex_system, [(frozenset(), t1, t2)], 10)
        assert verdict == rewriting.CoherenceVerdict(0, WITNESSED)
        assert rewritten == [t1, t2]
