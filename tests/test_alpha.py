"""Freshness and =ac judgements, context normalisation, and their laws."""

import random

from hypothesis import given, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessGoal,
    INCONSISTENT,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Var,
    apply_subst,
    check_problem,
    derive_alpha,
    derive_alpha_c,
    derive_freshness,
    freshness_context_nf,
    parse_context,
    parse_term,
    permute_term,
)
from nomc.alpha import alpha_key, satisfies_with
from conftest import (
    ATOMS,
    equivalent_variant,
    random_context,
    random_ground_term,
    random_permutation,
    random_substitution,
    random_term,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
X, Y = Var("X"), Var("Y")
LAMBDA_SIG = Signature({"lam": (1, False), "app": (2, False)})
C_SIG = Signature({"f": (2, False), "g": (1, False), "c": (2, True)})


class TestFreshness:
    def test_binder_rename_judgement(self, lambda_signature):
        ctx = parse_context("a#X, b#X, c#X")
        t = parse_term("app(b, (a c).X)", lambda_signature)
        assert derive_freshness(ctx, a, t)

    def test_fresh_under_own_binder(self):
        assert derive_freshness(frozenset(), a, Abstraction(a, a))

    def test_atom_not_fresh_in_itself(self):
        assert not derive_freshness(frozenset(), a, a)

    def test_suspension_consults_context_through_inverse(self):
        ctx = parse_context("c#X")
        assert derive_freshness(ctx, a, Suspension(Permutation(((a, c),)), X))
        assert not derive_freshness(frozenset(), a, Suspension(Permutation(), X))


class TestAlphaC:
    def test_binder_rename_equality(self, lambda_signature):
        ctx = parse_context("a#X, b#X, c#X")
        s = parse_term("lam([a]app(a, X))", lambda_signature)
        t = parse_term("lam([b]app(b, (a c).X))", lambda_signature)
        assert derive_alpha_c(ctx, s, t, lambda_signature)
        assert not derive_alpha_c(parse_context("a#X, b#X"), s, t, lambda_signature)

    def test_commutative_crossed_pairing(self):
        sig = Signature({"f": (2, True)})
        assert derive_alpha_c(frozenset(), App("f", (a, b)), App("f", (b, a)), sig)
        assert not derive_alpha_c(
            frozenset(), App("f", (a, b)), App("f", (b, a)), Signature({"f": (2, False)})
        )

    def test_suspension_needs_difference_set(self):
        s = Suspension(Permutation(), X)
        t = Suspension(Permutation(((a, b),)), X)
        assert not derive_alpha_c(frozenset(), s, t, C_SIG)
        assert derive_alpha_c(parse_context("a#X, b#X"), s, t, C_SIG)

    def test_reflexive(self):
        rng = random.Random(2)
        for _ in range(100):
            t = random_term(rng, C_SIG, 3)
            assert derive_alpha_c(frozenset(), t, t, C_SIG)

    def test_symmetric_and_transitive_on_variants(self):
        rng = random.Random(3)
        for _ in range(150):
            ctx = random_context(rng)
            s = random_term(rng, C_SIG, 3)
            t = equivalent_variant(rng, ctx, s, C_SIG)
            u = equivalent_variant(rng, ctx, t, C_SIG)
            assert derive_alpha_c(ctx, s, t, C_SIG)
            assert derive_alpha_c(ctx, t, s, C_SIG)
            assert derive_alpha_c(ctx, s, u, C_SIG)

    def test_equivariance_on_ground_terms(self):
        rng = random.Random(4)
        for _ in range(150):
            s = random_ground_term(rng, C_SIG, 3)
            t = equivalent_variant(rng, frozenset(), s, C_SIG)
            pi = random_permutation(rng)
            assert derive_alpha_c(frozenset(), s, t, C_SIG)
            assert derive_alpha_c(
                frozenset(), permute_term(pi, s), permute_term(pi, t), C_SIG
            )


class TestContextNormalisation:
    def test_discharged_entirely(self):
        assert freshness_context_nf(parse_context("a#X"), Substitution({X: b})) == frozenset()

    def test_inconsistent_on_atom_capture(self):
        out = freshness_context_nf(parse_context("a#X"), Substitution({X: a}))
        assert out is INCONSISTENT

    def test_residual_primitive_constraints(self):
        theta = Substitution({X: App("f", (Suspension(Permutation(), Y), b))})
        out = freshness_context_nf(parse_context("a#X"), theta)
        assert out == parse_context("a#Y")

    def test_abstraction_discharges_own_atom(self):
        theta = Substitution({X: Abstraction(a, a)})
        assert freshness_context_nf(parse_context("a#X"), theta) == frozenset()

    def test_substitution_compatibility(self):
        # Derivable judgements survive instantiation when the instantiated
        # context stays consistent.
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            ctx = random_context(rng)
            s = random_term(rng, C_SIG, 3)
            t = equivalent_variant(rng, ctx, s, C_SIG)
            theta = random_substitution(rng, C_SIG)
            reduced = freshness_context_nf(ctx, theta)
            if reduced is INCONSISTENT:
                continue
            checked += 1
            assert derive_alpha_c(
                reduced, apply_subst(theta, s), apply_subst(theta, t), C_SIG
            )

    def test_freshness_compatibility(self):
        rng = random.Random(6)
        checked = 0
        while checked < 200:
            ctx = random_context(rng, size=6)
            t = random_term(rng, C_SIG, 3)
            atom = rng.choice(ATOMS)
            if not derive_freshness(ctx, atom, t):
                continue
            theta = random_substitution(rng, C_SIG)
            reduced = freshness_context_nf(ctx, theta)
            if reduced is INCONSISTENT:
                continue
            checked += 1
            assert derive_freshness(reduced, atom, apply_subst(theta, t))


# `a` is a prefix of `ab`, so a check that compared atom names by prefix would show.
HYP_ATOMS = st.sampled_from((a, b, Atom("ab")))
HYP_VARS = st.sampled_from((X, Y, Var("Z")))
HYP_PERMS = st.lists(st.tuples(HYP_ATOMS, HYP_ATOMS), max_size=2).map(
    lambda swaps: Permutation(tuple(swaps))
)
HYP_TERMS = st.recursive(
    HYP_ATOMS | st.builds(Suspension, HYP_PERMS, HYP_VARS),
    lambda inner: st.builds(Abstraction, HYP_ATOMS, inner)
    | st.builds(lambda s, t: App("c", (s, t)), inner, inner)
    | st.builds(lambda t: App("g", (t,)), inner),
    max_leaves=6,
)
HYP_CONTEXTS = st.frozensets(st.builds(FreshnessConstraint, HYP_ATOMS, HYP_VARS), max_size=5)


def _satisfies_by_normal_form(constrained, theta, ctx):
    """The earlier formulation of `satisfies_with`, kept as its oracle."""
    reduced = freshness_context_nf(constrained, theta)
    return reduced is not INCONSISTENT and reduced <= ctx


class TestSatisfaction:
    @settings(max_examples=400, deadline=None)
    @given(HYP_CONTEXTS, st.dictionaries(HYP_VARS, HYP_TERMS, max_size=3), HYP_CONTEXTS)
    def test_agrees_with_the_normal_form(self, constrained, images, ctx):
        theta = Substitution(images)
        assert satisfies_with(constrained, theta, ctx) == _satisfies_by_normal_form(constrained, theta, ctx)


class TestOracleAgreement:
    def test_sampled_ground_pairs_depth_four(self):
        from nomc import c_class_enumerate

        sig = Signature({"f": (2, False), "g": (1, False), "c": (2, True)})
        rng = random.Random(7)
        for _ in range(250):
            s = random_ground_term(rng, sig, 4, atoms=ATOMS[:3])
            t = (
                equivalent_variant(rng, frozenset(), s, sig)
                if rng.random() < 0.5
                else random_ground_term(rng, sig, 4, atoms=ATOMS[:3])
            )
            derived = derive_alpha_c(frozenset(), s, t, sig)
            by_class = alpha_key(t) in {alpha_key(m) for m in c_class_enumerate(s, sig)}
            assert derived == by_class, (str(s), str(t))


class TestAlphaKey:
    """Plain alpha-equal terms share their `alpha_key`, so step dedup may
    compare only terms with equal keys; over a signature, =ac terms do."""

    def test_bound_atoms_become_indices(self):
        assert alpha_key(parse_term("[a]a", LAMBDA_SIG)) == alpha_key(parse_term("[b]b", LAMBDA_SIG))
        assert alpha_key(parse_term("[a][b]app(a, b)", LAMBDA_SIG)) == alpha_key(parse_term("[b][a]app(b, a)", LAMBDA_SIG))
        assert alpha_key(parse_term("[a][a]a", LAMBDA_SIG)) != alpha_key(parse_term("[a][b]a", LAMBDA_SIG))
        assert alpha_key(parse_term("[a]b", LAMBDA_SIG)) != alpha_key(parse_term("[b]a", LAMBDA_SIG))
        # A bound atom and a free one never share a key.
        assert alpha_key(parse_term("lam([a]a)", LAMBDA_SIG)) != alpha_key(parse_term("lam([a]b)", LAMBDA_SIG))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_alpha_equal_terms_share_the_key(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            ctx = random_context(rng, size=8)
            s = random_term(rng, LAMBDA_SIG, 4)
            # Binders renamed under freshness, suspensions twisted within ctx.
            t = equivalent_variant(rng, ctx, s, LAMBDA_SIG)
            assert derive_alpha(ctx, s, t), (str(s), str(t))
            assert alpha_key(s) == alpha_key(t), (str(s), str(t))
            # Over two atoms, unrelated terms are alpha-equal now and then.
            u, v = (random_term(rng, LAMBDA_SIG, 2, atoms=ATOMS[:2]) for _ in range(2))
            if derive_alpha(ctx, u, v):
                assert alpha_key(u) == alpha_key(v), (str(u), str(v))

    def test_swapped_arguments_share_the_key_over_the_signature(self):
        s, t = parse_term("c(g(a), [b]X)", C_SIG), parse_term("c([a]X, g(a))", C_SIG)
        assert derive_alpha_c(parse_context("a#X, b#X"), s, t, C_SIG)
        assert alpha_key(s, C_SIG) == alpha_key(t, C_SIG)
        assert alpha_key(s) != alpha_key(t)
        assert alpha_key(parse_term("f(a, b)", C_SIG), C_SIG) != alpha_key(parse_term("f(b, a)", C_SIG), C_SIG)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_ac_equal_terms_share_the_key(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            ctx = random_context(rng, size=8)
            s = random_term(rng, C_SIG, 4)
            # Commutative arguments swapped too.
            t = equivalent_variant(rng, ctx, s, C_SIG)
            assert derive_alpha_c(ctx, s, t, C_SIG), (str(s), str(t))
            assert alpha_key(s, C_SIG) == alpha_key(t, C_SIG), (str(s), str(t))
            u, v = (random_term(rng, C_SIG, 2, atoms=ATOMS[:2]) for _ in range(2))
            if derive_alpha_c(ctx, u, v, C_SIG):
                assert alpha_key(u, C_SIG) == alpha_key(v, C_SIG), (str(u), str(v))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exact_on_ground_terms(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            roll = rng.random()
            if roll < 0.3:
                # Over two atoms, unrelated terms are =ac now and then.
                s, t = (random_ground_term(rng, C_SIG, 2, atoms=ATOMS[:2]) for _ in range(2))
            else:
                s = random_ground_term(rng, C_SIG, 4, atoms=ATOMS[:3])
                t = equivalent_variant(rng, frozenset(), s, C_SIG)
                if roll < 0.65:
                    # Two atoms swapped: sometimes =ac, mostly not.
                    x, y = rng.sample(ATOMS[:3], 2)
                    t = permute_term(Permutation(((x, y),)), t)
            same = alpha_key(s, C_SIG) == alpha_key(t, C_SIG)
            assert same == derive_alpha_c(frozenset(), s, t, C_SIG), (str(s), str(t))


class TestProblems:
    def test_empty_problem_holds(self):
        assert check_problem(frozenset(), (), C_SIG)

    def test_axiom_goals(self):
        goals = (FreshnessGoal(a, Abstraction(a, Suspension(Permutation(), X))),
                 EqualityGoal(a, a))
        assert check_problem(frozenset(), goals, C_SIG)

    def test_unsatisfiable_goal(self):
        assert not check_problem(parse_context("a#X, b#Y"), (FreshnessGoal(a, a),), C_SIG)
