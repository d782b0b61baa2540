"""Term walkers against their old recursive copies, and the sharing they add.

The walkers in nomc dispatch on the node's type, loop over arguments and give
back a node itself wherever nothing below it changed. Each must answer as
its reference in `conftest.py` does; terms are compared field by field with
`reference_same_term`, since `==` and identity are what changed.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    IDENTITY,
    IDENTITY_SUBST,
    Abstraction,
    App,
    FreshnessConstraint,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Var,
    apply_subst,
    derive_alpha_c,
    derive_freshness,
    permute_term,
    subterm_at,
    term_atoms,
    term_vars,
)
from nomc.alpha import satisfies_with
from nomc.rewriting import RewriteRule, RewriteSystem
from nomc.terms import replace_at, subterms_with_positions
from conftest import (
    ATOMS,
    VARS,
    equivalent_variant,
    lhs_fits,
    random_context,
    random_ground_term,
    random_permutation,
    random_term,
    reference_apply_subst,
    reference_compose,
    reference_derive_alpha_c,
    reference_derive_freshness,
    reference_permute_term,
    reference_replace_at,
    reference_same_term,
    reference_skeleton_fits,
    reference_subterm_at,
    reference_term_atoms,
    reference_term_vars,
)

# Every arity from 0 to 3: the walkers unroll one and two arguments, and the
# ternary `t`, which no bundled signature has, keeps their general loop run.
SIG = Signature({"f": (2, False), "fC": (2, True), "g": (1, False), "k": (0, False), "t": (3, False)})
SEEDS = st.integers(0, 2**32 - 1)


def _term(rng):
    return random_term(rng, SIG, rng.randint(0, 4))


def _subst(rng):
    """A substitution whose images may hold variables and suspensions."""
    return Substitution({v: _term(rng) for v in VARS if rng.random() < 0.6})


def _small_terms(sizes):
    """Every term of each size up to `sizes`, counted in nodes, as a list per
    size. Leaves are a, b, X and (a b).X; g, [a] and [b] are unary, and fC
    binary (commutative, which freshness does not read)."""
    a, b = ATOMS[:2]
    X = Var("X")
    by_size = [[], [a, b, Suspension(IDENTITY, X), Suspension(Permutation(((a, b),)), X)]]
    for size in range(2, sizes + 1):
        terms = []
        for body in by_size[size - 1]:
            terms += [App("g", (body,)), Abstraction(a, body), Abstraction(b, body)]
        for left_size in range(1, size - 1):
            terms += [App("fC", pair) for pair in itertools.product(by_size[left_size], by_size[size - 1 - left_size])]
        by_size.append(terms)
    return by_size


def _same_outcome(walker, reference, *args):
    """Whether `walker` gives the term `reference` gives, or raises the same
    ValueError."""
    try:
        expected = reference(*args)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            walker(*args)
        return str(got.value) == str(err)
    return reference_same_term(walker(*args), expected)


def _same_substitution(theta, other):
    """Equal substitutions whose images are the same field by field."""
    pairs, others = theta.items(), other.items()
    return (
        theta == other
        and len(pairs) == len(others)
        and all(v is w and reference_same_term(s, t) for (v, s), (w, t) in zip(pairs, others))
    )


def _shares_untouched(term, result, untouched):
    """Every subterm of `term` that `untouched` accepts sits, as the same
    object, at its position in `result`."""
    return all(
        subterm_at(result, pos.path) is sub for pos, sub in subterms_with_positions(term) if untouched(sub)
    )


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_term_walkers(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            term, theta, perm = _term(rng), _subst(rng), random_permutation(rng, max_swaps=3)
            assert reference_same_term(apply_subst(theta, term), reference_apply_subst(theta, term))
            assert reference_same_term(permute_term(perm, term), reference_permute_term(perm, term))
            assert term_vars(term) == reference_term_vars(term)
            assert term_atoms(term) == reference_term_atoms(term)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_judgements(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            ctx, s = random_context(rng), _term(rng)
            # Equal pairs, pairs sharing subterms, and unrelated pairs.
            for t in (equivalent_variant(rng, ctx, s, SIG), apply_subst(_subst(rng), s), _term(rng)):
                assert derive_alpha_c(ctx, s, t, SIG) == reference_derive_alpha_c(ctx, s, t, SIG)
            for atom in ATOMS:
                assert derive_freshness(ctx, atom, s) == reference_derive_freshness(ctx, atom, s)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_positions(self, seed):
        # Every position of the term, and paths it does not have: an index
        # past the arity or below 0, a non-zero index under a binder, any
        # index under an atom or a suspension, each also with a step after.
        rng = random.Random(seed)
        for _ in range(10):
            term, new = _term(rng), _term(rng)
            for pos, sub in subterms_with_positions(term):
                if isinstance(sub, App):
                    wrong = [len(sub.args), -1]
                elif isinstance(sub, Abstraction):
                    wrong = [1]
                else:
                    wrong = [0]
                paths = [pos.path] + [pos.path + (i,) for i in wrong] + [pos.path + (i, 0) for i in wrong]
                for path in paths:
                    assert _same_outcome(subterm_at, reference_subterm_at, term, path)
                    assert _same_outcome(replace_at, reference_replace_at, term, path, new)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_compose(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            theta, other = _subst(rng), _subst(rng)
            for left, right in ((theta, other), (other, theta), (theta, IDENTITY_SUBST), (IDENTITY_SUBST, other)):
                assert _same_substitution(left.compose(right), reference_compose(left, right))

    def test_compose_drops_an_image_that_becomes_its_variable(self):
        X, Y = VARS[:2]
        first = Substitution({X: Suspension(IDENTITY, Y)})
        second = Substitution({Y: Suspension(IDENTITY, X)})
        composed = first.compose(second)
        assert _same_substitution(composed, reference_compose(first, second))
        assert composed.domain == {Y} and str(composed) == "[Y -> X]"
        # A composition with the identity is the other operand itself.
        assert first.compose(IDENTITY_SUBST) is first and IDENTITY_SUBST.compose(second) is second

    def test_freshness_on_every_small_term(self):
        # Every term up to six nodes, under every context on X over a and b,
        # for both atoms.
        a, b = ATOMS[:2]
        X = Var("X")
        by_size = _small_terms(6)
        assert [len(terms) for terms in by_size[1:]] == [4, 12, 52, 252, 1316, 7212]
        contexts = [frozenset(), frozenset({FreshnessConstraint(a, X)}), frozenset({FreshnessConstraint(b, X)})]
        contexts.append(contexts[1] | contexts[2])
        judged = 0
        for terms in by_size:
            for term in terms:
                for ctx in contexts:
                    for atom in (a, b):
                        assert derive_freshness(ctx, atom, term) == reference_derive_freshness(ctx, atom, term), (
                            str(term), str(atom), sorted(map(str, ctx)))
                        judged += 1
        assert judged == 70_784

    def test_freshness_of_a_deep_term(self):
        # 100,000 nested applications: the judgement loops, so no recursion
        # limit applies.
        a, b = ATOMS[:2]
        X = Var("X")
        term = b
        for _ in range(100_000):
            term = App("g", (term,))
        assert derive_freshness(frozenset(), a, term)
        assert not derive_freshness(frozenset(), b, term)
        assert satisfies_with(frozenset({FreshnessConstraint(a, X)}), Substitution({X: term}), frozenset())

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_skeleton_fits(self, seed):
        # The fit masks of a one-rule system against the recursive test,
        # on left-hand sides of every shape up to depth 4.
        rng = random.Random(seed)
        for _ in range(10):
            lhs = _term(rng)
            if isinstance(lhs, Suspension):
                continue
            rule = RewriteRule("r", frozenset(), lhs, lhs)
            system = RewriteSystem((rule,), SIG)
            for sub in (apply_subst(_subst(rng), lhs), _term(rng), random_ground_term(rng, SIG, 3)):
                for unify in (False, True):
                    assert lhs_fits(system, rule, sub, unify) == reference_skeleton_fits(lhs, sub, SIG, unify)


class TestSharing:
    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_substitution_keeps_what_it_does_not_bind(self, seed):
        rng = random.Random(seed)
        term, theta = _term(rng), _subst(rng)
        outside = Substitution({v: theta.get(v) for v in theta.domain - term_vars(term)})
        assert apply_subst(outside, term) is term
        result = apply_subst(theta, term)
        assert _shares_untouched(term, result, lambda sub: not (term_vars(sub) & theta.domain))

    @settings(max_examples=200, deadline=None)
    @given(SEEDS)
    def test_permutation_keeps_what_it_fixes(self, seed):
        rng = random.Random(seed)
        perm = random_permutation(rng, max_swaps=3)
        fixed = [atom for atom in ATOMS if perm.act(atom) is atom]
        if fixed:
            ground = random_ground_term(rng, SIG, 3, atoms=fixed)
            assert permute_term(perm, ground) is ground
        term = _term(rng)

        def untouched(sub):
            return not term_vars(sub) and all(perm.act(atom) is atom for atom in term_atoms(sub))

        assert _shares_untouched(term, permute_term(perm, term), untouched)

    def test_a_rebuilt_node_keeps_its_other_children(self):
        a, b, c, d = ATOMS
        X = Var("X")
        kept = App("g", (Abstraction(a, b),))
        instance = apply_subst(Substitution({X: c}), App("f", (Suspension(IDENTITY, X), kept)))
        assert instance.args[0] is c and instance.args[1] is kept
        # Each argument of an application of every arity is rebuilt alone.
        for sym in ("k", "g", "f", "t"):
            arity = SIG.arity(sym)
            leaf = App(sym, (kept,) * arity)
            assert apply_subst(Substitution({X: c}), leaf) is leaf
            for hole in range(arity):
                args = [kept] * arity
                args[hole] = App("g", (Suspension(IDENTITY, X),))
                instance = apply_subst(Substitution({X: c}), App(sym, tuple(args)))
                args[hole] = App("g", (c,))
                assert reference_same_term(instance, App(sym, tuple(args)))
                assert all(instance.args[i] is kept for i in range(arity) if i != hole)
        swap = Permutation(((c, d),))
        moved = permute_term(swap, App("f", (c, kept)))
        assert moved.args[0] is d and moved.args[1] is kept
        assert permute_term(swap, Abstraction(c, kept)).body is kept
