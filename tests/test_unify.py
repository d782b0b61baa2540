"""Rule-based unification and matching modulo commutativity."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    EMPTY_CONTEXT,
    EqualityGoal,
    FAIL,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    IDENTITY,
    IDENTITY_SUBST,
    Permutation,
    STUCK,
    SearchSpaceExceeded,
    Signature,
    Substitution,
    Suspension,
    Term,
    UNKNOWN,
    UnificationState,
    Var,
    apply_subst,
    check_solution,
    derive_alpha_c,
    difference_set,
    enumerate_fixpoint_solutions,
    instance_of,
    match,
    parse_context,
    parse_term,
    permute_term,
    simplify_step,
    solve,
)
from nomc import unify
from nomc.alpha import alpha_key
from conftest import ATOMS, VARS, equivalent_variant, random_context, random_ground_term, random_term

a, b, e = Atom("a"), Atom("b"), Atom("e")
X, Y, Z = Var("X"), Var("Y"), Var("Z")
SIG = Signature({"h": (1, False), "fC": (2, True), "oplus": (2, True), "g": (1, False)})


def _solve(lhs: str, rhs: str, ctx="", protected=frozenset()):
    return solve(
        parse_context(ctx),
        parse_term(rhs, SIG),
        frozenset(),
        parse_term(lhs, SIG),
        protected,
        sig=SIG,
    )


class TestSimplifyStep:
    def test_application_decomposes(self):
        state = UnificationState(
            frozenset(),
            IDENTITY_SUBST,
            (EqualityGoal(parse_term("h(Y)", SIG), parse_term("h(fC([b][a]X, X))", SIG)),),
        )
        (successor,) = simplify_step(state, sig=SIG)
        assert successor.goals == (
            EqualityGoal(Suspension(Permutation(), Y), parse_term("fC([b][a]X, X)", SIG)),
        )

    def test_commutative_yields_two_states(self):
        state = UnificationState(
            frozenset(),
            IDENTITY_SUBST,
            (EqualityGoal(parse_term("fC(a, X)", SIG), parse_term("fC(b, Y)", SIG)),),
        )
        successors = simplify_step(state, sig=SIG)
        assert len(successors) == 2

    def test_commutative_with_coinciding_pairings_yields_one_state(self):
        state = UnificationState(
            frozenset(),
            IDENTITY_SUBST,
            (EqualityGoal(parse_term("fC(X, X)", SIG), parse_term("fC(a, a)", SIG)),),
        )
        (successor,) = simplify_step(state, sig=SIG)
        assert successor.goals == (EqualityGoal(Suspension(Permutation(), X), a),)

    def test_freshness_on_suspension_extends_context(self):
        hypothesis = FreshnessConstraint(e, Y)
        state = UnificationState(
            frozenset({hypothesis}), IDENTITY_SUBST, (FreshnessGoal(a, parse_term("(a b).X", SIG)),)
        )
        (successor,) = simplify_step(state, sig=SIG)
        assert successor.goals == ()
        assert successor.context == frozenset({hypothesis, FreshnessConstraint(b, X)})
        assert state.context == frozenset({hypothesis})

    def test_freshness_under_other_binder(self):
        state = UnificationState(
            frozenset(), IDENTITY_SUBST, (FreshnessGoal(a, parse_term("[b]h(X)", SIG)),)
        )
        (successor,) = simplify_step(state, sig=SIG)
        assert successor.goals == (FreshnessGoal(a, parse_term("h(X)", SIG)),)

    def test_atom_clash_fails(self):
        state = UnificationState(frozenset(), IDENTITY_SUBST, (EqualityGoal(a, b),))
        assert simplify_step(state, sig=SIG) is FAIL

    @staticmethod
    def _state(sig, *equations):
        goals = tuple(EqualityGoal(parse_term(l, sig), parse_term(r, sig)) for l, r in equations)
        return UnificationState(frozenset(), IDENTITY_SUBST, goals)

    def test_lone_fixpoint_equation_is_stuck(self, ex22_system):
        sig = ex22_system.signature
        assert simplify_step(self._state(sig, ("(a b).Z", "Z")), sig=sig) is STUCK

    def test_occurs_failure_beside_fixpoint_fails(self, ex22_system):
        sig = ex22_system.signature
        state = self._state(sig, ("X", "h(X)"), ("(a b).Z", "Z"))
        assert simplify_step(state, sig=sig) is FAIL
        state = self._state(sig, ("(a b).Z", "Z"), ("X", "h(X)"))
        assert simplify_step(state, sig=sig) is FAIL

    def test_occurs_check_skips_to_next_candidate(self, ex22_system):
        sig = ex22_system.signature
        state = self._state(sig, ("X", "h(X)"), ("Y", "a"))
        (successor,) = simplify_step(state, sig=sig)
        assert successor.subst == Substitution({Y: a})
        assert successor.goals == (EqualityGoal(Suspension(Permutation(), X), parse_term("h(X)", sig)),)

    def test_protected_variables_clash(self, ex22_system):
        sig = ex22_system.signature
        state = self._state(sig, ("X", "Y"))
        assert simplify_step(state, frozenset({X, Y}), sig=sig) is FAIL

    def test_cancelling_swappings_on_the_right_invert_then_stick(self):
        state = self._state(SIG, ("(a b).X", "(c d)(c d).X"))
        (inverted,) = simplify_step(state, sig=SIG)
        (goal,) = inverted.goals
        assert goal.rhs == Suspension(IDENTITY, X)
        assert simplify_step(inverted, sig=SIG) is STUCK
        (sol,) = _solve("(a b).X", "(c d)(c d).X")
        ((perm, var),) = sol.residual_fixpoints
        assert var == X and perm.moved_atoms() == {a, b}

    def test_cancelling_swappings_on_the_left_are_refl(self):
        (successor,) = simplify_step(self._state(SIG, ("(a b)(a b).X", "X")), sig=SIG)
        assert successor.goals == ()

    def test_protected_fixpoint_is_discharged_by_freshness(self):
        state = self._state(SIG, ("(a b).X", "X"))
        assert simplify_step(state, frozenset({X}), sig=SIG) is STUCK
        (sol,) = _solve("(a b).X", "X", protected=frozenset({X}))
        assert sol.context == frozenset({FreshnessConstraint(a, X), FreshnessConstraint(b, X)})
        assert sol.residual_fixpoints == () and sol.protected_fixpoint_discharged


class TestSolve:
    def test_plain_unifier(self):
        sols = _solve("h(Y)", "h(fC([b][a]X, X))")
        assert len(sols) == 1
        (sol,) = sols
        assert sol.subst == Substitution({Y: parse_term("fC([b][a]X, X)", SIG)})
        assert sol.context == frozenset()
        assert sol.residual_fixpoints == ()

    def test_fixpoint_residual(self):
        sols = _solve("fC([a][b]Z, Z)", "fC([b][a]X, X)")
        assert len(sols) == 1
        (sol,) = sols
        assert sol.subst == Substitution({Z: Suspension(Permutation(), X)})
        ((perm, var),) = sol.residual_fixpoints
        assert var == X and perm.moved_atoms() == {a, b}

    def test_atom_clash_unsolvable(self):
        assert _solve("a", "b") == ()

    def test_occurs_check(self):
        assert _solve("X", "h(X)") == ()

    def test_ground_solve_iff_equal(self):
        rng = random.Random(9)
        for _ in range(120):
            s = random_ground_term(rng, SIG, 3)
            t = (
                equivalent_variant(rng, frozenset(), s, SIG)
                if rng.random() < 0.6
                else random_ground_term(rng, SIG, 3)
            )
            equal = derive_alpha_c(frozenset(), s, t, SIG)
            sols = solve(frozenset(), t, frozenset(), s, sig=SIG)
            assert bool(sols) == equal, (str(s), str(t))

    def test_solutions_pass_check(self):
        rng = random.Random(10)
        from conftest import random_term

        for _ in range(120):
            s = random_term(rng, SIG, 2, variables=(X, Y))
            t = random_term(rng, SIG, 2, variables=(Z,))
            problem = UnificationState(frozenset(), IDENTITY_SUBST, (EqualityGoal(s, t),))
            for sol in solve(frozenset(), t, frozenset(), s, sig=SIG):
                if sol.residual_fixpoints:
                    continue
                assert check_solution((sol.context, sol.subst), problem, SIG)


class TestMatch:
    def test_rule_side_instantiates_only(self, prenex_system):
        sig = prenex_system.signature
        pattern = parse_term("or(P, exists([a]Q))", sig)
        subject = parse_term("or(exists([a]Q1), P1)", sig)
        sols = match(
            parse_context("a#P"), pattern, parse_context("a#P1"), subject, sig=sig
        )
        assert len(sols) == 1
        (sol,) = sols
        assert sol.subst == Substitution(
            {Var("P"): Suspension(Permutation(), Var("P1")),
             Var("Q"): Suspension(Permutation(), Var("Q1"))}
        )
        assert parse_context("a#P1") <= sol.context

    def test_bare_variable_matches_anything(self):
        sols = match(frozenset(), Suspension(Permutation(), X), frozenset(),
                     parse_term("g(a)", SIG), sig=SIG)
        assert len(sols) == 1
        assert sols[0].subst == Substitution({X: parse_term("g(a)", SIG)})

    def test_atom_clash(self):
        assert match(frozenset(), parse_term("g(a)", SIG), frozenset(),
                     parse_term("g(b)", SIG), sig=SIG) == ()

    def test_shared_variables_rejected(self):
        with pytest.raises(ValueError):
            match(frozenset(), parse_term("h(X)", SIG), frozenset(),
                  parse_term("h(X)", SIG), sig=SIG)

    def test_protected_vars_never_instantiated(self):
        rng = random.Random(11)
        from conftest import random_term

        for _ in range(120):
            pattern = random_term(rng, SIG, 2, variables=(X, Y))
            subject = random_term(rng, SIG, 2, variables=(Z,))
            for sol in match(frozenset(), pattern, frozenset(), subject, sig=SIG):
                assert Z not in sol.subst.domain

    def test_finitary_at_depth_four(self):
        # two commutative symbols, deeper terms: still a finite answer set
        # with no residual fixed points on the pattern side
        rng = random.Random(12)
        from conftest import random_term

        for _ in range(40):
            pattern = random_term(rng, SIG, 4, variables=(X, Y))
            subject = random_term(rng, SIG, 4, variables=(Z,))
            sols = match(frozenset(), pattern, frozenset(), subject, sig=SIG)
            assert isinstance(sols, tuple)
            for sol in sols:
                assert sol.residual_fixpoints == ()

    def test_protected_fixpoint_discharged_by_freshness(self):
        pattern = parse_term("fC(Z, (a b).Z)", SIG)
        subject = parse_term("fC(X, X)", SIG)
        sols = match(frozenset(), pattern, frozenset(), subject, sig=SIG)
        flagged = [s for s in sols if s.protected_fixpoint_discharged]
        assert flagged
        assert all(parse_context("a#X, b#X") <= s.context for s in flagged)
        assert all(not s.residual_fixpoints for s in sols)


def _residual_problem(rng, sig):
    """A problem of one of two shapes that leave fixed-point residuals,
    `fC([a][b]S, S) =? fC([b][a]T, T)` and `(a b).X =? X`, both sides under
    one random context whose commutative arguments may differ and mention Y."""
    if rng.random() < 0.5:
        s, t = parse_term("fC([a][b]S, S)", sig), parse_term("fC([b][a]T, T)", sig)
    else:
        s, t = Suspension(Permutation(((a, b),)), X), Suspension(IDENTITY, X)
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("g", "fC", "abs"))
        if kind == "g":
            s, t = App("g", (s,)), App("g", (t,))
        elif kind == "abs":
            binder = rng.choice((a, b))
            s, t = Abstraction(binder, s), Abstraction(binder, t)
        else:
            s = App("fC", (s, random_term(rng, sig, 1, atoms=(a, b), variables=(Y,))))
            t = App("fC", (random_term(rng, sig, 1, atoms=(a, b), variables=(Y,)), t))
    return s, t


class TestCompletenessOracle:
    def test_ground_solutions_are_instances_of_answers(self):
        # brute-force oracle: every ground substitution solving the problem
        # must be an instance of some returned solution; where the answers
        # carry residual fixed-point equations, an instance by a ground
        # substitution from the universe that satisfies the answer's context
        # and residuals
        from nomc import derive_freshness, term_vars
        from nomc.alpha import format_context

        sig = Signature({"fC": (2, True), "g": (1, False)})
        rng = random.Random(99)
        universe = [a, b]
        universe += [App("g", (t,)) for t in list(universe)]
        universe += [App("fC", (l, r)) for l in (a, b) for r in (a, b)]
        universe += [Abstraction(a, t) for t in (a, b)]
        # fC(a, b), above, g(fC(a, b)) and [a][b]c are fixed points of (a b),
        # the last one under binders
        universe += [App("g", (App("fC", (a, b)),)), Abstraction(a, Abstraction(b, Atom("c")))]

        def satisfies(delta, ctx, residuals):
            return all(derive_freshness(EMPTY_CONTEXT, c.atom, delta.get(c.var)) for c in ctx) and all(
                derive_alpha_c(EMPTY_CONTEXT, permute_term(perm, delta.get(v)), delta.get(v), sig)
                for perm, v in residuals
            )

        def ground_instances(sol, variables):
            """The images of `variables` under sol.subst followed by each
            ground delta over the universe that satisfies sol's context and
            its residuals."""
            images = [sol.subst.get(v) for v in variables]
            free = set().union(*map(term_vars, images), {c.var for c in sol.context})
            free = sorted(free | {v for _, v in sol.residual_fixpoints}, key=lambda v: v.name)
            for choice in itertools.product(universe, repeat=len(free)):
                delta = Substitution(dict(zip(free, choice)))
                if satisfies(delta, sol.context, sol.residual_fixpoints):
                    yield [apply_subst(delta, image) for image in images]

        problems = []
        for _ in range(150):
            s = random_term(rng, sig, 2, atoms=(a, b), variables=(X,))
            t = random_term(rng, sig, 2, atoms=(a, b), variables=(Y,))
            problems.append((EMPTY_CONTEXT, s, t))
        for _ in range(40):
            s, t = _residual_problem(rng, sig)
            variables = sorted(term_vars(s) | term_vars(t), key=lambda v: v.name)
            ctx = frozenset(FreshnessConstraint(atom, v) for atom in (a, b) for v in variables if rng.random() < 0.2)
            problems.append((ctx, s, t))
        with_residuals = 0
        for ctx, s, t in problems:
            sols = solve(ctx, t, frozenset(), s, sig=sig)
            variables = sorted(term_vars(s) | term_vars(t), key=lambda v: v.name)
            residual = any(sol.residual_fixpoints for sol in sols)
            with_residuals += residual
            instances = [found for sol in sols for found in ground_instances(sol, variables)] if residual else None
            for images in itertools.product(universe, repeat=len(variables)):
                theta = Substitution(dict(zip(variables, images)))
                if not satisfies(theta, ctx, ()) or not derive_alpha_c(
                    EMPTY_CONTEXT, apply_subst(theta, s), apply_subst(theta, t), sig
                ):
                    continue
                if residual:
                    assert any(
                        all(derive_alpha_c(EMPTY_CONTEXT, u, v, sig) for u, v in zip(images, instance))
                        for instance in instances
                    ), (format_context(ctx), str(s), str(t), str(theta))
                    continue
                assert any(
                    instance_of(
                        (sol.context, sol.subst),
                        (EMPTY_CONTEXT, theta),
                        set(variables),
                        sig=sig,
                    )
                    is True
                    for sol in sols
                ), (str(s), str(t), str(theta))
        assert with_residuals >= 20


class TestCheckSolution:
    PROBLEM = UnificationState(
        frozenset(),
        IDENTITY_SUBST,
        (EqualityGoal(Suspension(Permutation(((a, b),)), X), Suspension(Permutation(), X)),),
    )

    def test_freshness_solution(self):
        candidate = (parse_context("a#X, b#X"), Substitution({X: parse_term("g(e)", SIG)}))
        assert check_solution(candidate, self.PROBLEM, SIG)

    def test_commutative_solution(self):
        assert check_solution(
            (frozenset(), Substitution({X: parse_term("oplus(a, b)", SIG)})),
            self.PROBLEM,
            SIG,
        )

    def test_rejects_moved_atom(self):
        assert not check_solution(
            (frozenset(), Substitution({X: a})), self.PROBLEM, SIG
        )


class TestInstanceOf:
    def test_identity_most_general(self):
        assert instance_of(
            (frozenset(), IDENTITY_SUBST),
            (frozenset(), Substitution({X: a})),
            {X},
            sig=SIG,
        ) is True

    def test_distinct_atoms_not_instances(self):
        assert instance_of(
            (frozenset(), Substitution({X: a})),
            (frozenset(), Substitution({X: b})),
            {X},
            sig=SIG,
        ) is False

    def test_general_context_must_hold_under_the_specific_one(self):
        general = (parse_context("a#Y"), Substitution({X: Suspension(Permutation(), Y)}))
        assert instance_of(general, (frozenset(), Substitution({X: a})), {X}, sig=SIG) is False
        fresh = (parse_context("a#Z"), Substitution({X: Suspension(Permutation(), Z)}))
        assert instance_of(general, fresh, {X}, sig=SIG) is True

    def test_commutative_witness(self):
        general = (frozenset(), Substitution({X: parse_term("fC(Y, b)", SIG)}))
        specific = (frozenset(), Substitution({X: parse_term("fC(b, a)", SIG)}))
        assert instance_of(general, specific, {X}, sig=SIG) is True

    def test_unknown_on_residual_blocked_search(self):
        general = (frozenset(), Substitution({X: parse_term("fC([a][b]Y, Y)", SIG)}))
        specific = (frozenset(), Substitution({X: parse_term("fC([b][a]Z, Z)", SIG)}))
        out = instance_of(general, specific, {X}, sig=SIG)
        assert out is UNKNOWN

    @staticmethod
    def _answers(seed):
        """The answers instance_of's search finds on a seeded problem over X
        and Y. The specific side is the general one composed with a random
        substitution sigma, so a witness exists. Two seeds in three twist it
        towards fixed-point equations: in one, X's images are fC([p][q]s, s)
        and fC([r][t]sigma(s), sigma(s)) for random binders; in the other,
        each specific image is replaced by an =ac variant under the specific
        context."""
        rng = random.Random(seed)

        def binder_pair(body):
            p, q = rng.sample(ATOMS, 2)
            return App("fC", (Abstraction(p, Abstraction(q, body)), body))

        general = Substitution({v: random_term(rng, SIG, 3) for v in (X, Y) if rng.random() < 0.8})
        sigma = Substitution({v: random_term(rng, SIG, 2) for v in VARS if rng.random() < 0.6})
        context = random_context(rng, size=6)
        specific = general.compose(sigma)
        if seed % 3 == 0:
            body = random_term(rng, SIG, 2)
            general = Substitution({X: binder_pair(body), Y: general.get(Y)})
            specific = Substitution({X: binder_pair(apply_subst(sigma, body)), Y: specific.get(Y)})
        elif seed % 3 == 1:
            specific = Substitution({v: equivalent_variant(rng, context, specific.get(v), SIG) for v in (X, Y)})
        answers, leaf_solutions = [], unify._leaf_solutions

        def recording(*args):
            found = leaf_solutions(*args)
            answers.extend(found)
            return found

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(unify, "_leaf_solutions", recording)
            try:
                instance_of((random_context(rng), general), (context, specific), {X, Y}, sig=SIG, max_states=2000)
            except SearchSpaceExceeded:
                pass
        return answers

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_answer_under_its_protection_carries_a_residual(self, seed):
        # Why instance_of has no case for residual-carrying answers: a goal
        # pairs a general-side term with a specific-side one, the search binds
        # only unprotected variables, so every right-hand side mentions
        # protected variables only; a fixed-point equation has one variable
        # on both sides, so it is on a protected variable and is discharged.
        assert not any(answer.residual_fixpoints for answer in self._answers(seed))

    def test_the_property_meets_protected_fixed_points(self):
        answers = [answer for seed in range(300) for answer in self._answers(seed)]
        assert sum(answer.protected_fixpoint_discharged for answer in answers) >= 20, len(answers)


class TestFixpointEnumeration:
    def test_freshness_solution_first(self):
        sols = enumerate_fixpoint_solutions(Permutation(((a, b),)), X, SIG, 0)
        assert sols == ((parse_context("a#X, b#X"), IDENTITY_SUBST),)

    def test_depth_one_includes_commutative_pair(self):
        sols = enumerate_fixpoint_solutions(Permutation(((a, b),)), X, SIG, 1)
        images = [s.get(X) for _, s in sols[1:]]
        assert parse_term("oplus(a, b)", SIG) in images

    def test_depth_two_includes_nested_pair(self):
        sols = enumerate_fixpoint_solutions(Permutation(((a, b),)), X, SIG, 2)
        images = [s.get(X) for _, s in sols[1:]]
        assert parse_term("oplus(oplus(a, b), oplus(a, b))", SIG) in images

    def test_every_solution_validates(self):
        problem = UnificationState(
            frozenset(),
            IDENTITY_SUBST,
            (EqualityGoal(Suspension(Permutation(((a, b),)), X), Suspension(Permutation(), X)),),
        )
        for ctx, subst in enumerate_fixpoint_solutions(Permutation(((a, b),)), X, SIG, 2):
            assert check_solution((ctx, subst), problem, SIG)

    def test_identity_permutation_rejected(self):
        with pytest.raises(ValueError):
            enumerate_fixpoint_solutions(Permutation(), X, SIG, 1)

    def test_no_commutative_symbols_only_freshness(self):
        plain = Signature({"g": (1, False)})
        sols = enumerate_fixpoint_solutions(Permutation(((a, b),)), X, plain, 3)
        assert len(sols) == 1


def _pairwise_enumerator(
    perm: Permutation,
    var: Var,
    sig: Signature,
    depth: int,
) -> tuple[tuple[FreshnessContext, Substitution], ...]:
    """The enumerator as it was before it kept one term per commutative class:
    every ordered pair at each level, deduplicated by derive_alpha_c."""
    moved = difference_set(perm, IDENTITY)
    if not moved:
        raise ValueError("fixed-point enumeration requires a non-identity permutation")
    problem = UnificationState(
        EMPTY_CONTEXT,
        IDENTITY_SUBST,
        (EqualityGoal(Suspension(perm, var), Suspension(IDENTITY, var)),),
    )
    freshness = frozenset(FreshnessConstraint(a, var) for a in moved)
    out: list[tuple[FreshnessContext, Substitution]] = [(freshness, IDENTITY_SUBST)]
    kept_terms: list[Term] = []
    pool: list[Term] = sorted(moved, key=lambda a: a.name)
    for _ in range(depth):
        grown = list(pool)
        for sym in sig.commutative_symbols:
            for left in pool:
                for right in pool:
                    candidate = App(sym, (left, right))
                    if candidate not in grown:
                        grown.append(candidate)
        for candidate in sorted(set(grown) - set(pool), key=str):
            theta = Substitution({var: candidate})
            if not check_solution((EMPTY_CONTEXT, theta), problem, sig):
                continue
            if any(derive_alpha_c(EMPTY_CONTEXT, candidate, t, sig) for t in kept_terms):
                continue
            kept_terms.append(candidate)
            out.append((EMPTY_CONTEXT, theta))
        pool = grown
    return tuple(out)


def _filtering_enumerator(
    perm: Permutation,
    var: Var,
    sig: Signature,
    depth: int,
) -> tuple[tuple[FreshnessContext, Substitution], ...]:
    """The enumerator as it was before it built the fixed classes: every
    commutative class over the moved atoms, as its least member by `str`,
    kept when check_solution accepts it."""
    moved = difference_set(perm, IDENTITY)
    if not moved:
        raise ValueError("fixed-point enumeration requires a non-identity permutation")
    problem = UnificationState(
        EMPTY_CONTEXT,
        IDENTITY_SUBST,
        (EqualityGoal(Suspension(perm, var), Suspension(IDENTITY, var)),),
    )
    freshness = frozenset(FreshnessConstraint(a, var) for a in moved)
    out: list[tuple[FreshnessContext, Substitution]] = [(freshness, IDENTITY_SUBST)]
    pool: list[Term] = sorted(moved, key=lambda a: a.name)
    for _ in range(depth):
        grown = {
            App(sym, tuple(sorted(pair, key=str)))
            for sym in sig.commutative_symbols
            for pair in itertools.combinations_with_replacement(pool, 2)
        }
        level = sorted(grown.difference(pool), key=str)
        for candidate in level:
            theta = Substitution({var: candidate})
            if check_solution((EMPTY_CONTEXT, theta), problem, sig):
                out.append((EMPTY_CONTEXT, theta))
        pool += level
    return tuple(out)


def _brute_force_fixed_classes(perm: Permutation, sig: Signature, depth: int) -> list[Term]:
    """Every term built from `perm`'s moved atoms and `sig`'s commutative
    symbols up to height `depth` that `perm` fixes modulo C, one per
    commutative class (grouped by `alpha_key`) as its least member by `str`,
    ordered by height and then by `str`."""
    levels = [sorted(perm.moved_atoms(), key=str)]
    for _ in range(depth):
        below = [t for level in levels for t in level]
        top = set(levels[-1])
        levels.append(
            [
                App(sym, (l, r))
                for sym in sig.commutative_symbols
                for l in below
                for r in below
                if l in top or r in top
            ]
        )
    classes: dict[object, tuple[int, Term]] = {}
    for height, level in enumerate(levels):
        for t in level:
            if derive_alpha_c(EMPTY_CONTEXT, permute_term(perm, t), t, sig):
                key = alpha_key(t, sig)
                if key not in classes or str(t) < str(classes[key][1]):
                    classes[key] = (height, t)
    return [t for _, t in sorted(classes.values(), key=lambda entry: (entry[0], str(entry[1])))]


# Atom and symbol names that are prefixes of one another, so a least member
# by str cannot be read off a shorter name alone. Three swappings give
# 3-cycles, 4-cycles and products of two swappings, whose squares still move
# atoms, so the construction recurses through pi^2 and pi^4.
HYP_ATOMS = st.sampled_from([Atom(n) for n in ("a", "ab", "fa", "z")])
HYP_PERMS = (
    st.lists(st.tuples(HYP_ATOMS, HYP_ATOMS), min_size=1, max_size=3)
    .map(lambda swaps: Permutation(tuple(swaps)))
    .filter(lambda p: p.moved_atoms())
)
HYP_SIGS = st.lists(st.sampled_from(("f", "fC", "g")), max_size=2, unique=True).map(
    lambda comm: Signature({"h": (1, False), **{s: (2, True) for s in comm}})
)


class TestFixpointClasses:
    @settings(max_examples=150, deadline=None)
    @given(HYP_PERMS, HYP_SIGS, st.integers(0, 2))
    def test_equals_the_filtering_enumerator(self, perm, sig, depth):
        assert enumerate_fixpoint_solutions(perm, X, sig, depth) == _filtering_enumerator(perm, X, sig, depth)

    @pytest.mark.parametrize("names", ["abc", "abcd"])
    def test_equals_the_filtering_enumerator_through_squares(self, names):
        # The cycle (a b)(b c)...: a 4-cycle's square is a product of two
        # swappings and its fourth power the identity; no power of a 3-cycle
        # fixes an atom.
        cycle = [Atom(n) for n in names]
        perm = Permutation(tuple(zip(cycle, cycle[1:])))
        sig = Signature({"fC": (2, True)})
        assert enumerate_fixpoint_solutions(perm, X, sig, 3) == _filtering_enumerator(perm, X, sig, 3)

    @settings(max_examples=60, deadline=None)
    @given(HYP_PERMS, HYP_SIGS, st.integers(0, 2))
    def test_equals_the_pairwise_enumerator(self, perm, sig, depth):
        assert enumerate_fixpoint_solutions(perm, X, sig, depth) == _pairwise_enumerator(
            perm, X, sig, depth
        )

    # One commutative symbol and one swapping keep the oracle near a second
    # at depth 3, the first depth where a solution's children differ in depth.
    @pytest.mark.parametrize("names, sym", [(("z", "zz"), "f"), (("a", "ab"), "fC")])
    def test_equals_the_pairwise_enumerator_at_depth_three(self, names, sym):
        perm = Permutation(((Atom(names[0]), Atom(names[1])),))
        sig = Signature({sym: (2, True)})
        assert enumerate_fixpoint_solutions(perm, X, sig, 3) == _pairwise_enumerator(perm, X, sig, 3)

    @settings(max_examples=60, deadline=None)
    @given(HYP_PERMS, HYP_SIGS, st.integers(0, 2))
    def test_terms_pairwise_distinct_modulo_commutativity(self, perm, sig, depth):
        terms = [s.get(X) for _, s in enumerate_fixpoint_solutions(perm, X, sig, depth)[1:]]
        for i, s in enumerate(terms):
            assert not any(derive_alpha_c(frozenset(), s, t, sig) for t in terms[i + 1 :])

    def test_depth_three_over_ex22(self, ex22_system):
        sig = ex22_system.signature
        c, d = Atom("c"), Atom("d")
        for swappings, count in ((((a, b),), 219), (((a, b), (c, d)), 2205), (((a, b), (b, c)), 1)):
            perm = Permutation(swappings)
            sols = enumerate_fixpoint_solutions(perm, X, sig, 3)
            assert len(sols) == count
            terms = [s.get(X) for _, s in sols[1:]]
            assert len({alpha_key(t, sig) for t in terms}) == len(terms)
            assert all(derive_alpha_c(EMPTY_CONTEXT, permute_term(perm, t), t, sig) for t in terms)

    @pytest.mark.parametrize(
        "swappings, depth, count", [("ab", 2, 12), ("ab cd", 2, 40), ("ab bc", 2, 0), ("ab cd", 1, 4)]
    )
    def test_exactly_the_brute_force_classes_over_ex22(self, ex22_system, swappings, depth, count):
        # Depth 3 takes seconds, so CI's count step (219, 2,205 and 1) covers it.
        sig = ex22_system.signature
        perm = Permutation(tuple((Atom(x), Atom(y)) for x, y in swappings.split()))
        expected = _brute_force_fixed_classes(perm, sig, depth)
        assert len(expected) == count
        assert [s.get(X) for _, s in enumerate_fixpoint_solutions(perm, X, sig, depth)[1:]] == expected
