"""Rewriting steps, normalisation, the ground class oracle, and coherence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    Permutation,
    REJECTED,
    RewriteRule,
    RewriteSystem,
    Signature,
    StepLimitExceeded,
    Suspension,
    Var,
    WITNESSED,
    alpha_variants,
    c_class_enumerate,
    canonical_alpha,
    coherence_check,
    derive_alpha,
    derive_alpha_c,
    is_ground,
    normal_form_equal_check,
    normalize,
    one_step_rewrites,
    parse_context,
    parse_system,
    parse_term,
    permute_term,
    primary_rewrite_steps,
    r_over_e_one_step,
    solve,
    subterm_at,
    term_atoms,
    term_vars,
    verify_rewrite_step,
)
from nomc import rewriting
from nomc.alpha import EMPTY_CONTEXT
from nomc.cli import load_system_file
from nomc.rewriting import (
    clash_permutation,
    permute_rule,
    rename_rule_with_map,
    skeleton_fits,
)
from nomc.unify import DEFAULT_MAX_STATES
from conftest import (
    ATOMS,
    equivalent_variant,
    random_context,
    random_ground_term,
    random_prenex_formula,
    random_prenex_pattern,
    random_term,
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
    def test_equal_iff_alpha_equal(self):
        rng = random.Random(23)
        from conftest import random_ground_term

        for _ in range(150):
            s = random_ground_term(rng, CSIG, 3)
            t = random_ground_term(rng, CSIG, 3)
            assert (canonical_alpha(s) == canonical_alpha(t)) == derive_alpha(
                frozenset(), s, t
            )

    def test_variants_share_canonical_form(self):
        s = Abstraction(a, App("oplus", (a, b)))
        t = Abstraction(c, App("oplus", (c, b)))
        assert canonical_alpha(s) == canonical_alpha(t)


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
    return [(s.rule, s.position, s.perm, s.subst, s.result, s.rule_instance) for s in steps]


def _normalize_outcome(ctx, term, system):
    try:
        nf, trace = normalize(ctx, term, system, 6)
    except StepLimitExceeded as exc:
        return "limit", exc.term, _step_fields(exc.trace)
    return "nf", nf, _step_fields(trace)


class TestPreparedRules:
    """Rules are renamed once per avoid set; reusing them may not change a
    step."""

    # Ground, then non-ground (variables named like the rules' own), then
    # ground again, so a reused system's memo must follow the avoid set.
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
            direct = clash_permutation(step.rule_instance, term_atoms(sub), term_atoms(term))
            assert direct is not None and step.perm == direct

    def test_oracle_renames_each_rule_at_most_twice(self, monkeypatch):
        renamed = []
        original = rewriting.rename_rule_with_map

        def counting(rule, avoid):
            renamed.append(rule.name)
            return original(rule, avoid)

        monkeypatch.setattr(rewriting, "rename_rule_with_map", counting)
        loaded = load_system_file("prenex").system
        system = RewriteSystem(loaded.rules, loaded.signature)  # a cold renaming memo
        term = parse_term("and(a, not(or(b, forall([a]and(c, exists([b]a))))))", system.signature)
        assert normal_form_equal_check(frozenset(), term, system, 10)
        assert renamed
        assert max(renamed.count(rule.name) for rule in system.rules) <= 2


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
    """`skeleton_fits` may only reject a rule that has no matcher (or, in
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
            if not skeleton_fits(rule.lhs, sub, sig, unify=False):
                for used in candidates:
                    assert rewriting._verified_matchers(delta, sub, used, sig, 100_000) == [], (rule, sub)
            if not skeleton_fits(rule.lhs, sub, sig, unify=True):
                for used in candidates:
                    assert solve(delta, sub, used.context, used.lhs, sig=sig) == (), (rule, sub)

    def test_subject_variables_fit_only_when_unifying(self, prenex_system):
        sig = prenex_system.signature
        lhs = parse_term("not(exists([a]Q))", sig)
        sub = parse_term("not(X)", sig)
        assert not skeleton_fits(lhs, sub, sig, unify=False)
        assert skeleton_fits(lhs, sub, sig, unify=True)
        assert skeleton_fits(lhs, parse_term("not(exists([b]c))", sig), sig, unify=False)

    def test_commutative_arguments_fit_in_either_order(self, prenex_system):
        sig = prenex_system.signature
        lhs = parse_term("and(P, forall([a]Q))", sig)
        assert skeleton_fits(lhs, parse_term("and(forall([b]c), not(a))", sig), sig, unify=False)
        assert not skeleton_fits(lhs, parse_term("and(not(a), exists([b]c))", sig), sig, unify=False)
        plain = sig.without_commutativity()
        assert not skeleton_fits(lhs, parse_term("and(forall([b]c), not(a))", sig), plain, unify=False)

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

    def test_head_index_keeps_declaration_order(self):
        for system in SKELETON_SYSTEMS.values():
            assert sum(len(bucket) for bucket in system.by_head.values()) == len(system.rules)
            for key, bucket in system.by_head.items():
                assert bucket == tuple(rule for rule in system.rules if rewriting.head_key(rule.lhs) == key)
        prenex = SKELETON_SYSTEMS["prenex"]
        assert [rule.name for rule in prenex.by_head[("and", 2)]] == ["and_forall", "and_exists"]
        assert [rule.name for rule in prenex.by_head[("not", 1)]] == ["not_exists", "not_forall"]


def _eager_r_over_e_one_step(term, system, *, max_states=DEFAULT_MAX_STATES):
    """`r_over_e_one_step` as it was before the class scan became lazy: every
    source's primary steps, deduplicated there by alpha, then modulo =ac."""
    if not is_ground(term):
        raise ValueError("the class-rewriting oracle is only defined on ground terms")
    plain = system.without_commutativity()
    sig = system.signature
    results = []
    for source in rewriting._ground_oracle_sources(term, system):
        for step in primary_rewrite_steps(EMPTY_CONTEXT, source, plain, max_states=max_states):
            if not any(derive_alpha_c(EMPTY_CONTEXT, step.result, r, sig) for r in results):
                results.append(step.result)
    return tuple(results)


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


def _pairwise_coherence_check(system, samples, max_steps, *, max_states=DEFAULT_MAX_STATES):
    """`coherence_check` as it was before its reach sets were memoised: each
    `t2` reduct's reach set is recomputed for every `t1` step."""
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
            reach_left = rewriting._reachable(delta, step.result, system, max_steps, max_states)
            if t2_steps is None:
                t2_steps = primary_rewrite_steps(delta, t2, system, max_states=max_states)
            witnessed = False
            for right in t2_steps:
                reach_right = rewriting._reachable(delta, right.result, system, max_steps, max_states)
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

    def test_no_reach_set_is_computed_twice(self, monkeypatch, prenex_system):
        seen = []
        original = rewriting._reachable

        def recording(delta, term, system, max_steps, max_states):
            seen.append(term)
            return original(delta, term, system, max_steps, max_states)

        monkeypatch.setattr(rewriting, "_reachable", recording)
        sig = prenex_system.signature
        t1 = parse_term("or(not(forall([a]b)), not(forall([c]d)))", sig)
        t2 = parse_term("or(not(forall([c]d)), not(forall([a]b)))", sig)
        (verdict,) = coherence_check(prenex_system, [(frozenset(), t1, t2)], 3)
        assert verdict.status == WITNESSED
        assert len(seen) > 2
        assert len(set(seen)) == len(seen)
