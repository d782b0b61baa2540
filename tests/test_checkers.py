"""Checkers that can say no: tampered steps must be rejected.

Every other test feeds the step checkers (`verify_rewrite_step`,
`narrowing_to_rewriting`, `lifting_forward_check`, `check_solution`) only
steps the engine produced, which they accept. Here each genuine step gets one
field changed so that the step is wrong by construction, and the checker must
reject it. The sources are the rewrites and normalisations among the bundled
`problems:` lines and the edges of two bundled narrowing trees.

Conversely, every rewrite step must replay from the rule instance it
records, as it is, clash-shifted steps included.
"""

import collections
import itertools
import random
import shlex

import pytest

from nomc import (
    EMPTY_CONTEXT,
    App,
    Atom,
    EqualityGoal,
    FreshnessGoal,
    IDENTITY_SUBST,
    PRECONDITION_FAIL,
    Position,
    Signature,
    StepLimitExceeded,
    Substitution,
    Suspension,
    UnificationState,
    Var,
    apply_subst,
    check_solution,
    derive_alpha,
    derive_alpha_c,
    format_context,
    lifting_forward_check,
    narrow_search,
    narrowing_to_rewriting,
    normalize,
    one_step_rewrites,
    parse_context,
    parse_substitution,
    parse_term,
    primary_rewrite_steps,
    replace_at,
    subterm_at,
    term_vars,
    verify_rewrite_step,
)
from nomc import rewriting
from nomc.cli import build_parser, load_system_file
from nomc.terms import IDENTITY, subterms_with_positions
from conftest import (
    random_context,
    random_ground_term,
    random_prenex_formula,
    random_prenex_pattern,
    random_term,
    replace,
)

FRESH = Atom("zz")


def _rewrite_cases():
    """(system, delta, source, step) for every step of the bundled `rewrite`
    and `normalize` problems."""
    cases = []
    for name in ("prenex", "ex22", "lambda"):
        loaded = load_system_file(name)
        system, sig = loaded.system, loaded.system.signature
        for line in loaded.problems.values():
            argv = shlex.split(line)
            if argv[0] not in ("rewrite", "normalize"):
                continue
            args = build_parser().parse_args(argv + ["--system", name])
            delta = parse_context(args.context, sig)
            term = parse_term(args.term, sig)
            if argv[0] == "rewrite":
                cases.extend((system, delta, term, s) for s in one_step_rewrites(delta, term, system))
            else:
                source = term
                for step in normalize(delta, term, system, args.max_steps)[1]:
                    cases.append((system, delta, source, step))
                    source = step.result
    return cases


def _narrowing_edges():
    """(system, edge) for the bundled ex22 and prenex narrowing trees."""
    ex22 = load_system_file("ex22").system
    prenex = load_system_file("prenex").system
    trees = (
        (ex22, narrow_search(EMPTY_CONTEXT, parse_term("h(fC([b][a]X, X))", ex22.signature), ex22, 2, 2, 50)),
        (prenex, narrow_search(
            EMPTY_CONTEXT, parse_term("and(P1, not(forall([b]Q1)))", prenex.signature), prenex, 2, 1, 50
        )),
    )
    return [(system, edge) for system, tree in trees for edge in tree.edges]


REWRITE_CASES = _rewrite_cases()
NARROWING_EDGES = _narrowing_edges()


def _var_pairs(original, renamed, out):
    """Pair up the variables of a term and its renamed copy."""
    if isinstance(original, Suspension):
        out[original.var] = Suspension(IDENTITY, renamed.var)
    elif isinstance(original, App):
        for o, r in zip(original.args, renamed.args):
            _var_pairs(o, r, out)
    elif not isinstance(original, Atom):
        _var_pairs(original.body, renamed.body, out)
    return out


def _other_rules(system, instance):
    """Every other rule of the system, with its variables renamed the way
    `instance` renamed the rule it came from."""
    original = next(r for r in system.rules if r.name == instance.name)
    renaming = Substitution(_var_pairs(original.lhs, instance.lhs, {}))
    for rule in system.rules:
        if rule.name == instance.name:
            continue
        context = frozenset(
            replace(c, var=apply_subst(renaming, Suspension(IDENTITY, c.var)).var)
            for c in rule.context
        )
        yield replace(
            rule, context=context, lhs=apply_subst(renaming, rule.lhs), rhs=apply_subst(renaming, rule.rhs)
        )


def _other_positions(delta, term, path, sig):
    """Positions whose subterm is not =ac to the one at `path`."""
    sub = subterm_at(term, path)
    return [
        pos for pos, other in subterms_with_positions(term)
        if not derive_alpha_c(delta, other, sub, sig)
    ]


def _replacements(sub):
    """Terms not =ac to `sub`: a fresh atom, and `sub` with one of its
    variables renamed to a fresh one."""
    out = [FRESH]
    for var in sorted(term_vars(sub), key=lambda v: v.name):
        out.append(apply_subst(Substitution({var: Suspension(IDENTITY, Var("Fresh9"))}), sub))
    return out


def _commuted(delta, term, sig):
    """`term` with the arguments of its first commutative node whose
    arguments differ (as plain alpha) swapped, or None."""
    for pos, sub in subterms_with_positions(term):
        if isinstance(sub, App) and sig.is_commutative(sub.sym):
            left, right = sub.args
            if not derive_alpha(delta, left, right):
                return replace_at(term, pos.path, App(sub.sym, (right, left)))
    return None


def _exists(term, path):
    try:
        subterm_at(term, path)
    except ValueError:
        return False
    return True


def test_sources_are_non_trivial():
    assert len(REWRITE_CASES) >= 4
    assert len(NARROWING_EDGES) >= 10
    for system, delta, source, step in REWRITE_CASES:
        assert verify_rewrite_step(delta, source, step, system.signature)
    for system, edge in NARROWING_EDGES:
        assert narrowing_to_rewriting(edge, edge.parent, sig=system.signature)


class TestVerifyRewriteStep:
    def test_tampered_position(self):
        for system, delta, source, step in REWRITE_CASES:
            sig = system.signature
            path = step.position.path
            tampered = [Position(path + (9,))] + _other_positions(delta, source, path, sig)
            for pos in tampered:
                assert not verify_rewrite_step(delta, source, replace(step, position=pos), sig)

    def test_identity_substitution(self):
        for system, delta, source, step in REWRITE_CASES:
            assert term_vars(step.rule_instance.lhs)
            assert not (term_vars(step.rule_instance.lhs) & term_vars(source))
            tampered = replace(step, subst=IDENTITY_SUBST)
            assert not verify_rewrite_step(delta, source, tampered, system.signature)

    def test_result_is_the_source(self):
        for system, delta, source, step in REWRITE_CASES:
            sig = system.signature
            assert not derive_alpha_c(delta, source, step.result, sig)
            tampered = replace(step, result=source)
            assert not verify_rewrite_step(delta, source, tampered, sig)

    def test_another_rule(self):
        for system, delta, source, step in REWRITE_CASES:
            for other in _other_rules(system, step.rule_instance):
                tampered = replace(step, rule_instance=other)
                assert not verify_rewrite_step(delta, source, tampered, system.signature)

    def test_source_redex_replaced(self):
        # The rewritten term does not depend on the redex, so only the
        # left-hand-side premise can notice.
        for system, delta, source, step in REWRITE_CASES:
            path = step.position.path
            for new in _replacements(subterm_at(source, path)):
                tampered_source = replace_at(source, path, new)
                assert not verify_rewrite_step(delta, tampered_source, step, system.signature)

    def test_freshness_hypothesis_dropped(self, prenex_system):
        sig = prenex_system.signature
        delta = parse_context("a#P1")
        source = parse_term("or(S1, or(exists([a]Q1), P1))", sig)
        steps = [s for s in one_step_rewrites(delta, source, prenex_system) if s.rule_instance.context]
        assert steps
        for step in steps:
            assert verify_rewrite_step(delta, source, step, sig)
            assert not verify_rewrite_step(EMPTY_CONTEXT, source, step, sig)

    def test_commuted_result_still_accepted(self):
        commuted = 0
        for system, delta, source, step in REWRITE_CASES:
            swapped = _commuted(delta, step.result, system.signature)
            if swapped is None:
                continue
            commuted += 1
            tampered = replace(step, result=swapped)
            assert verify_rewrite_step(delta, source, tampered, system.signature)
        assert commuted


def _with_child_term(edge, term):
    return replace(edge, child=replace(edge.child, term=term))


class TestNarrowingToRewriting:
    def test_tampered_position(self):
        for system, edge in NARROWING_EDGES:
            sig = system.signature
            instance = apply_subst(edge.step_subst, edge.parent.term)
            path = edge.position.path
            tampered = [Position(path + (9,))] + [
                pos for pos in _other_positions(edge.child.context, instance, path, sig)
                if _exists(edge.parent.term, pos.path)
            ]
            for pos in tampered:
                assert not narrowing_to_rewriting(replace(edge, position=pos), edge.parent, sig=sig)

    def test_position_only_in_the_instance(self):
        # The position must exist in the parent term itself, not only in its
        # instance: a step at a variable's image is not a narrowing step.
        hits = 0
        for system, edge in NARROWING_EDGES:
            instance = apply_subst(edge.step_subst, edge.parent.term)
            for pos, _ in subterms_with_positions(instance):
                if not _exists(edge.parent.term, pos.path):
                    hits += 1
                    tampered = replace(edge, position=pos)
                    assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)
        assert hits

    def test_redex_inside_a_binding(self, prenex_system):
        # The tampered step rewrites a redex that the step substitution put
        # in X's image. The rewrite itself holds and gives the child, so
        # only the check that the position exists in the parent rejects it.
        sig = prenex_system.signature
        tree = narrow_search(EMPTY_CONTEXT, parse_term("not(X)", sig), prenex_system, 1, 0, 50)
        (edge,) = [e for e in tree.edges if e.rule == "not_forall"]
        assert str(edge.rule_instance) == "|- not(forall([a]Q1)) -> exists([a]not(Q1))"
        theta = parse_substitution("X -> and(c, not(forall([a]b))), Q1 -> b", sig)
        child = replace(edge.child, term=parse_term("not(and(c, exists([a]not(b))))", sig))
        tampered = replace(edge, position=Position((0, 1)), step_subst=theta, child=child)
        instance = apply_subst(theta, edge.parent.term)
        assert rewriting.rewrite_at(EMPTY_CONTEXT, instance, (0, 1), edge.rule_instance, theta, sig) == child.term
        assert not narrowing_to_rewriting(tampered, edge.parent, sig=sig)

    def test_identity_substitution(self):
        for system, edge in NARROWING_EDGES:
            assert term_vars(edge.rule_instance.lhs)
            tampered = replace(edge, step_subst=IDENTITY_SUBST)
            assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)

    def test_child_is_the_instantiated_parent(self):
        for system, edge in NARROWING_EDGES:
            instance = apply_subst(edge.step_subst, edge.parent.term)
            assert not derive_alpha_c(edge.child.context, instance, edge.child.term, system.signature)
            tampered = _with_child_term(edge, instance)
            assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)

    def test_another_rule(self):
        for system, edge in NARROWING_EDGES:
            for other in _other_rules(system, edge.rule_instance):
                tampered = replace(edge, rule_instance=other)
                assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)

    def test_parent_redex_replaced(self):
        for system, edge in NARROWING_EDGES:
            path = edge.position.path
            for new in _replacements(subterm_at(edge.parent.term, path)):
                parent = replace(edge.parent, term=replace_at(edge.parent.term, path, new))
                assert not narrowing_to_rewriting(edge, parent, sig=system.signature)

    def test_freshness_hypothesis_dropped(self):
        # Only where a rule constraint a#P lands on a variable (P -> pi.X)
        # does the step need a hypothesis from the child's context.
        dropped = 0
        for system, edge in NARROWING_EDGES:
            if not any(isinstance(edge.step_subst.get(c.var), Suspension) for c in edge.rule_instance.context):
                continue
            dropped += 1
            tampered = replace(edge, child=replace(edge.child, context=EMPTY_CONTEXT))
            assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)
        assert dropped

    def test_child_changed_off_the_path(self):
        # The oracle builds sigma(parent) once, and the child shares with it
        # every subterm sigma leaves alone, which the alpha check passes by
        # identity. One fresh atom off the rewritten path, in place of an
        # atom or of one variable's image, must still be noticed.
        atoms = images = 0
        for system, edge in NARROWING_EDGES:
            path = edge.position.path
            child_term = edge.child.term
            off_path = [
                (pos, sub) for pos, sub in subterms_with_positions(edge.parent.term)
                if pos.path[: len(path)] != path
            ]
            for pos, sub in off_path:
                if isinstance(sub, Suspension):
                    images += 1
                elif isinstance(sub, Atom):
                    atoms += 1
                else:
                    continue
                tampered = _with_child_term(edge, replace_at(child_term, pos.path, FRESH))
                assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)
        assert atoms and images

    def test_commuted_child_rejected(self):
        # Narrowing compares its result by plain alpha, not modulo C.
        commuted = 0
        for system, edge in NARROWING_EDGES:
            swapped = _commuted(edge.child.context, edge.child.term, system.signature)
            if swapped is None:
                continue
            commuted += 1
            tampered = _with_child_term(edge, swapped)
            assert not narrowing_to_rewriting(tampered, edge.parent, sig=system.signature)
        assert commuted


class TestLiftingForward:
    @pytest.fixture
    def derivation(self, prenex_system):
        sig = prenex_system.signature
        tree = narrow_search(EMPTY_CONTEXT, parse_term("and(P1, not(forall([b]Q1)))", sig), prenex_system, 2, 0, 50)
        (first,) = [e for e in tree.edges if e.parent is tree.root and e.rule == "not_forall"]
        (second,) = [
            e for e in tree.edges
            if e.parent is first.child and e.rule == "and_exists"
            and format_context(e.child.context) == "a#P1, a#Q1"
        ]
        return [first, second]

    def _check(self, derivation, rho, delta, sig):
        return lifting_forward_check(derivation, parse_substitution(rho, sig), parse_context(delta, sig), sig)

    def test_genuine_derivation_lifts(self, derivation, prenex_system):
        sig = prenex_system.signature
        assert self._check(derivation, "Q1 -> forall([a]R), P1 -> R", "a#R", sig) is True

    def test_rho_violating_the_final_context(self, derivation, prenex_system):
        sig = prenex_system.signature
        assert self._check(derivation, "Q1 -> forall([a]R), P1 -> a", "a#R", sig) is PRECONDITION_FAIL

    @pytest.mark.parametrize("index", (0, 1))
    def test_tampered_step(self, derivation, prenex_system, index):
        sig = prenex_system.signature
        step = derivation[index]
        tampers = [replace(step, position=Position(step.position.path + (9,)))]
        tampers += [replace(step, rule_instance=o) for o in _other_rules(prenex_system, step.rule_instance)]
        for tampered in tampers:
            changed = list(derivation)
            changed[index] = tampered
            assert self._check(changed, "Q1 -> forall([a]R), P1 -> R", "a#R", sig) is False

    def test_parent_context_violated(self, prenex_system):
        # rho_0 satisfies the final context, and the step still rewrites
        # under it; only the parent's added c#X, which c free in
        # exists([a]c) violates, can reject the edge.
        sig = prenex_system.signature
        edge = narrow_search(EMPTY_CONTEXT, parse_term("not(X)", sig), prenex_system, 1, 0, 50).edges[0]
        assert str(edge.step_subst) == "[X -> exists([a]Q0)]"
        rho = Substitution({v: Atom("c") for v in term_vars(edge.child.term)})
        assert lifting_forward_check([edge], rho, EMPTY_CONTEXT, sig) is True
        parent = replace(edge.parent, context=edge.parent.context | parse_context("c#X"))
        tampered = replace(edge, parent=parent)
        assert lifting_forward_check([tampered], rho, EMPTY_CONTEXT, sig) is False


class TestCheckSolution:
    @staticmethod
    def _problem(edge):
        return UnificationState(
            edge.parent.context | edge.rule_instance.context,
            IDENTITY_SUBST,
            (EqualityGoal(edge.rule_instance.lhs, subterm_at(edge.parent.term, edge.position.path)),),
        )

    def test_wrong_binding(self):
        for system, edge in NARROWING_EDGES:
            sig = system.signature
            problem = self._problem(edge)
            assert check_solution((edge.child.context, edge.step_subst), problem, sig)
            (goal,) = problem.goals
            bound = (term_vars(goal.lhs) | term_vars(goal.rhs)) & edge.step_subst.domain
            assert bound
            for var in bound:
                wrong = Substitution({**dict(edge.step_subst.items()), var: FRESH})
                assert not check_solution((edge.child.context, wrong), problem, sig)

    def test_freshness_goal(self):
        # A freshness goal is instantiated by the candidate, then judged.
        a, b, X = Atom("a"), Atom("b"), Var("X")
        problem = UnificationState(EMPTY_CONTEXT, IDENTITY_SUBST, (FreshnessGoal(a, Suspension(IDENTITY, X)),))
        assert check_solution((EMPTY_CONTEXT, Substitution({X: b})), problem, Signature())
        assert not check_solution((EMPTY_CONTEXT, Substitution({X: a})), problem, Signature())

    def test_hypothesis_not_derivable(self):
        # and_exists needs a#P: the goal still holds without the context,
        # but the instantiated hypothesis a#P1 does not.
        checked = 0
        for system, edge in NARROWING_EDGES:
            if edge.rule != "and_exists":
                continue
            checked += 1
            problem = self._problem(edge)
            assert check_solution((edge.child.context, edge.step_subst), problem, system.signature)
            assert not check_solution((EMPTY_CONTEXT, edge.step_subst), problem, system.signature)
        assert checked


# and_forall's atom a occurs free in each of these, so its steps need the
# clash shift; in the last two both forall binders clash with it too.
CLASH_TERMS = (
    "or(and(b, c), or(and(a, forall([b]c)), and(a, forall([c]d))))",
    "or(and(b, c), or(and(a, forall([a]c)), and(a, forall([a]d))))",
    "or(and(a, forall([a]b)), and(b, forall([a]a)))",
)


def _replay_subjects(prenex, ex22):
    """(system, delta, term, ground): the clash terms, then seeded prenex and
    ex22 subjects, with and without variables."""
    rng = random.Random(30)
    subjects = [(prenex, EMPTY_CONTEXT, parse_term(text, prenex.signature), True) for text in CLASH_TERMS]
    for index in range(120):
        system = (prenex, ex22)[index % 2]
        if index % 4 < 2:
            term = random_prenex_pattern(rng, 4) if system is prenex else random_term(rng, system.signature, 3)
            subjects.append((system, random_context(rng), term, False))
        elif system is prenex:
            term = App("or", (random_prenex_formula(rng, 2), random_prenex_formula(rng, 2)))
            subjects.append((system, EMPTY_CONTEXT, term, True))
        else:
            subjects.append((system, EMPTY_CONTEXT, random_ground_term(rng, system.signature, 3), True))
    return subjects


def test_steps_replay_from_their_rule_instance(prenex_system, ex22_system):
    """`primary_rewrite_steps`, `one_step_rewrites`, each `normalize` trace
    and the class oracle's steps against their sources: `verify_rewrite_step`
    accepts each, and contracting with the recorded `rule_instance` gives
    the recorded result itself, not only an =ac one (except for
    `one_step_rewrites`, which lists commutative rearrangements of it)."""
    shifted = collections.Counter()

    def replay(kind, system, delta, source, step, sig):
        # Renaming variables keeps a rule's atoms; only a clash shift moves them.
        shifted[kind] += step.rule_instance.atoms() != system._fresh_rules[step.rule].atoms()
        assert verify_rewrite_step(delta, source, step, sig), (str(source), str(step))
        return replace_at(source, step.position.path, apply_subst(step.subst, step.rule_instance.rhs))

    for system, delta, term, ground in _replay_subjects(prenex_system, ex22_system):
        sig = system.signature
        for step in primary_rewrite_steps(delta, term, system):
            assert replay("primary", system, delta, term, step, sig) == step.result
        for step in one_step_rewrites(delta, term, system):
            replay("one_step", system, delta, term, step, sig)
        try:
            trace = normalize(delta, term, system, 8)[1]
        except StepLimitExceeded as exc:
            trace = exc.trace
        source = term
        for step in trace:
            assert replay("normalize", system, delta, source, step, sig) == step.result
            source = step.result
        if ground:
            plain = system.without_commutativity()
            for source, step in itertools.islice(rewriting._class_steps(term, system, 100_000), 200):
                assert replay("class", system, EMPTY_CONTEXT, source, step, plain.signature) == step.result
    assert all(shifted[kind] >= 2 for kind in ("primary", "one_step", "normalize", "class")), shifted
