"""Rewriting modulo commutativity: matching-based steps, normalisation,
a ground brute-force oracle over equivalence classes, and coherence probes.

A step rewrites a subterm that C-matches a rule's left-hand side, provided
the rule's freshness conditions hold under the ambient context. The public
one-step enumeration also lists the commutative rearrangements of each
result, so the step set shows every C-distinct outcome; the normalisation
strategy only ever follows the first (plain) result.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .alpha import (
    EMPTY_CONTEXT,
    FreshnessConstraint,
    FreshnessContext,
    derive_alpha,
    derive_alpha_c,
    satisfies_with,
)
from .terms import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    Permutation,
    Position,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    apply_subst,
    fresh_atom,
    fresh_variables,
    free_atoms,
    is_ground,
    permute_term,
    replace_at,
    subterm_at,
    subterms_with_positions,
    term_atoms,
    term_vars,
)
from .unify import DEFAULT_MAX_STATES, match


@dataclass(frozen=True)
class RewriteRule:
    """A rule `context |- lhs -> rhs` over the ambient signature."""

    name: str
    context: FreshnessContext
    lhs: Term
    rhs: Term

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Suspension):
            raise ValueError(f"rule {self.name}: left-hand side is a bare variable")
        lhs_vars = term_vars(self.lhs)
        loose = (term_vars(self.rhs) | {c.var for c in self.context}) - lhs_vars
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise ValueError(f"rule {self.name}: variables not bound by the left-hand side: {names}")
        # Not a field: equality and hashing stay on the four fields above.
        atoms = term_atoms(self.lhs) | term_atoms(self.rhs) | frozenset(c.atom for c in self.context)
        object.__setattr__(self, "_atoms", atoms)

    def variables(self) -> frozenset[Var]:
        return term_vars(self.lhs) | term_vars(self.rhs) | frozenset(c.var for c in self.context)

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def __str__(self) -> str:
        ctx = ", ".join(sorted(str(c) for c in self.context))
        prefix = f"{ctx} |- " if ctx else "|- "
        return f"{prefix}{self.lhs} -> {self.rhs}"


class RewriteSystem:
    """A sequence of rules plus the signature declaring commutative symbols.

    The system remembers its rules renamed apart from the most recent avoid
    set (one entry, so memory stays bounded). Renaming is a deterministic
    function of the rule and the avoid set, so a reused copy is exactly what
    a fresh renaming would give. Ground terms all share the empty avoid set,
    which makes the memo hit on every source the class oracle scans.
    """

    def __init__(self, rules: tuple[RewriteRule, ...] | list[RewriteRule], signature: Signature):
        self.rules = tuple(rules)
        self.signature = signature
        self._renamed: tuple[frozenset[Var], tuple[RewriteRule, ...]] | None = None
        self._plain: RewriteSystem | None = None
        # head_key -> the rules whose left-hand side has that head, in order.
        self.by_head: dict[object, tuple[RewriteRule, ...]] = {}
        self._atoms: frozenset[Atom] = frozenset()
        seen: set[str] = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name}")
            seen.add(rule.name)
            key = head_key(rule.lhs)
            self.by_head[key] = self.by_head.get(key, ()) + (rule,)
            self._atoms |= rule.atoms()

    def renamed_rules(self, avoid: frozenset[Var]) -> tuple[RewriteRule, ...]:
        """The rules, in order, with variables renamed apart from `avoid`."""
        if self._renamed is None or self._renamed[0] != avoid:
            renamed = tuple(rename_rule_with_map(rule, avoid)[0] for rule in self.rules)
            self._renamed = (avoid, renamed)
        return self._renamed[1]

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def without_commutativity(self) -> "RewriteSystem":
        """The same rules with no symbol commutative; built once, then reused."""
        if self._plain is None:
            self._plain = RewriteSystem(self.rules, self.signature.without_commutativity())
        return self._plain

    def __repr__(self) -> str:
        return f"RewriteSystem({len(self.rules)} rules, sig={self.signature!r})"


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite: rule applied at a position with a matching substitution.

    `rule_instance` is the renamed copy of the rule the matcher actually
    used; replaying the step re-derives the premises from it.
    """

    rule: str
    position: Position
    perm: Permutation
    subst: Substitution
    result: Term
    rule_instance: RewriteRule

    def __str__(self) -> str:
        return f"{self.rule} @ {self.position}: {self.result}"


class StepLimitExceeded(Exception):
    """Normalisation ran past its step bound (possible non-termination)."""

    def __init__(self, term: Term, trace: tuple[RewriteStep, ...]):
        super().__init__(f"step limit exceeded at {term}")
        self.term = term
        self.trace = trace


def rename_rule_with_map(
    rule: RewriteRule, avoid: frozenset[Var] | set[Var]
) -> tuple[RewriteRule, dict[Var, Var]]:
    """Copy of the rule with variables renamed apart from `avoid`, plus the
    renaming that was applied."""
    ordered: list[Var] = []
    for term in (rule.lhs, rule.rhs):
        for var in sorted(term_vars(term), key=lambda v: v.name):
            if var not in ordered:
                ordered.append(var)
    for constraint in sorted(rule.context, key=lambda c: (c.atom.name, c.var.name)):
        if constraint.var not in ordered:
            ordered.append(constraint.var)
    renaming = fresh_variables(avoid, ordered)
    subst = Substitution({v: Suspension(IDENTITY, w) for v, w in renaming.items()})
    context = frozenset(FreshnessConstraint(c.atom, renaming[c.var]) for c in rule.context)
    renamed = RewriteRule(
        rule.name,
        context,
        apply_subst(subst, rule.lhs),
        apply_subst(subst, rule.rhs),
    )
    return renamed, renaming


def rename_atoms(term: Term, perm: Permutation) -> Term:
    """Rename atom occurrences throughout a term schema.

    Unlike the permutation action, variables stay bare: the permutation is
    applied inside suspension prefixes but never composed onto them. This is
    the right notion for renaming a rule's atoms.
    """
    if isinstance(term, Atom):
        return perm.act(term)
    if isinstance(term, Suspension):
        renamed = Permutation(tuple((perm.act(l), perm.act(r)) for l, r in term.perm.swappings))
        return Suspension(renamed, term.var)
    if isinstance(term, Abstraction):
        return Abstraction(perm.act(term.atom), rename_atoms(term.body, perm))
    return App(term.sym, tuple(rename_atoms(a, perm) for a in term.args))


def permute_rule(rule: RewriteRule, perm: Permutation) -> RewriteRule:
    """Rename a rule's atoms; its schematic variables are untouched."""
    context = frozenset(FreshnessConstraint(perm.act(c.atom), c.var) for c in rule.context)
    return RewriteRule(rule.name, context, rename_atoms(rule.lhs, perm), rename_atoms(rule.rhs, perm))


def clash_permutation(rule: RewriteRule, subject_atoms: frozenset[Atom], avoid: frozenset[Atom]) -> Permutation | None:
    """Permutation moving the rule's atoms off the subject's, or None if the
    atom sets are already disjoint.

    Identity-permutation matching can miss steps when a rule binder atom
    occurs free in the subject; retrying with the clashing atoms swapped to
    fresh ones recovers those steps.
    """
    clash = sorted(rule.atoms() & subject_atoms, key=lambda a: a.name)
    if not clash:
        return None
    taken = set(avoid) | set(subject_atoms) | set(rule.atoms())
    swappings = []
    for atom in clash:
        replacement = fresh_atom(taken)
        taken.add(replacement)
        swappings.append((atom, replacement))
    return Permutation(tuple(swappings))


def commutative_variants(term: Term, sig: Signature) -> tuple[Term, ...]:
    """All rearrangements of the term's commutative applications, term first."""
    if isinstance(term, (Atom, Suspension)):
        return (term,)
    if isinstance(term, Abstraction):
        return tuple(Abstraction(term.atom, b) for b in commutative_variants(term.body, sig))
    arg_variants = [commutative_variants(a, sig) for a in term.args]
    out: dict[Term, None] = {}  # insertion-ordered set
    for combo in itertools.product(*arg_variants):
        out[App(term.sym, combo)] = None
        if sig.is_commutative(term.sym):
            out[App(term.sym, (combo[1], combo[0]))] = None
    return tuple(out)


def c_class_enumerate(term: Term, sig: Signature) -> tuple[Term, ...]:
    """The commutative closure of a ground term (up to 2^n members for n
    commutative nodes; symmetric subterms collapse)."""
    if not is_ground(term):
        raise ValueError("class enumeration is only defined on ground terms")
    return commutative_variants(term, sig)


def canonical_alpha(term: Term, depth: int = 0) -> Term:
    """Canonical representative of a ground term's alpha-class.

    Binders are renamed to a reserved sequence indexed by nesting depth, so
    two ground terms are alpha-equivalent iff their canonical forms are equal.
    """
    if isinstance(term, Atom):
        return term
    if isinstance(term, Suspension):
        raise ValueError("canonical form is only defined on ground terms")
    if isinstance(term, Abstraction):
        marker = Atom(f"~{depth}")
        renamed = permute_term(Permutation(((term.atom, marker),)), term.body)
        return Abstraction(marker, canonical_alpha(renamed, depth + 1))
    return App(term.sym, tuple(canonical_alpha(a, depth) for a in term.args))


def alpha_variants(term: Term, pool: frozenset[Atom] | set[Atom]) -> tuple[Term, ...]:
    """All alpha-renamings of a ground term with binders drawn from `pool`."""
    if isinstance(term, Atom):
        return (term,)
    if isinstance(term, Suspension):
        raise ValueError("alpha variants are only defined on ground terms")
    out: dict[Term, None] = {}  # insertion-ordered set
    if isinstance(term, Abstraction):
        for body in alpha_variants(term.body, pool):
            out[Abstraction(term.atom, body)] = None
            free = free_atoms(body)
            for atom in sorted(pool, key=lambda a: a.name):
                if atom != term.atom and atom not in free:
                    swapped = permute_term(Permutation(((term.atom, atom),)), body)
                    out[Abstraction(atom, swapped)] = None
        return tuple(out)
    arg_variants = [alpha_variants(a, pool) for a in term.args]
    for combo in itertools.product(*arg_variants):
        out[App(term.sym, combo)] = None
    return tuple(out)


def head_key(term: Term) -> object:
    """The key `RewriteSystem.by_head` files a left-hand side under: symbol
    and arity for an application, one key for every abstraction, and the
    atom itself for an atom."""
    if isinstance(term, App):
        return (term.sym, len(term.args))
    if isinstance(term, Abstraction):
        return Abstraction
    return term


def skeleton_fits(lhs: Term, sub: Term, sig: Signature, unify: bool) -> bool:
    """Can `sub` be an instance of `lhs` as far as symbols, binders and atoms
    go? False only when no matcher (or, with `unify`, no unifier) exists.

    The lhs's suspensions are wildcards; so are the subject's when unifying,
    and they fit nothing else when matching protects them. Atom names and
    binder names are ignored, so a clash shift of the rule's atoms cannot
    change the verdict. A commutative symbol's arguments fit in either order.
    """
    if isinstance(lhs, Suspension):
        return True
    if isinstance(sub, Suspension):
        return unify
    if isinstance(lhs, Atom):
        return isinstance(sub, Atom)
    if isinstance(lhs, Abstraction):
        return isinstance(sub, Abstraction) and skeleton_fits(lhs.body, sub.body, sig, unify)
    if not isinstance(sub, App) or sub.sym != lhs.sym or len(sub.args) != len(lhs.args):
        return False
    if all(skeleton_fits(l, s, sig, unify) for l, s in zip(lhs.args, sub.args)):
        return True
    if not sig.is_commutative(lhs.sym):
        return False
    (l0, l1), (s0, s1) = lhs.args, sub.args
    return skeleton_fits(l0, s1, sig, unify) and skeleton_fits(l1, s0, sig, unify)


def premises_hold(
    delta: FreshnessContext, sub: Term, rule: RewriteRule, theta: Substitution, sig: Signature
) -> bool:
    """The premises of rewriting `sub` by `rule` with `theta` under delta:
    theta satisfies the rule's freshness context, and sub =ac theta(lhs)."""
    return satisfies_with(rule.context, theta, delta) and derive_alpha_c(
        delta, sub, apply_subst(theta, rule.lhs), sig
    )


def _verified_matchers(
    delta: FreshnessContext,
    sub: Term,
    rule: RewriteRule,
    sig: Signature,
    max_states: int,
) -> list[Substitution]:
    """Match substitutions whose instantiated premises hold under delta."""
    solutions = match(rule.context, rule.lhs, delta, sub, sig=sig, max_states=max_states)
    return [sol.subst for sol in solutions if premises_hold(delta, sub, rule, sol.subst, sig)]


def redexes(
    context: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    prepare: Callable[[RewriteRule], RewriteRule],
    attempt: Callable[[Term, RewriteRule], Sequence],
    unify: bool,
) -> Iterator[tuple[Position, Term, RewriteRule, Permutation, RewriteRule, Sequence]]:
    """Lazily solve or match every rule at every non-variable position.

    Positions come leftmost-outermost and rules in declaration order; a rule
    is tried only where its left-hand side's head fits the subterm (the
    system's `by_head` index). `prepare(rule)` gives the rule renamed apart
    and is called at every such site; the attempt is then skipped when the
    whole skeleton cannot fit (`skeleton_fits`, with subject variables as
    wildcards if `unify`). `attempt(subterm, rule)` gives the answers, empty
    on failure. When the prepared rule fails and its atoms clash with the
    subterm's, it is retried once with the clashing atoms moved to fresh
    ones. Each success yields `(position, subterm, prepared, perm, used,
    answers)`, where `used` is `prepared` after the shift `perm` (IDENTITY
    if none).
    """
    sig = system.signature
    ambient_atoms = term_atoms(term) | frozenset(c.atom for c in context)
    for pos, sub in subterms_with_positions(term):
        if isinstance(sub, Suspension):
            continue
        for rule in system.by_head.get(head_key(sub), ()):
            # Prepare before filtering: narrowing's renaming grows its avoid
            # set at each call, and the names it picks are part of the answer.
            prepared = prepare(rule)
            if not skeleton_fits(rule.lhs, sub, sig, unify):
                continue
            answers = attempt(sub, prepared)
            if answers:
                yield pos, sub, prepared, IDENTITY, prepared, answers
                continue
            shift = clash_permutation(prepared, term_atoms(sub), ambient_atoms)
            if shift is None:
                continue
            shifted = permute_rule(prepared, shift)
            answers = attempt(sub, shifted)
            if answers:
                yield pos, sub, prepared, shift, shifted, answers


def _candidate_steps(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_states: int,
) -> Iterator[RewriteStep]:
    """Matching steps in redex order with premises verified; the rules come
    renamed from the system's memo (see `RewriteSystem`). A clash shift is
    recorded on the step as its permutation."""
    sig = system.signature
    avoid = term_vars(term) | {c.var for c in delta}
    renamed = {rule.name: rule for rule in system.renamed_rules(avoid)}
    attempt = functools.partial(_verified_matchers, delta, sig=sig, max_states=max_states)
    for pos, _, prepared, perm, used, thetas in redexes(
        delta, term, system, lambda rule: renamed[rule.name], attempt, unify=False
    ):
        for theta in thetas:
            result = replace_at(term, pos.path, apply_subst(theta, used.rhs))
            yield RewriteStep(prepared.name, pos, perm, theta, result, prepared)


def _dedup_steps(delta: FreshnessContext, steps: Iterable[RewriteStep]) -> tuple[RewriteStep, ...]:
    kept: list[RewriteStep] = []
    for step in steps:
        if not any(derive_alpha(delta, step.result, k.result) for k in kept):
            kept.append(step)
    return tuple(kept)


def primary_rewrite_steps(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[RewriteStep, ...]:
    """One-step rewrites without commutative rearrangement of the results.

    This is the enumeration the normalisation strategy follows; results are
    deduplicated up to plain alpha-equivalence.
    """
    return _dedup_steps(delta, _candidate_steps(delta, term, system, max_states))


def one_step_rewrites(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[RewriteStep, ...]:
    """All one-step rewrites of the term under the context.

    Each match contributes its plain result followed by the commutative
    rearrangements of that result, so C-distinct outcomes are all visible.
    An empty answer means the term is in normal form under the context.
    """
    sig = system.signature
    expanded: list[RewriteStep] = []
    for step in _candidate_steps(delta, term, system, max_states):
        for variant in commutative_variants(step.result, sig):
            expanded.append(
                RewriteStep(step.rule, step.position, step.perm, step.subst, variant, step.rule_instance)
            )
    return _dedup_steps(delta, expanded)


def verify_rewrite_step(
    delta: FreshnessContext,
    source: Term,
    step: RewriteStep,
    sig: Signature,
) -> bool:
    """Re-derive the premises of a recorded step against its source term.

    The step's permutation (externally supplied or the engine's clash shift)
    is applied to the rule instance before the checks.
    """
    path = step.position.path
    try:
        sub = subterm_at(source, path)
    except ValueError:
        return False
    used = permute_rule(step.rule_instance, step.perm)
    if not premises_hold(delta, sub, used, step.subst, sig):
        return False
    return derive_alpha_c(delta, replace_at(source, path, apply_subst(step.subst, used.rhs)), step.result, sig)


def normalize(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_steps: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[Term, tuple[RewriteStep, ...]]:
    """Repeatedly apply the first available step until none applies.

    Deterministic strategy: leftmost-outermost position, rule declaration
    order, first matching solution; the scan stops at the first redex.
    Raises StepLimitExceeded past the bound.
    """
    return _normal_form(lambda t: _candidate_steps(delta, t, system, max_states), term, max_steps)


def _normal_form(
    steps: Callable[[Term], Iterator[RewriteStep]], term: Term, max_steps: int
) -> tuple[Term, tuple[RewriteStep, ...]]:
    """Follow the first of `steps(current)` until there is none. Raises
    StepLimitExceeded, with the steps taken, when one is due after `max_steps`."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    current = term
    trace: list[RewriteStep] = []
    while True:
        chosen = next(steps(current), None)
        if chosen is None:
            return current, tuple(trace)
        if len(trace) >= max_steps:
            raise StepLimitExceeded(current, tuple(trace))
        trace.append(chosen)
        current = chosen.result


def _ground_oracle_sources(term: Term, system: RewriteSystem) -> Iterator[Term]:
    pool = term_atoms(term) | system.atoms()
    pool = pool | {fresh_atom(pool)}
    seen: set[Term] = set()
    for member in c_class_enumerate(term, system.signature):
        for variant in alpha_variants(member, pool):
            if variant not in seen:
                seen.add(variant)
                yield variant


def _class_steps(term: Term, system: RewriteSystem, max_states: int) -> Iterator[RewriteStep]:
    """Plain matching steps from each member of the ground term's
    commutative-and-alpha class in turn, generated lazily. A step's position
    refers to the member it rewrites, not to `term`."""
    plain = system.without_commutativity()
    for source in _ground_oracle_sources(term, system):
        yield from _candidate_steps(EMPTY_CONTEXT, source, plain, max_states)


def r_over_e_one_step(
    term: Term,
    system: RewriteSystem,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[Term, ...]:
    """Ground brute-force oracle: plain rewrites anywhere in the term's
    commutative-and-alpha class, deduplicated modulo =ac."""
    if not is_ground(term):
        raise ValueError("the class-rewriting oracle is only defined on ground terms")
    sig = system.signature
    results: list[Term] = []
    for step in _class_steps(term, system, max_states):
        if not any(derive_alpha_c(EMPTY_CONTEXT, step.result, r, sig) for r in results):
            results.append(step.result)
    return tuple(results)


def normal_form_equal_check(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_steps: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool:
    """Compare the matching-based normal form with a class-rewriting normal
    form of a ground term; they agree modulo =ac exactly on coherent systems."""
    if not is_ground(term):
        raise ValueError("normal form comparison is only defined on ground terms")
    nf_matching, _ = normalize(delta, term, system, max_steps, max_states=max_states)
    nf_class, _ = _normal_form(lambda t: _class_steps(t, system, max_states), term, max_steps)
    return derive_alpha_c(delta, nf_matching, nf_class, system.signature)


WITNESSED = "WITNESSED"
NOT_WITNESSED = "NOT-WITNESSED-WITHIN-BOUND"
REJECTED = "REJECTED"


@dataclass(frozen=True)
class CoherenceVerdict:
    index: int
    status: str
    detail: str = ""


def _reachable(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_steps: int,
    max_states: int,
) -> list[Term]:
    """Every term reachable in at most max_steps rewrite steps (term included)."""
    seen: dict[Term, None] = {term: None}  # insertion-ordered set
    frontier = [term]
    for _ in range(max_steps):
        nxt: list[Term] = []
        for t in frontier:
            for step in primary_rewrite_steps(delta, t, system, max_states=max_states):
                if step.result not in seen:
                    seen[step.result] = None
                    nxt.append(step.result)
        if not nxt:
            break
        frontier = nxt
    return list(seen)


def coherence_check(
    system: RewriteSystem,
    samples: list[tuple[FreshnessContext, Term, Term]],
    max_steps: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[CoherenceVerdict, ...]:
    """Probe the coherence diagram on =ac-related sample pairs.

    For every one-step reduct of the first term, search within the bound for
    reducts closing the diagram with the second term. NOT-WITNESSED is
    evidence of trouble, not a proof of incoherence.
    """
    sig = system.signature
    verdicts: list[CoherenceVerdict] = []
    for index, (delta, t1, t2) in enumerate(samples):
        if not derive_alpha_c(delta, t1, t2, sig):
            verdicts.append(CoherenceVerdict(index, REJECTED, "sample terms are not =ac-related"))
            continue
        # Per-sample memos; t2's steps are due only once t1 has a step.
        steps = functools.cache(lambda t: primary_rewrite_steps(delta, t, system, max_states=max_states))
        reach = functools.cache(lambda t: _reachable(delta, t, system, max_steps, max_states))
        verdict = CoherenceVerdict(index, WITNESSED)
        for step in steps(t1):
            reach_left = reach(step.result)
            if not any(
                derive_alpha_c(delta, u, v, sig)
                for right in steps(t2)
                for u, v in itertools.product(reach_left, reach(right.result))
            ):
                verdict = CoherenceVerdict(index, NOT_WITNESSED, f"no closing reduct for {step.result}")
                break
        verdicts.append(verdict)
    return tuple(verdicts)
