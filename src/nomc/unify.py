"""Rule-based nominal unification and matching modulo commutativity.

The solver simplifies triples (context, accumulated substitution, goals)
under a fixed rule priority. Commutative applications branch into the two
argument pairings. Equations pi.X =ac X with pi not the identity are
fixed-point equations: they have infinitely many solutions and are returned
as residual data (or discharged by freshness when X is protected).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .alpha import (
    EMPTY_CONTEXT,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    Goal,
    Sentinel,
    check_problem,
    satisfies_with,
)
from .terms import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    IDENTITY_SUBST,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    apply_subst,
    difference_set,
    permute_term,
    term_vars,
)

DEFAULT_MAX_STATES = 100_000

ProtectedVars = frozenset[Var]

NO_PROTECTION: ProtectedVars = frozenset()


class SearchSpaceExceeded(Exception):
    """The branch tree outgrew the state cap; never silently truncated."""


FAIL = Sentinel("FAIL")
STUCK = Sentinel("STUCK")
UNKNOWN = Sentinel("UNKNOWN")


@dataclass(frozen=True)
class UnificationState:
    """A solver triple: hypotheses, accumulated substitution, open goals."""

    context: FreshnessContext
    subst: Substitution
    goals: tuple[Goal, ...]

    def __str__(self) -> str:
        goals = ", ".join(str(g) for g in self.goals) or "{}"
        return f"<{sorted(str(c) for c in self.context)}, {self.subst}, {{{goals}}}>"


@dataclass(frozen=True)
class CSolution:
    """A solution: context, substitution, and residual fixed-point equations.

    `protected_fixpoint_discharged` flags solutions where a fixed-point
    equation on a protected variable was closed by difference-set freshness
    constraints instead of instantiation.
    """

    context: FreshnessContext
    subst: Substitution
    residual_fixpoints: tuple[tuple[Permutation, Var], ...] = ()
    protected_fixpoint_discharged: bool = False

    def __str__(self) -> str:
        ctx = ", ".join(sorted(str(c) for c in self.context)) or "{}"
        parts = [f"context: {ctx}", f"subst: {self.subst}"]
        if self.residual_fixpoints:
            eqs = ", ".join(f"{Suspension(p, v)} =ac {v}" for p, v in self.residual_fixpoints)
            parts.append(f"residual: {eqs}")
        return "; ".join(parts)


def _fixpoint_form(goal: Goal) -> tuple[Permutation, Var] | None:
    """pi.X =ac rho.X with rho acting as the identity and pi not."""
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if (
        isinstance(lhs, Suspension)
        and isinstance(rhs, Suspension)
        and lhs.var == rhs.var
        and rhs.perm.is_identity()
        and difference_set(lhs.perm, rhs.perm)
    ):
        return lhs.perm, lhs.var
    return None


# Rule priorities, highest first: freshness first; instantiation last so
# substitutions grow as late as possible.
_FRESH, _REFL, _APP, _COMM, _ABS_SAME, _ABS_DIFF, _INV, _INST = range(8)


def _rule_for(goal: Goal, protected: ProtectedVars, sig: Signature) -> int | Sentinel | None:
    """The highest-priority rule the goal's shape admits, FAIL for a clash
    (no rule can ever reduce the goal and no substitution can repair it),
    or None.

    _INST only marks a candidate: the occurs check is left to the caller,
    which runs it only when no goal admits a higher-priority rule.
    """
    if isinstance(goal, FreshnessGoal):
        return FAIL if isinstance(goal.term, Atom) and goal.term == goal.atom else _FRESH
    lhs, rhs = goal.lhs, goal.rhs
    lsusp, rsusp = isinstance(lhs, Suspension), isinstance(rhs, Suspension)
    if lsusp and rsusp and lhs.var == rhs.var:
        if not difference_set(lhs.perm, rhs.perm):
            return _REFL
        return _INV if rhs.perm.swappings else None
    if lsusp or rsusp:
        if (not lsusp or lhs.var in protected) and (not rsusp or rhs.var in protected):
            return FAIL
        return _INST
    if type(lhs) is not type(rhs):
        return FAIL
    if lhs == rhs:
        return _REFL
    if isinstance(lhs, App):
        if lhs.sym != rhs.sym or len(lhs.args) != len(rhs.args):
            return FAIL
        return _COMM if sig.is_commutative(lhs.sym) else _APP
    if isinstance(lhs, Abstraction):
        return _ABS_SAME if lhs.atom == rhs.atom else _ABS_DIFF
    return None  # distinct atoms: no rule, but failure waits until nothing else reduces


def _without(goals: tuple[Goal, ...], idx: int, appended: list[Goal]) -> tuple[Goal, ...]:
    remaining = list(goals[:idx]) + list(goals[idx + 1 :])
    for goal in appended:
        if goal not in remaining:
            remaining.append(goal)
    return tuple(remaining)


def _apply(state: UnificationState, idx: int, rule: int) -> tuple[UnificationState, ...]:
    """Successors of a rule other than instantiation on goal idx: one state,
    or two for a commutative application whose pairings differ."""
    goal = state.goals[idx]
    context = state.context
    alternatives: list[list[Goal]] = [[]]  # drop the goal: refl, a#b, a#[a]t
    if rule == _FRESH:
        atom, term = goal.atom, goal.term
        if isinstance(term, App):
            alternatives = [[FreshnessGoal(atom, arg) for arg in term.args]]
        elif isinstance(term, Abstraction) and term.atom != atom:
            alternatives = [[FreshnessGoal(atom, term.body)]]
        elif isinstance(term, Suspension):
            context = context | {FreshnessConstraint(term.perm.inverse().act(atom), term.var)}
    elif rule != _REFL:
        lhs, rhs = goal.lhs, goal.rhs
        if rule == _APP:
            alternatives = [[EqualityGoal(l, r) for l, r in zip(lhs.args, rhs.args)]]
        elif rule == _COMM:
            (s0, s1), (t0, t1) = lhs.args, rhs.args
            alternatives = [
                [EqualityGoal(s0, t0), EqualityGoal(s1, t1)],
                [EqualityGoal(s0, t1), EqualityGoal(s1, t0)],
            ]
        elif rule == _ABS_SAME:
            alternatives = [[EqualityGoal(lhs.body, rhs.body)]]
        elif rule == _ABS_DIFF:
            swapped = permute_term(Permutation(((lhs.atom, rhs.atom),)), rhs.body)
            alternatives = [[EqualityGoal(lhs.body, swapped), FreshnessGoal(lhs.atom, rhs.body)]]
        else:  # _INV
            combined = rhs.perm.inverse().compose(lhs.perm)
            alternatives = [[EqualityGoal(Suspension(combined, lhs.var), Suspension(IDENTITY, lhs.var))]]
    successors: list[UnificationState] = []
    for appended in alternatives:
        goals = _without(state.goals, idx, appended)
        if all(goals != s.goals for s in successors):
            successors.append(UnificationState(context, state.subst, goals))
    return tuple(successors)


def _instantiable(side: Term, other: Term, protected: ProtectedVars) -> Suspension | None:
    if not isinstance(side, Suspension) or side.var in protected:
        return None
    if isinstance(other, Suspension) and other.var == side.var:
        return None
    if side.var in term_vars(other):
        return None
    return side


def _goal_image(theta: Substitution, goal: Goal) -> Goal:
    if isinstance(goal, FreshnessGoal):
        return FreshnessGoal(goal.atom, apply_subst(theta, goal.term))
    return EqualityGoal(apply_subst(theta, goal.lhs), apply_subst(theta, goal.rhs))


def _instantiate(state: UnificationState, idx: int, protected: ProtectedVars) -> UnificationState | None:
    """Bind a variable of goal idx, or None when the occurs check rules out both sides."""
    goal = state.goals[idx]
    picked = _instantiable(goal.lhs, goal.rhs, protected)
    other = goal.rhs
    if picked is None:
        picked = _instantiable(goal.rhs, goal.lhs, protected)
        other = goal.lhs
    if picked is None:
        return None
    binding = Substitution({picked.var: permute_term(picked.perm.inverse(), other)})
    new_subst = state.subst.compose(binding)
    transformed: list[Goal] = []
    for i, g in enumerate(state.goals):
        if i == idx:
            continue
        updated = _goal_image(binding, g)
        if updated not in transformed:
            transformed.append(updated)
    bound = new_subst.domain
    for constraint in sorted(state.context, key=lambda c: (c.atom.name, c.var.name)):
        if constraint.var in bound:
            regenerated = FreshnessGoal(constraint.atom, new_subst.get(constraint.var))
            if regenerated not in transformed:
                transformed.append(regenerated)
    return UnificationState(state.context, new_subst, tuple(transformed))


def simplify_step(
    state: UnificationState,
    protected: ProtectedVars = NO_PROTECTION,
    *,
    sig: Signature,
) -> tuple[UnificationState, ...] | Sentinel:
    """Apply the highest-priority applicable rule, to the first goal admitting it.

    Returns the successor states (two of them for a commutative application),
    FAIL when some goal is irreducibly unsatisfiable, or STUCK when only
    fixed-point equations remain.
    """
    ranked: list[tuple[int, int]] = []
    for idx, goal in enumerate(state.goals):
        rule = _rule_for(goal, protected, sig)
        if rule is FAIL:
            return FAIL
        if rule is not None:
            ranked.append((rule, idx))
    if ranked:
        rule, idx = min(ranked)
        if rule != _INST:
            return _apply(state, idx, rule)
    # Only instantiation candidates are left; the first to pass the occurs check fires.
    for _, idx in ranked:
        successor = _instantiate(state, idx, protected)
        if successor is not None:
            return (successor,)
    if all(_fixpoint_form(g) is not None for g in state.goals):
        return STUCK
    return FAIL


def _terminal_states(
    initial: UnificationState,
    protected: ProtectedVars,
    sig: Signature,
    max_states: int,
) -> list[UnificationState]:
    """Depth-first exhaustion of the branch tree; leaves keep residual goals."""
    stack = [initial]
    leaves: list[UnificationState] = []
    visited = 0
    while stack:
        state = stack.pop()
        visited += 1
        if visited > max_states:
            raise SearchSpaceExceeded(f"unification search exceeded {max_states} states")
        if not state.goals:
            leaves.append(state)
            continue
        outcome = simplify_step(state, protected, sig=sig)
        if outcome is FAIL:
            continue
        if outcome is STUCK:
            leaves.append(state)
            continue
        stack.extend(reversed(outcome))
    return leaves


def _prune_context(ctx: FreshnessContext, subst: Substitution) -> FreshnessContext:
    # Constraints on instantiated variables were regenerated at instantiation
    # time; the stale literals would otherwise leak renamed rule variables.
    return frozenset(c for c in ctx if c.var not in subst.domain)


def _leaf_solution(state: UnificationState, protected: ProtectedVars) -> CSolution:
    context = state.context
    kept: list[tuple[Permutation, Var]] = []
    discharged = False
    for goal in state.goals:
        perm, var = _fixpoint_form(goal)  # type: ignore[misc]
        if var in protected:
            context = context | {
                FreshnessConstraint(a, var) for a in difference_set(perm, IDENTITY)
            }
            discharged = True
        else:
            kept.append((perm, var))
    return CSolution(
        _prune_context(context, state.subst),
        state.subst,
        tuple(kept),
        discharged,
    )


def solve(
    delta: FreshnessContext,
    s: Term,
    nabla: FreshnessContext,
    l: Term,
    protected: ProtectedVars = NO_PROTECTION,
    *,
    sig: Signature,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[CSolution, ...]:
    """Solve the unification problem (nabla |- l) =ac? (delta |- s).

    Returns a complete set of solutions up to the bounded treatment of
    fixed-point equations: residuals on unprotected variables come back as
    data, residuals on protected variables are discharged by freshness.
    An empty result means the problem is unsolvable.
    """
    initial = UnificationState(nabla | delta, IDENTITY_SUBST, (EqualityGoal(l, s),))
    solutions: list[CSolution] = []
    for leaf in _terminal_states(initial, protected, sig, max_states):
        solution = _leaf_solution(leaf, protected)
        if solution not in solutions:
            solutions.append(solution)
    return tuple(solutions)


def match(
    nabla: FreshnessContext,
    l: Term,
    delta: FreshnessContext,
    s: Term,
    *,
    sig: Signature,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[CSolution, ...]:
    """One-sided unification: instantiate l only, protecting the subject side."""
    subject_vars = term_vars(s)
    shared = term_vars(l) & subject_vars
    if shared:
        names = ", ".join(sorted(v.name for v in shared))
        raise ValueError(f"matching requires disjoint variables; shared: {names}")
    protected = subject_vars | frozenset(c.var for c in delta)
    return solve(delta, s, nabla, l, protected, sig=sig, max_states=max_states)


def check_solution(
    candidate: tuple[FreshnessContext, Substitution],
    problem: UnificationState,
    sig: Signature,
) -> bool:
    """Verify a candidate against a triple: instantiated hypotheses and goals
    must all be derivable under the candidate context."""
    ctx, theta = candidate
    return satisfies_with(problem.context, theta, ctx) and check_problem(
        ctx, tuple(_goal_image(theta, g) for g in problem.goals), sig
    )


def instance_of(
    general: tuple[FreshnessContext, Substitution],
    specific: tuple[FreshnessContext, Substitution],
    variables: frozenset[Var] | set[Var],
    *,
    sig: Signature,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool | Sentinel:
    """Search for a witness composing `general` into `specific` over `variables`.

    The witness is sought by simultaneous matching with the specific side
    protected; UNKNOWN is reported when the bounded search was inconclusive
    (residual fixed-point equations blocked a definite answer).
    """
    ctx1, theta1 = general
    ctx2, theta2 = specific
    ordered = sorted(variables, key=lambda v: v.name)
    goals: tuple[Goal, ...] = tuple(
        EqualityGoal(theta1.get(v), theta2.get(v)) for v in ordered
    )
    protected: set[Var] = {c.var for c in ctx2}
    for v in ordered:
        protected |= term_vars(theta2.get(v))
    initial = UnificationState(ctx2, IDENTITY_SUBST, goals)
    # The witness binds no protected variable, so it leaves theta2's side as is.
    problem = UnificationState(ctx1, IDENTITY_SUBST, goals)
    inconclusive = False
    for leaf in _terminal_states(initial, frozenset(protected), sig, max_states):
        solution = _leaf_solution(leaf, frozenset(protected))
        if solution.residual_fixpoints:
            inconclusive = True
            continue
        if check_solution((ctx2, solution.subst), problem, sig):
            return True
        if solution.protected_fixpoint_discharged:
            # The freshness discharge of a fixed-point equation is only one
            # of its closures, so a failed witness here is not a refutation.
            inconclusive = True
    return UNKNOWN if inconclusive else False


def enumerate_fixpoint_solutions(
    perm: Permutation,
    var: Var,
    sig: Signature,
    depth: int,
) -> tuple[tuple[FreshnessContext, Substitution], ...]:
    """Bounded enumeration of solutions for the fixed-point equation pi.X =ac X.

    Emits the freshness solution first, then one ground substitution per
    commutative class, built from the moved atoms and the commutative
    symbols alone, that pi fixes, by term depth and then by `str`. The
    classes are built, not searched for (`_fixed_classes`), so every
    emitted pair solves the equation by construction.
    """
    moved = difference_set(perm, IDENTITY)
    if not moved:
        raise ValueError("fixed-point enumeration requires a non-identity permutation")
    freshness = frozenset(FreshnessConstraint(a, var) for a in moved)
    image = {a: perm.act(a) for a in sorted(moved, key=lambda a: a.name)}
    levels = _fixed_classes(image, sig.commutative_symbols, depth)
    return ((freshness, IDENTITY_SUBST),) + tuple(
        (EMPTY_CONTEXT, Substitution({var: t})) for level in levels[1:] for t in level
    )


def _fixed_classes(image: dict[Atom, Atom], syms: tuple[str, ...], depth: int) -> list[list[Term]]:
    """The commutative classes over `image`'s atoms, built from them and
    `syms`, that the permutation `image` fixes: one list per height up to
    `depth`, each sorted by `str`. A class is given as its least member by
    `str`, whose children are their own classes' least members in `str`
    order, since ", " and ")" sort below atom names' characters.

    f(l, r) is fixed modulo C exactly when l and r both are, or when r is
    the least member of image.l and l is fixed by image squared. The
    recursion through the squares stops at `depth` or once a square fixes
    every atom, where every class is fixed (Ayala-Rincon, Fernandez and
    Nantes-Sobrinho, "Fixed-point constraints for nominal equational
    unification", FSCD 2018, read these solutions off the cycles of pi).
    """
    levels: list[list[Term]] = [[a for a, b in image.items() if a == b]]
    squared = None
    if depth > 0 and len(levels[0]) < len(image):
        squared = _fixed_classes({a: image[b] for a, b in image.items()}, syms, depth - 1)
    below: list[Term] = []
    for height in range(depth):
        top = levels[-1]
        pairs = list(itertools.product(below, top)) + list(itertools.combinations_with_replacement(top, 2))
        if squared is not None:
            pairs += [(l, _permuted_least(image, l)) for l in squared[height]]
        below += top
        grown = {App(sym, tuple(sorted(pair, key=str))) for sym in syms for pair in pairs}
        levels.append(sorted(grown, key=str))
    return levels


def _permuted_least(image: dict[Atom, Atom], term: Term) -> Term:
    """The least member by `str` of the class of image.term (see `_fixed_classes`)."""
    if isinstance(term, Atom):
        return image[term]
    return App(term.sym, tuple(sorted((_permuted_least(image, a) for a in term.args), key=str)))
