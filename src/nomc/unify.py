"""Rule-based nominal unification and matching modulo commutativity.

The solver simplifies triples (context, accumulated substitution, goals)
under a fixed rule priority. Commutative applications branch into the two
argument pairings. Equations pi.X =ac X with pi not the identity are
fixed-point equations: they have infinitely many solutions and are returned
as residual data (or discharged by freshness when X is protected).
"""

from __future__ import annotations

from dataclasses import dataclass

from .alpha import (
    EMPTY_CONTEXT,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    Goal,
    derive_alpha_c,
    derive_freshness,
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


class _Fail:
    def __repr__(self) -> str:
        return "FAIL"


class _Stuck:
    def __repr__(self) -> str:
        return "STUCK"


class _Unknown:
    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False


FAIL = _Fail()
STUCK = _Stuck()
UNKNOWN = _Unknown()


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


def _stable_clash(goal: Goal, protected: ProtectedVars) -> bool:
    """Goals no rule can ever reduce and no substitution can repair."""
    if isinstance(goal, FreshnessGoal):
        return isinstance(goal.term, Atom) and goal.term == goal.atom
    lhs, rhs = goal.lhs, goal.rhs
    lsusp, rsusp = isinstance(lhs, Suspension), isinstance(rhs, Suspension)
    if not lsusp and not rsusp:
        if type(lhs) is not type(rhs):
            return True
        if isinstance(lhs, App) and isinstance(rhs, App):
            return lhs.sym != rhs.sym or len(lhs.args) != len(rhs.args)
        return False
    if lsusp and rsusp:
        return lhs.var != rhs.var and lhs.var in protected and rhs.var in protected
    susp = lhs if lsusp else rhs
    return susp.var in protected


def _without(goals: tuple[Goal, ...], idx: int, appended: list[Goal]) -> tuple[Goal, ...]:
    remaining = list(goals[:idx]) + list(goals[idx + 1 :])
    for goal in appended:
        if goal not in remaining:
            remaining.append(goal)
    return tuple(remaining)


def _rule_freshness(
    state: UnificationState, idx: int, goal: Goal, protected: ProtectedVars, sig: Signature
) -> list[UnificationState] | None:
    if not isinstance(goal, FreshnessGoal):
        return None
    atom, term = goal.atom, goal.term
    if isinstance(term, Atom):
        if term == atom:
            return None  # a#a: unsatisfiable, left for the clash check
        goals = _without(state.goals, idx, [])
    elif isinstance(term, App):
        goals = _without(state.goals, idx, [FreshnessGoal(atom, a) for a in term.args])
    elif isinstance(term, Abstraction):
        if term.atom == atom:
            goals = _without(state.goals, idx, [])
        else:
            goals = _without(state.goals, idx, [FreshnessGoal(atom, term.body)])
    else:
        moved = term.perm.inverse().act(atom)
        constraint = FreshnessConstraint(moved, term.var)
        return [
            UnificationState(state.context | {constraint}, state.subst, _without(state.goals, idx, []))
        ]
    return [UnificationState(state.context, state.subst, goals)]


def _rule_refl(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    trivially_equal = lhs == rhs or (
        isinstance(lhs, Suspension)
        and isinstance(rhs, Suspension)
        and lhs.var == rhs.var
        and not difference_set(lhs.perm, rhs.perm)
    )
    if not trivially_equal:
        return None
    return [UnificationState(state.context, state.subst, _without(state.goals, idx, []))]


def _rule_app(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if not (isinstance(lhs, App) and isinstance(rhs, App)):
        return None
    if lhs.sym != rhs.sym or len(lhs.args) != len(rhs.args) or sig.is_commutative(lhs.sym):
        return None
    appended = [EqualityGoal(a, b) for a, b in zip(lhs.args, rhs.args)]
    return [UnificationState(state.context, state.subst, _without(state.goals, idx, appended))]


def _rule_commutative(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if not (isinstance(lhs, App) and isinstance(rhs, App)):
        return None
    if lhs.sym != rhs.sym or not sig.is_commutative(lhs.sym):
        return None
    s0, s1 = lhs.args
    t0, t1 = rhs.args
    aligned = _without(state.goals, idx, [EqualityGoal(s0, t0), EqualityGoal(s1, t1)])
    crossed = _without(state.goals, idx, [EqualityGoal(s0, t1), EqualityGoal(s1, t0)])
    states = [UnificationState(state.context, state.subst, aligned)]
    if crossed != aligned:
        states.append(UnificationState(state.context, state.subst, crossed))
    return states


def _rule_abs_same(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if not (isinstance(lhs, Abstraction) and isinstance(rhs, Abstraction)):
        return None
    if lhs.atom != rhs.atom:
        return None
    appended = [EqualityGoal(lhs.body, rhs.body)]
    return [UnificationState(state.context, state.subst, _without(state.goals, idx, appended))]


def _rule_abs_diff(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if not (isinstance(lhs, Abstraction) and isinstance(rhs, Abstraction)):
        return None
    if lhs.atom == rhs.atom:
        return None
    swapped = permute_term(Permutation(((lhs.atom, rhs.atom),)), rhs.body)
    appended = [EqualityGoal(lhs.body, swapped), FreshnessGoal(lhs.atom, rhs.body)]
    return [UnificationState(state.context, state.subst, _without(state.goals, idx, appended))]


def _rule_inv(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if not (isinstance(lhs, Suspension) and isinstance(rhs, Suspension)):
        return None
    if lhs.var != rhs.var or not rhs.perm.swappings:
        return None
    combined = rhs.perm.inverse().compose(lhs.perm)
    appended = [EqualityGoal(Suspension(combined, lhs.var), Suspension(IDENTITY, lhs.var))]
    return [UnificationState(state.context, state.subst, _without(state.goals, idx, appended))]


def _instantiable(side: Term, other: Term, protected: ProtectedVars) -> Suspension | None:
    if not isinstance(side, Suspension) or side.var in protected:
        return None
    if isinstance(other, Suspension) and other.var == side.var:
        return None
    if side.var in term_vars(other):
        return None
    return side


def _rule_inst(state, idx, goal, protected, sig):
    if not isinstance(goal, EqualityGoal):
        return None
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
        if isinstance(g, FreshnessGoal):
            updated: Goal = FreshnessGoal(g.atom, apply_subst(binding, g.term))
        else:
            updated = EqualityGoal(apply_subst(binding, g.lhs), apply_subst(binding, g.rhs))
        if updated not in transformed:
            transformed.append(updated)
    for constraint in sorted(state.context, key=lambda c: (c.atom.name, c.var.name)):
        if constraint.var in new_subst.domain:
            regenerated = FreshnessGoal(constraint.atom, new_subst.get(constraint.var))
            if regenerated not in transformed:
                transformed.append(regenerated)
    return [UnificationState(state.context, new_subst, tuple(transformed))]


# Freshness first; instantiation last so substitutions grow as late as possible.
_RULES = (
    _rule_freshness,
    _rule_refl,
    _rule_app,
    _rule_commutative,
    _rule_abs_same,
    _rule_abs_diff,
    _rule_inv,
    _rule_inst,
)


def simplify_step(
    state: UnificationState,
    protected: ProtectedVars = NO_PROTECTION,
    *,
    sig: Signature,
) -> tuple[UnificationState, ...] | _Fail | _Stuck:
    """Apply the first applicable simplification rule under the fixed priority.

    Returns the successor states (two of them for a commutative application),
    FAIL when some goal is irreducibly unsatisfiable, or STUCK when only
    fixed-point equations remain.
    """
    if any(_stable_clash(g, protected) for g in state.goals):
        return FAIL
    for rule in _RULES:
        for idx, goal in enumerate(state.goals):
            successors = rule(state, idx, goal, protected, sig)
            if successors is not None:
                return tuple(successors)
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
    for constraint in problem.context:
        if not derive_freshness(ctx, constraint.atom, theta.get(constraint.var)):
            return False
    for goal in problem.goals:
        if isinstance(goal, FreshnessGoal):
            if not derive_freshness(ctx, goal.atom, apply_subst(theta, goal.term)):
                return False
        else:
            lhs = apply_subst(theta, goal.lhs)
            rhs = apply_subst(theta, goal.rhs)
            if not derive_alpha_c(ctx, lhs, rhs, sig):
                return False
    return True


def instance_of(
    general: tuple[FreshnessContext, Substitution],
    specific: tuple[FreshnessContext, Substitution],
    variables: frozenset[Var] | set[Var],
    *,
    sig: Signature,
    max_states: int = DEFAULT_MAX_STATES,
) -> bool | _Unknown:
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
    inconclusive = False
    for leaf in _terminal_states(initial, frozenset(protected), sig, max_states):
        solution = _leaf_solution(leaf, frozenset(protected))
        if solution.residual_fixpoints:
            inconclusive = True
            continue
        witness = solution.subst
        ok = all(
            derive_alpha_c(ctx2, apply_subst(witness, theta1.get(v)), theta2.get(v), sig)
            for v in ordered
        ) and all(derive_freshness(ctx2, c.atom, witness.get(c.var)) for c in ctx1)
        if ok:
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
    """Bounded generator of solutions for the fixed-point equation pi.X =ac X.

    Emits the freshness solution first, then substitutions built from
    commutative combinations of the moved atoms, by increasing term depth.
    Every emitted pair passes check_solution for the equation.
    """
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
