"""Rule-based nominal unification and matching modulo commutativity.

The solver simplifies triples (context, accumulated substitution, goals)
under a fixed rule priority. Commutative applications branch into the two
argument pairings. Equations pi.X =ac X with pi not the identity are
fixed-point equations: they have infinitely many solutions and are returned
as residual data (or discharged by freshness when X is protected). Their
shape is recognised once, by the rule rank `_FIXPOINT`. No answer's context
constrains a variable its substitution binds (see `_instantiate`).

The search advances each branch in place: its context, its substitution,
its goals and each goal's cached rule rank. A commutative split whose
pairings differ copies the branch, and a leaf is turned into its
`CSolution` where the search finds it. Only `simplify_step`, which applies
the same step to a given state, builds a `UnificationState`. `max_states`
counts one state per step and one per goal-less leaf, as a search that
built every successor state would.
"""

from __future__ import annotations

import itertools

from .alpha import (
    EMPTY_CONTEXT,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    Goal,
    Sentinel,
    check_problem,
    format_context,
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
    frozen_node,
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


@frozen_node
class UnificationState:
    """A solver triple: hypotheses, accumulated substitution, open goals."""

    context: FreshnessContext
    subst: Substitution
    goals: tuple[Goal, ...]

    def __str__(self) -> str:
        goals = ", ".join(str(g) for g in self.goals) or "{}"
        return f"<{sorted(str(c) for c in self.context)}, {self.subst}, {{{goals}}}>"


@frozen_node
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
        parts = [f"context: {format_context(self.context)}", f"subst: {self.subst}"]
        if self.residual_fixpoints:
            eqs = ", ".join(f"{Suspension(p, v)} =ac {v}" for p, v in self.residual_fixpoints)
            parts.append(f"residual: {eqs}")
        return "; ".join(parts)


# Rule ranks, highest priority first: freshness first; instantiation last so
# substitutions grow as late as possible. A clash ranks below every rule. A
# fixed-point equation, which no rule reduces, ranks above them, and above it
# a goal that fails once nothing else reduces. So a branch's least rank says
# what its next step does: from _INST up, the branch is stuck if every goal
# is a fixed-point equation, and fails otherwise.
_CLASH, _FRESH, _REFL, _APP, _COMM, _ABS_SAME, _ABS_DIFF, _INV, _INST, _FIXPOINT, _NO_RULE = range(-1, 10)


def _rule_for(goal: Goal, protected: ProtectedVars, sig: Signature) -> int:
    """The highest-priority rule the goal's shape admits, _CLASH when no rule
    can ever reduce the goal and no substitution can repair it, _FIXPOINT for
    a fixed-point equation, or _NO_RULE.

    _INST only marks a candidate: the occurs check is left to the caller,
    which runs it only when no goal admits a higher-priority rule.
    """
    if type(goal) is FreshnessGoal:
        return _CLASH if goal.term is goal.atom else _FRESH
    lhs, rhs = goal.lhs, goal.rhs
    kind = type(lhs)
    lsusp, rsusp = kind is Suspension, type(rhs) is Suspension
    if lsusp and rsusp and lhs.var is rhs.var:
        if not difference_set(lhs.perm, rhs.perm):
            return _REFL
        return _INV if rhs.perm.swappings else _FIXPOINT
    if lsusp or rsusp:
        if (not lsusp or lhs.var in protected) and (not rsusp or rhs.var in protected):
            return _CLASH
        return _INST
    if kind is not type(rhs):
        return _CLASH
    if lhs == rhs:
        return _REFL
    if kind is App:
        if lhs.sym != rhs.sym or len(lhs.args) != len(rhs.args):
            return _CLASH
        return _COMM if sig.is_commutative(lhs.sym) else _APP
    if kind is Abstraction:
        return _ABS_SAME if lhs.atom is rhs.atom else _ABS_DIFF
    return _NO_RULE  # distinct atoms: failure waits until nothing else reduces


class _Branch:
    """One branch of the search, advanced in place by `_step`: hypotheses,
    accumulated substitution, open goals, and each goal's `_rule_for` rank."""

    __slots__ = ("context", "subst", "goals", "ranks")

    def __init__(self, context: FreshnessContext, subst: Substitution, goals: list[Goal], ranks: list[int]) -> None:
        self.context = context
        self.subst = subst
        self.goals = goals
        self.ranks = ranks

    def state(self) -> UnificationState:
        return UnificationState(self.context, self.subst, tuple(self.goals))


def _branch(
    context: FreshnessContext, subst: Substitution, goals: tuple[Goal, ...], protected: ProtectedVars, sig: Signature
) -> _Branch:
    return _Branch(context, subst, list(goals), [_rule_for(g, protected, sig) for g in goals])


def _novel(goals: list[Goal], new: list[Goal]) -> list[Goal]:
    """The goals of `new` that are neither in `goals` nor earlier in `new`."""
    out: list[Goal] = []
    for goal in new:
        if goal not in goals and goal not in out:
            out.append(goal)
    return out


def _step(branch: _Branch, protected: ProtectedVars, sig: Signature) -> _Branch | Sentinel | None:
    """Apply the highest-priority rule any goal admits, to the first goal
    admitting it, in place.

    Returns None once `branch` holds the successor; the second branch of a
    commutative application whose pairings differ (`branch` holds the
    first); FAIL when some goal is irreducibly unsatisfiable; or STUCK when
    only fixed-point equations remain, or none at all. FAIL and STUCK leave
    `branch` as is.
    """
    goals, ranks = branch.goals, branch.ranks
    rule = min(ranks, default=_NO_RULE)
    if rule == _CLASH:
        return FAIL
    if rule == _INST:
        # Only instantiation candidates are left; the first to pass the occurs check fires.
        for idx in range(len(goals)):
            if ranks[idx] == _INST and _instantiate(branch, idx, protected, sig):
                return None
    if rule >= _INST:
        return STUCK if all(r == _FIXPOINT for r in ranks) else FAIL
    idx = ranks.index(rule)
    goal = goals.pop(idx)
    del ranks[idx]
    new: list[Goal] = []  # drop the goal: refl, a#b, a#[a]t
    crossed: list[Goal] | None = None
    if rule == _FRESH:
        atom, term = goal.atom, goal.term
        kind = type(term)
        if kind is App:
            new = [FreshnessGoal(atom, arg) for arg in term.args]
        elif kind is Abstraction and term.atom is not atom:
            new = [FreshnessGoal(atom, term.body)]
        elif kind is Suspension:
            branch.context = branch.context | {FreshnessConstraint(term.perm.inverse().act(atom), term.var)}
    elif rule != _REFL:
        lhs, rhs = goal.lhs, goal.rhs
        if rule == _APP:
            new = [EqualityGoal(l, r) for l, r in zip(lhs.args, rhs.args)]
        elif rule == _COMM:
            (s0, s1), (t0, t1) = lhs.args, rhs.args
            new = [EqualityGoal(s0, t0), EqualityGoal(s1, t1)]
            crossed = [EqualityGoal(s0, t1), EqualityGoal(s1, t0)]
        elif rule == _ABS_SAME:
            new = [EqualityGoal(lhs.body, rhs.body)]
        elif rule == _ABS_DIFF:
            swapped = permute_term(Permutation(((lhs.atom, rhs.atom),)), rhs.body)
            new = [EqualityGoal(lhs.body, swapped), FreshnessGoal(lhs.atom, rhs.body)]
        else:  # _INV
            combined = rhs.perm.inverse().compose(lhs.perm)
            new = [EqualityGoal(Suspension(combined, lhs.var), Suspension(IDENTITY, lhs.var))]
    split = None
    if crossed is not None:
        new, crossed = _novel(goals, new), _novel(goals, crossed)
        if crossed != new:
            split = _Branch(
                branch.context, branch.subst, goals + crossed, ranks + [_rule_for(g, protected, sig) for g in crossed]
            )
    for added in new:
        if added not in goals:
            goals.append(added)
            ranks.append(_rule_for(added, protected, sig))
    return split


def _instantiable(side: Term, other: Term, protected: ProtectedVars) -> Suspension | None:
    if not isinstance(side, Suspension) or side.var in protected:
        return None
    if side.var in term_vars(other):
        return None
    return side


def _goal_image(theta: Substitution, goal: Goal) -> Goal:
    """theta(goal); a goal none of whose variables theta binds comes back as is."""
    if isinstance(goal, FreshnessGoal):
        term = apply_subst(theta, goal.term)
        return goal if term is goal.term else FreshnessGoal(goal.atom, term)
    lhs, rhs = apply_subst(theta, goal.lhs), apply_subst(theta, goal.rhs)
    return goal if lhs is goal.lhs and rhs is goal.rhs else EqualityGoal(lhs, rhs)


def _instantiate(branch: _Branch, idx: int, protected: ProtectedVars, sig: Signature) -> bool:
    """Bind a variable X of goal idx in place; False, with `branch` as is, when
    the occurs check rules out both sides. Constraints a#X leave the context as
    goals a#theta(X); these and the goals the binding rewrites are ranked anew."""
    goal = branch.goals[idx]
    picked = _instantiable(goal.lhs, goal.rhs, protected)
    other = goal.rhs
    if picked is None:
        picked = _instantiable(goal.rhs, goal.lhs, protected)
        other = goal.lhs
    if picked is None:
        return False
    binding = Substitution({picked.var: permute_term(picked.perm.inverse(), other)})
    transformed: list[Goal] = []
    ranks: list[int] = []
    for i, g in enumerate(branch.goals):
        if i == idx:
            continue
        updated = _goal_image(binding, g)
        if updated not in transformed:
            transformed.append(updated)
            ranks.append(branch.ranks[i] if updated is g else _rule_for(updated, protected, sig))
    settled = [c for c in branch.context if c.var is picked.var]
    for constraint in sorted(settled, key=lambda c: c.atom.name):
        regenerated = FreshnessGoal(constraint.atom, binding.get(picked.var))
        if regenerated not in transformed:
            transformed.append(regenerated)
            ranks.append(_rule_for(regenerated, protected, sig))
    branch.context = branch.context.difference(settled)
    branch.subst, branch.goals, branch.ranks = branch.subst.compose(binding), transformed, ranks
    return True


def simplify_step(
    state: UnificationState,
    protected: ProtectedVars = NO_PROTECTION,
    *,
    sig: Signature,
) -> tuple[UnificationState, ...] | Sentinel:
    """Apply the highest-priority applicable rule, to the first goal admitting it.

    Returns the successor states (two of them for a commutative application
    whose pairings differ), FAIL when some goal is irreducibly unsatisfiable,
    or STUCK when only fixed-point equations remain. This is `_step` on a
    branch built from `state`; the solver itself never builds these states.
    """
    branch = _branch(state.context, state.subst, state.goals, protected, sig)
    outcome = _step(branch, protected, sig)
    if outcome is FAIL or outcome is STUCK:
        return outcome
    if outcome is None:
        return (branch.state(),)
    return (branch.state(), outcome.state())


def _leaf_solutions(
    context: FreshnessContext,
    goals: tuple[Goal, ...],
    protected: ProtectedVars,
    sig: Signature,
    max_states: int,
) -> list[CSolution]:
    """Depth-first exhaustion of the branch tree from (context, identity,
    goals): the solution of every leaf, in the order the leaves are found.

    A branch advances in place until it fails or gets stuck, which it does
    with no goals left or only fixed-point equations; the second branch of
    a commutative split waits on the stack. Each step and each goal-less
    leaf counts as one state towards `max_states`.
    """
    stack = [_branch(context, IDENTITY_SUBST, goals, protected, sig)]
    solutions: list[CSolution] = []
    visited = 0
    while stack:
        branch = stack.pop()
        while True:
            visited += 1
            if visited > max_states:
                raise SearchSpaceExceeded(f"unification search exceeded {max_states} states")
            outcome = _step(branch, protected, sig)
            if outcome is None:
                continue
            if outcome is FAIL:
                break
            if outcome is STUCK:
                solutions.append(_leaf_solution(branch, protected))
                break
            stack.append(outcome)
    return solutions


def _leaf_solution(branch: _Branch, protected: ProtectedVars) -> CSolution:
    """A stuck branch's solution: its fixed-point equations on protected
    variables are discharged by freshness, the others kept as residuals."""
    context = branch.context
    kept: list[tuple[Permutation, Var]] = []
    discharged = False
    for goal in branch.goals:
        perm, var = goal.lhs.perm, goal.lhs.var
        if var in protected:
            context = context | {FreshnessConstraint(a, var) for a in perm.moved_atoms()}
            discharged = True
        else:
            kept.append((perm, var))
    return CSolution(context, branch.subst, tuple(kept), discharged)


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
    solutions: list[CSolution] = []
    for solution in _leaf_solutions(nabla | delta, (EqualityGoal(l, s),), protected, sig, max_states):
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
    protected; UNKNOWN is reported when a failed candidate closed a
    fixed-point equation by freshness alone.

    No answer carries a residual. Each goal pairs a general-side term with a
    specific-side one, and every step keeps that orientation: the search
    binds only unprotected variables, so a right-hand side keeps mentioning
    protected variables only. A fixed-point equation has one variable on
    both sides, so it is on a protected variable and is discharged.
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
    # The witness binds no protected variable, so it leaves theta2's side as is.
    problem = UnificationState(ctx1, IDENTITY_SUBST, goals)
    inconclusive = False
    for solution in _leaf_solutions(ctx2, goals, frozenset(protected), sig, max_states):
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
    moved = perm.moved_atoms()
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
