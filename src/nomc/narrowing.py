"""Narrowing modulo commutativity and the lifting correspondence.

Narrowing replaces matching by full unification: a step may instantiate the
subject term's own variables. Unification solutions carrying residual
fixed-point equations are expanded through the bounded fixed-point
enumerator, so the (potentially infinitely branching) tree is explored up to
three caller-set bounds: tree depth, unifiers per node, and enumeration
depth. Every truncation is recorded in the result.

Each rule is renamed apart before it is unified with a subterm. One name
supply per search (`NameSupply`), seeded with the root's variables, gives
the names: at each site where a rule fits (`redexes`), the rule's
variables draw the next fresh names in name order. The solver introduces
no variable and fixed-point images are ground, so a child's variables are
its parent's or its rule instance's, all taken from the supply already.
Backward lifting draws the same way, from one supply per derivation, once
per lifted step.

Children are built straight from solver, walk and fixed-point answers,
with no re-check, and no node constrains a variable its substitution from
the root binds (see `_expanded_solutions`). Backward lifting constructs its
unifier rather than solving for it, so `_lift_one` checks that one with
`check_solution`. `narrowing_to_rewriting` is the soundness oracle for the
steps this module builds.

A search pays only for what it returns. It keeps one table of enumerated
fixed-point options, keyed by (permutation, variable), for all its nodes:
the options depend on nothing else that varies within a search, and the
table is dropped when the search returns. A node is a term in context;
the substitution accumulated from the root belongs to its path, and
nothing in the search reads it: `NarrowingTree.accumulated` composes every
node's on request. The scan, `nomc.rewriting.redexes`, decides where a
rule is unified by the linear walk instead of the solver, with the same
answers in the same order.
"""

from __future__ import annotations

from typing import Iterator

from .alpha import (
    EqualityGoal,
    FreshnessContext,
    INCONSISTENT,
    Sentinel,
    derive_alpha,
    derive_alpha_c,
    format_context,
    freshness_context_nf,
    satisfies_with,
)
from .rewriting import (
    RewriteRule,
    RewriteStep,
    RewriteSystem,
    primary_rewrite_steps,
    redexes,
    renamed_rule,
    rewrite_at,
    verify_rewrite_step,
)
from .terms import (
    IDENTITY_SUBST,
    NameSupply,
    Permutation,
    Position,
    Printer,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    apply_subst,
    frozen_node,
    permute_term,
    replace_at,
    subterm_at,
    term_vars,
)
from .unify import (
    DEFAULT_MAX_STATES,
    CSolution,
    UnificationState,
    check_solution,
    enumerate_fixpoint_solutions,
)


@frozen_node(eq=False)
class NarrowingNode:
    """A term in context reached by narrowing, at its depth below the root.
    The substitution accumulated on the way belongs to the path, not the
    node: `NarrowingTree.accumulated` composes it."""

    context: FreshnessContext
    term: Term
    depth: int

    def __str__(self) -> str:
        return self.show(Printer())

    def show(self, printer: Printer) -> str:
        """The node as a `narrow` listing names it, printed by `printer`."""
        return f"{format_context(self.context)} |- {printer.term(self.term)}"


@frozen_node(eq=False)
class NarrowingStep:
    """One narrowing edge; `used_fixpoint_enumeration` marks children built
    by expanding a residual fixed-point equation."""

    rule: str
    position: Position
    step_subst: Substitution
    used_fixpoint_enumeration: bool
    child: NarrowingNode
    parent: NarrowingNode
    rule_instance: RewriteRule

    def __str__(self) -> str:
        return f"{self.rule} @ {self.position} with {self.step_subst} ~> {self.child}"


@frozen_node
class TruncationRecord:
    """The bounds a tree was built under, plus how often they actually bit."""

    depth: int
    max_unifiers: int
    fixpoint_depth: int
    nodes_truncated: int = 0


@frozen_node
class NarrowingTree:
    """The edges `narrow_search` built below `root`, breadth first, and the
    bounds it built them under."""

    root: NarrowingNode
    edges: tuple[NarrowingStep, ...]
    truncation: TruncationRecord

    def nodes(self) -> tuple[NarrowingNode, ...]:
        return (self.root,) + tuple(e.child for e in self.edges)

    def children(self, node: NarrowingNode) -> tuple[NarrowingStep, ...]:
        return tuple(e for e in self.edges if e.parent is node)

    def accumulated(self) -> dict[NarrowingNode, Substitution]:
        """Each node's substitution from the root, the composition of the
        step substitutions on its path, in `nodes()` order. Edges are stored
        breadth first, so a parent's substitution is composed before its
        children's: one loop, one `compose` per edge."""
        composed = {self.root: IDENTITY_SUBST}
        for e in self.edges:
            composed[e.child] = composed[e.parent].compose(e.step_subst)
        return composed


def _gather_vars(node: NarrowingNode) -> frozenset[Var]:
    return term_vars(node.term) | frozenset(c.var for c in node.context)


_FixpointTable = dict[tuple[Permutation, Var], tuple[tuple[FreshnessContext, Substitution], ...]]


def _expanded_solutions(
    solutions: tuple[CSolution, ...],
    sig: Signature,
    fixpoint_depth: int,
    table: _FixpointTable,
) -> Iterator[tuple[FreshnessContext, Substitution, bool]]:
    """Close solver answers into usable (context, substitution, flag) triples.

    Answers without residuals pass through flagged False (narrowing protects
    no variable, so none is discharged). Residual equations are closed one at
    a time, lazily, and flagged True: one on an unbound variable branches over
    its enumerated options, whose bindings settle the context's constraints
    on it; one on a variable bound before is checked. Options are looked up
    in, and added to, the search's `table`.
    """

    def close(
        context: FreshnessContext, theta: Substitution, residuals: tuple[tuple[Permutation, Var], ...]
    ) -> Iterator[tuple[FreshnessContext, Substitution, bool]]:
        if not residuals:
            yield context, theta, True
            return
        (perm, var), rest = residuals[0], residuals[1:]
        if var in theta.domain:
            bound = theta.get(var)
            if derive_alpha_c(context, permute_term(perm, bound), bound, sig):
                yield from close(context, theta, rest)
            return
        if (perm, var) not in table:
            table[perm, var] = enumerate_fixpoint_solutions(perm, var, sig, fixpoint_depth)
        for extra_ctx, rho in table[perm, var]:
            reduced = freshness_context_nf(context, rho)
            if reduced is not INCONSISTENT:
                yield from close(reduced | extra_ctx, theta.compose(rho), rest)

    for sol in solutions:
        if sol.residual_fixpoints:
            yield from close(sol.context, sol.subst, sol.residual_fixpoints)
        else:
            yield sol.context, sol.subst, False


def _child(
    node: NarrowingNode, pos: Position, rule: RewriteRule, context: FreshnessContext, theta: Substitution
) -> NarrowingNode:
    """The child of a node for `rule` at `pos` under the answer (context, theta)."""
    rewritten = apply_subst(theta, replace_at(node.term, pos.path, rule.rhs))
    return NarrowingNode(context, rewritten, node.depth + 1)


def _expand_node(
    node: NarrowingNode,
    system: RewriteSystem,
    fixpoint_depth: int,
    max_unifiers: int,
    names: NameSupply,
    max_states: int,
    table: _FixpointTable,
) -> tuple[list[NarrowingStep], bool]:
    """Narrowing steps from a node, and whether max_unifiers cut them off.
    Each rule is renamed apart, with names drawn from `names`, at each site
    where `redexes` unifies it, by the linear walk or the solver; residuals
    are closed from the search's `table`."""
    steps: list[NarrowingStep] = []

    def prepare(rule: RewriteRule, _: frozenset[Var]) -> RewriteRule:
        return renamed_rule(rule, names.draw(rule.renaming_bases))

    for pos, rule, solutions in redexes(node.context, node.term, system, prepare, max_states, unify=True):
        for context, theta, flagged in _expanded_solutions(solutions, system.signature, fixpoint_depth, table):
            if len(steps) >= max_unifiers:
                return steps, True
            child = _child(node, pos, rule, context, theta)
            steps.append(NarrowingStep(rule.name, pos, theta, flagged, child, node, rule))
    return steps, False


def narrow_search(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    depth: int,
    fixpoint_depth: int,
    max_unifiers: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> NarrowingTree:
    """Breadth-first narrowing tree up to the given depth.

    The tree is an announced finite prefix of the full (possibly infinite)
    tree: every bound that actually cut something off is counted in the
    truncation record. Each residual (permutation, variable) is enumerated
    once per search, into a table the search drops when it returns.
    """
    root = NarrowingNode(delta, term, 0)
    edges: list[NarrowingStep] = []
    frontier = [root]
    names = NameSupply(_gather_vars(root))
    table: _FixpointTable = {}
    nodes_truncated = 0
    for _ in range(depth):
        next_frontier: list[NarrowingNode] = []
        for node in frontier:
            steps, truncated = _expand_node(node, system, fixpoint_depth, max_unifiers, names, max_states, table)
            if truncated:
                nodes_truncated += 1
            edges.extend(steps)
            next_frontier.extend(s.child for s in steps)
        frontier = next_frontier
        if not frontier:
            break
    record = TruncationRecord(depth, max_unifiers, fixpoint_depth, nodes_truncated)
    return NarrowingTree(root, tuple(edges), record)


def _rewrites_to(
    context: FreshnessContext,
    sigma: Substitution,
    parent: Term,
    step: NarrowingStep,
    target: Term,
    sig: Signature,
) -> bool:
    """Whether sigma(parent) rewrites under context, by the step's rule
    instance at the step's position (`rewrite_at`), to a term alpha-equal
    to target. The position must exist in the parent itself, not only in
    its instance; the result is compared by plain alpha, without
    commutativity."""
    path = step.position.path
    try:
        subterm_at(parent, path)
    except ValueError:
        return False
    rewritten = rewrite_at(context, apply_subst(sigma, parent), path, step.rule_instance, sigma, sig)
    return rewritten is not None and derive_alpha(context, rewritten, target)


def narrowing_to_rewriting(step: NarrowingStep, parent: NarrowingNode, *, sig: Signature) -> bool:
    """Soundness oracle: instantiating the parent by the step substitution
    must rewrite, with the same rule at the same position, to the child."""
    child = step.child
    return _rewrites_to(child.context, step.step_subst, parent.term, step, child.term, sig)


PRECONDITION_FAIL = Sentinel("PRECONDITION_FAIL")


def _chain_or_raise(derivation: tuple[NarrowingStep, ...] | list[NarrowingStep]) -> None:
    for earlier, later in zip(derivation, derivation[1:]):
        if later.parent is not earlier.child:
            raise ValueError("narrowing steps do not form a chain")


def lifting_forward_check(
    derivation: tuple[NarrowingStep, ...] | list[NarrowingStep],
    rho: Substitution,
    delta: FreshnessContext,
    sig: Signature,
) -> bool | Sentinel:
    """Verify that instantiating a narrowing derivation by rho yields a
    rewriting derivation under delta.

    rho must satisfy the final node's context with delta; otherwise the
    check reports PRECONDITION_FAIL. A False answer on a derivation the
    engine produced indicates an engine bug.
    """
    derivation = tuple(derivation)
    if not derivation:
        return True
    _chain_or_raise(derivation)
    final_ctx = derivation[-1].child.context
    if not satisfies_with(final_ctx, rho, delta):
        return PRECONDITION_FAIL
    # rho_i = theta_i ... theta_{n-1} rho, built right to left.
    rhos: list[Substitution] = [rho]
    for step in reversed(derivation):
        rhos.insert(0, step.step_subst.compose(rhos[0]))
    for step, rho_i, rho_next in zip(derivation, rhos, rhos[1:]):
        if not satisfies_with(step.parent.context, rho_i, delta):
            return False
        target = apply_subst(rho_next, step.child.term)
        if not _rewrites_to(delta, rho_i, step.parent.term, step, target, sig):
            return False
    return True


@frozen_node
class NotFound:
    """Backward lifting found no narrowing step above trace step step_index."""

    step_index: int

    def __bool__(self) -> bool:
        return False


def lifting_backward_construct(
    delta0: FreshnessContext,
    s0: Term,
    rho0: Substitution,
    delta: FreshnessContext,
    trace: tuple[RewriteStep, ...] | list[RewriteStep],
    fixpoint_depth: int,
    system: RewriteSystem,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[tuple[NarrowingStep, ...], Substitution] | NotFound:
    """Rebuild a narrowing derivation above a recorded rewriting trace.

    rho0 must be normalised under delta and satisfy delta0 with delta, and
    the trace must start at s0 rho0. Each trace step is lifted at its
    recorded position by one construction: the narrowing unifier is the
    current instantiation composed with the recorded matcher. The first step
    takes all of rho0, so every later step's instantiation, and the residue
    of any non-empty trace, is the identity. Each step's rule is renamed
    apart with names drawn from one supply, seeded with the variables of s0,
    rho0, delta0 and delta. fixpoint_depth is unused; it keeps its place for
    positional callers.
    """
    sig = system.signature
    trace = tuple(trace)
    for var in sorted(rho0.domain, key=lambda v: v.name):
        if primary_rewrite_steps(delta, rho0.get(var), system, max_states=max_states):
            raise ValueError(f"rho0 is not normalised: {var} maps to a reducible term")
    if not satisfies_with(delta0, rho0, delta):
        raise ValueError("rho0 does not satisfy the root context under delta")
    source = apply_subst(rho0, s0)
    for recorded in trace:
        if not verify_rewrite_step(delta, source, recorded, sig):
            raise ValueError("trace does not replay from s0 rho0 under delta")
        source = recorded.result
    if not trace:
        return (), rho0
    node = NarrowingNode(delta0, s0, 0)
    rho_cur = rho0
    steps: list[NarrowingStep] = []
    seeds = _gather_vars(node) | rho0.domain | {c.var for c in delta}
    names = NameSupply(seeds.union(*(term_vars(image) for _, image in rho0.items())))
    for index, recorded in enumerate(trace):
        step = _lift_one(node, rho_cur, recorded, delta, sig, names)
        if step is None:
            return NotFound(index)
        steps.append(step)
        node = step.child
        rho_cur = IDENTITY_SUBST
    return tuple(steps), rho_cur


def _lift_one(
    node: NarrowingNode,
    rho_cur: Substitution,
    recorded: RewriteStep,
    delta: FreshnessContext,
    sig: Signature,
    names: NameSupply,
) -> NarrowingStep | None:
    """The narrowing step above `recorded` whose unifier is rho_cur composed
    with the recorded matcher, or None. The recorded rule instance is
    renamed apart with names drawn from `names`. The unifier must solve the
    step's unification problem (`check_solution`), and the child must be
    =ac to the recorded result under delta. The unifier agrees with rho_cur
    on the node's variables, so the residue is the identity: the renamed
    matcher binds only names `names` just drew, and `names` never repeats
    one and holds every variable of s0, rho0 and both contexts."""
    pos = recorded.position
    try:
        sub = subterm_at(node.term, pos.path)
    except ValueError:
        return None
    if isinstance(sub, Suspension):
        return None
    rule = recorded.rule_instance
    var_map = names.draw(rule.renaming_bases)
    renamed = renamed_rule(rule, var_map)
    sigma = Substitution(
        {var_map[v]: image for v, image in recorded.subst.items() if v in var_map}
    )
    theta = rho_cur.compose(sigma)
    problem = UnificationState(
        node.context | renamed.context, IDENTITY_SUBST, (EqualityGoal(renamed.lhs, sub),)
    )
    if not check_solution((delta, theta), problem, sig):
        return None
    child = _child(node, pos, renamed, delta, theta)
    if derive_alpha_c(delta, child.term, recorded.result, sig):
        return NarrowingStep(recorded.rule, pos, theta, False, child, node, renamed)
    return None
