"""Freshness and alpha-equivalence judgements, modulo commutative symbols.

Freshness a#t is decided by its normal form (`freshness_nf`, one loop over
an explicit stack): it holds under a context exactly when the normal form
is consistent and contained in the context. Alpha-equivalence is decided
by a single syntax-directed pass. Equality of commutative applications
tries the aligned and the crossed argument pairing and succeeds if either
closes. Contexts are finite sets of primitive constraints a#X used as
hypotheses.
"""

from __future__ import annotations

from typing import Union

from .terms import (
    Abstraction,
    App,
    Atom,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    difference_set,
    frozen_node,
    permute_term,
)


@frozen_node
class FreshnessConstraint:
    """Primitive constraint a#X: atom a cannot occur free in instances of X."""

    atom: Atom
    var: Var

    def __str__(self) -> str:
        return f"{self.atom}#{self.var}"


FreshnessContext = frozenset[FreshnessConstraint]

EMPTY_CONTEXT: FreshnessContext = frozenset()


def format_context(ctx: FreshnessContext) -> str:
    if not ctx:
        return "{}"
    return ", ".join(str(c) for c in sorted(ctx, key=lambda c: (c.atom.name, c.var.name)))


@frozen_node
class FreshnessGoal:
    """Goal a#t for an arbitrary term t."""

    atom: Atom
    term: Term

    def __str__(self) -> str:
        return f"{self.atom}#{self.term}"


@frozen_node
class EqualityGoal:
    """Goal s =ac t."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} =ac {self.rhs}"


Goal = Union[FreshnessGoal, EqualityGoal]


class Sentinel:
    """A named non-answer: falsy, and compared with `is`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        return False


# Result of normalising a freshness context that demands a#a.
INCONSISTENT = Sentinel("INCONSISTENT")


def derive_freshness(ctx: FreshnessContext, atom: Atom, term: Term) -> bool:
    """Decide ctx |- atom # term: its normal form is consistent and in ctx."""
    reduced = freshness_nf(atom, term)
    return reduced is not INCONSISTENT and reduced <= ctx


def derive_alpha_c(ctx: FreshnessContext, s: Term, t: Term, sig: Signature) -> bool:
    """Decide ctx |- s =ac t over the given signature.

    One object is equal to itself under any context (reflexivity), so
    `s is t` answers at once; shared subterms cost nothing. Applications
    of one and two arguments are compared without a loop, and the crossed
    pairing is tried only for a commutative symbol whose aligned pairing
    failed. Suspensions of the same variable compare via the difference set
    of their permutations, which is empty when their swap lists are equal;
    abstractions with distinct binders compare after swapping, under a
    freshness side condition on the right body.
    """
    if s is t:
        return True
    kind = type(s)
    if kind is not type(t):
        return False
    if kind is App:
        args, others = s.args, t.args
        count = len(args)
        if s.sym != t.sym or count != len(others):
            return False
        if count == 2:
            s0, s1 = args
            t0, t1 = others
            if derive_alpha_c(ctx, s0, t0, sig) and derive_alpha_c(ctx, s1, t1, sig):
                return True
            return (
                s.sym in sig._commutative
                and derive_alpha_c(ctx, s0, t1, sig)
                and derive_alpha_c(ctx, s1, t0, sig)
            )
        if count == 1:
            return derive_alpha_c(ctx, args[0], others[0], sig)
        for sa, ta in zip(args, others):
            if not derive_alpha_c(ctx, sa, ta, sig):
                return False
        return True
    if kind is Suspension:
        if s.var is not t.var:
            return False
        if s.perm.swappings == t.perm.swappings:
            return True
        for a in difference_set(s.perm, t.perm):
            if FreshnessConstraint(a, s.var) not in ctx:
                return False
        return True
    if kind is Abstraction:
        if s.atom is t.atom:
            return derive_alpha_c(ctx, s.body, t.body, sig)
        swapped = permute_term(Permutation(((s.atom, t.atom),)), t.body)
        return derive_alpha_c(ctx, s.body, swapped, sig) and derive_freshness(
            ctx, s.atom, t.body
        )
    # Two distinct atoms: interned, so not equal.
    return False


def derive_alpha(ctx: FreshnessContext, s: Term, t: Term) -> bool:
    """Plain alpha-equivalence: commutativity switched off."""
    return derive_alpha_c(ctx, s, t, _NO_COMMUTATIVITY)


_NO_COMMUTATIVITY = Signature()


def alpha_key(term: Term, sig: Signature = _NO_COMMUTATIVITY, binders: tuple[Atom, ...] = ()) -> object:
    """A key shared by =ac terms over `sig` (plain alpha-equal terms by
    default): `ctx |- s =ac t` (`derive_alpha_c`) implies
    `alpha_key(s, sig) == alpha_key(t, sig)`, under any context.

    An atom bound by an enclosing abstraction becomes its de Bruijn index
    (its first occurrence in `binders`, innermost first), a free atom keeps
    its name, a suspension keeps only its variable, and an application keeps
    its symbol. A commutative application's argument keys are sorted by
    `repr`, which tells distinct keys apart and does not follow the hash
    seed. The implication holds by induction on the judgement. Atoms are
    equal only to themselves, suspensions only with the same variable,
    applications argument by argument, and a commutative one also with its
    arguments crossed, which sorting maps to the same key. For
    `[a]s =ac [b]t` with `a != b` the judgement needs `s =ac (a b).t`, so `s`
    under `a, binders` has the key of `(a b).t` under `a, binders`, and it
    needs `a#t`. That key is also the key of `t` under `b, binders`: an atom
    `x` of `t` becomes `(a b)x`, whose lookup meets the swapped inner
    binders first, then `a` where `t` has `b`, then `binders`. It finds the
    same index or name for every `x` except an `a` free in `t` outside a
    suspension, which `a#t` excludes; a suspension's key drops its
    permutation, and each commutative node sorts the same argument keys.

    On ground terms the key is exact: equal keys mean =ac. Sorting only
    rearranges arguments, so the key of `t` is the plain key of a
    rearrangement of `t`, and the plain key, a de Bruijn form, tells apart
    ground terms that are not alpha-equal.
    """
    kind = type(term)
    if kind is Atom:
        return binders.index(term) if term in binders else term
    if kind is Suspension:
        return term.var
    if kind is Abstraction:
        return (None, alpha_key(term.body, sig, (term.atom,) + binders))
    args = [alpha_key(arg, sig, binders) for arg in term.args]
    if sig.is_commutative(term.sym):
        args.sort(key=repr)
    return (term.sym, *args)


def freshness_nf(atom: Atom, term: Term) -> FreshnessContext | Sentinel:
    """Reduce atom # term to primitive constraints, without recursion.

    Returns INCONSISTENT when it reduces to atom # atom.
    """
    found: list[FreshnessConstraint] = []
    stack = [term]
    while stack:
        sub = stack.pop()
        kind = type(sub)
        if kind is App:
            stack.extend(sub.args)
        elif kind is Atom:
            if sub is atom:
                return INCONSISTENT
        elif kind is Abstraction:
            if sub.atom is not atom:
                stack.append(sub.body)
        else:
            found.append(FreshnessConstraint(sub.perm.inverse().act(atom), sub.var))
    return frozenset(found) if found else EMPTY_CONTEXT


def freshness_context_nf(
    ctx: FreshnessContext, theta: Substitution
) -> FreshnessContext | Sentinel:
    """Instantiate ctx by theta and reduce to primitive constraints.

    Returns INCONSISTENT when some constraint reduces to a#a.
    """
    out: set[FreshnessConstraint] = set()
    for c in ctx:
        reduced = freshness_nf(c.atom, theta.get(c.var))
        if reduced is INCONSISTENT:
            return INCONSISTENT
        out |= reduced
    return frozenset(out)


def satisfies_with(
    constrained: FreshnessContext, theta: Substitution, ctx: FreshnessContext
) -> bool:
    """Whether theta satisfies `constrained`, judged under ctx."""
    return all(derive_freshness(ctx, c.atom, theta.get(c.var)) for c in constrained)


def check_problem(ctx: FreshnessContext, problem: tuple[Goal, ...], sig: Signature) -> bool:
    """Conjunction of the freshness and equality judgements in the problem."""
    for goal in problem:
        if isinstance(goal, FreshnessGoal):
            if not derive_freshness(ctx, goal.atom, goal.term):
                return False
        else:
            if not derive_alpha_c(ctx, goal.lhs, goal.rhs, sig):
                return False
    return True
