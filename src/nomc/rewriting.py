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
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

from .alpha import (
    EMPTY_CONTEXT,
    FreshnessConstraint,
    FreshnessContext,
    INCONSISTENT,
    alpha_key,
    derive_alpha,
    derive_alpha_c,
    format_context,
    freshness_context_nf,
    freshness_nf,
    satisfies_with,
)
from .terms import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    NameSupply,
    Permutation,
    Position,
    Printer,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
    _Name,
    _apply,
    apply_subst,
    fresh_atom,
    frozen_methods,
    frozen_node,
    is_ground,
    permute_term,
    replace_at,
    subterm_at,
    subterms_with_positions,
    term_atoms,
    term_vars,
)
from .unify import DEFAULT_MAX_STATES, CSolution, SearchSpaceExceeded, match, solve


@frozen_methods
class RewriteRule:
    """A rule `context |- lhs -> rhs` over the ambient signature.

    Read-only. The four fields compare, hash and print as a frozen
    dataclass's would (`frozen_methods`). The instance's `__dict__` holds
    them, `_atoms` and, once computed, `renaming_bases`."""

    name: str
    context: FreshnessContext
    lhs: Term
    rhs: Term

    def __init__(self, name: str, context: FreshnessContext, lhs: Term, rhs: Term) -> None:
        if isinstance(lhs, Suspension):
            raise ValueError(f"rule {name}: left-hand side is a bare variable")
        loose = (term_vars(rhs) | {c.var for c in context}) - term_vars(lhs)
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise ValueError(f"rule {name}: variables not bound by the left-hand side: {names}")
        atoms = term_atoms(lhs) | term_atoms(rhs) | frozenset(c.atom for c in context)
        self.__dict__.update(name=name, context=context, lhs=lhs, rhs=rhs, _atoms=atoms)

    def variables(self) -> frozenset[Var]:
        """The rule's variables: those of its left-hand side, which bind the rest."""
        return term_vars(self.lhs)

    @functools.cached_property
    def renaming_bases(self) -> tuple[Var, ...]:
        """The rule's variables in the order fresh names are picked for them,
        by name; computed on first use."""
        return tuple(sorted(self.variables(), key=lambda v: v.name))

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def __str__(self) -> str:
        prefix = f"{format_context(self.context)} |- " if self.context else "|- "
        return f"{prefix}{self.lhs} -> {self.rhs}"


class RewriteSystem:
    """A sequence of rules plus the signature declaring commutative symbols.

    Read-only, so one system can be shared by every caller: everything is
    built in the constructor and attributes cannot be reassigned. Systems
    compare and hash by identity; a copy or pickle is another system, built
    afresh from the rules and the signature. The one thing that grows is
    the fit masks' transition memo, bounded by the rules; an entry depends
    on nothing else.

    The constructor also builds, once:
    - the skeleton tables the fit masks are read from, and `_lhs`, the redex
      scan's only rule index (`_number_skeletons`);
    - `_walkable`, the names of the rules whose answers on a ground or
      linear subject `_linear_walk` may find (the predicate `_walkable`);
    - `_fresh_rules` (rule name -> the rule renamed apart from no variable,
      `P` to `P0`), read-only: the copies `_candidate_steps` uses when there
      is no variable to avoid, as for every source the class oracle scans;
    - the plain system `without_commutativity()` returns (`self` when no
      symbol is commutative);
    - whether some rule tells binders named by atoms it does not mention
      apart from its own (`_ground_oracle_sources`).
    """

    rules: tuple[RewriteRule, ...]
    signature: Signature

    __match_args__ = ("rules", "signature")
    __setattr__ = _Name.__setattr__
    __delattr__ = _Name.__delattr__

    def __init__(self, rules: Iterable[RewriteRule], signature: Signature) -> None:
        self.__dict__.update(rules=tuple(rules), signature=signature)
        atoms: frozenset[Atom] = frozenset()
        seen: set[str] = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name}")
            seen.add(rule.name)
            atoms |= rule.atoms()
        _number_skeletons(self)
        fresh = {rule.name: renamed_rule(rule, NameSupply(()).draw(rule.renaming_bases)) for rule in self.rules}
        self.__dict__.update(
            _walkable=frozenset(rule.name for rule in self.rules if _walkable(rule, signature)),
            _atoms=atoms,
            _unnamed_binders=any(map(_tells_unnamed_binders_apart, self.rules)),
            _fresh_rules=MappingProxyType(fresh),
            _plain=RewriteSystem(self.rules, signature.without_commutativity()) if signature.commutative_symbols else self,
        )

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

    def without_commutativity(self) -> "RewriteSystem":
        """The same rules with no symbol commutative, built with the system."""
        return self._plain

    def __repr__(self) -> str:
        return f"RewriteSystem({len(self.rules)} rules, sig={self.signature!r})"

    def __reduce__(self):
        # The tables are read-only mappings, which neither copy nor pickle.
        return type(self), (self.rules, self.signature)


@frozen_node
class RewriteStep:
    """One rewrite: rule applied at a position with a matching substitution.

    `rule_instance` is the instance of the rule that was applied: the copy
    renamed apart and, where a clash shift was needed, with its atoms
    shifted (`redexes`), as for a narrowing edge. Replaying the step
    re-derives the premises from it as it is.
    """

    rule: str
    position: Position
    subst: Substitution
    result: Term
    rule_instance: RewriteRule

    def __str__(self) -> str:
        return self.show(Printer())

    def show(self, printer: Printer) -> str:
        """The step's line of a `rewrite` listing, printed by `printer`."""
        return f"{self.rule} @ {self.position}: {printer.term(self.result)}"


class StepLimitExceeded(Exception):
    """Normalisation ran past its step bound (possible non-termination).

    `sources[i]` is the term `trace[i]` rewrote: the previous result (the
    input term for the first step) or, for the class oracle, the member of
    its class that the step matched.
    """

    def __init__(self, term: Term, trace: tuple[RewriteStep, ...], sources: tuple[Term, ...]):
        super().__init__(f"step limit exceeded at {term}")
        self.term = term
        self.trace = trace
        self.sources = sources


def _schema_leaves(term: Term, bound: frozenset[Atom] = frozenset()) -> Iterator[tuple[Term, frozenset[Atom]]]:
    """Each atom and suspension of a term schema, with the binders above it."""
    if isinstance(term, (Atom, Suspension)):
        yield term, bound
    elif isinstance(term, Abstraction):
        yield from _schema_leaves(term.body, bound | {term.atom})
    else:
        for arg in term.args:
            yield from _schema_leaves(arg, bound)


def _tells_unnamed_binders_apart(rule: RewriteRule) -> bool:
    """Can the rule act differently on a binder named by an atom it does not
    mention than on every binder named by its own atoms? True when either:

    - an instance of its right-hand side can bind or free an atom that the
      left-hand side's instance has free: the right-hand side has a free
      atom the left-hand side lacks, or an occurrence of a variable whose
      permutation or enclosing binders differ from those of every
      left-hand-side occurrence by more than atoms the context makes fresh
      for it (`g(X) -> f(X, a)`, `g([a]X) -> k(X)`, `f(X) -> g([b]X)`);
    - its left-hand side holds an atom literally (free, or in a
      suspension's permutation) and it mentions another atom on the
      matching side: the clash shift moves all of a rule's clashing atoms
      at once, so it cannot keep the literal one while moving the other off
      a binder (`a#X |- h(b, X) -> k(X)`).
    """
    lhs, rhs = list(_schema_leaves(rule.lhs)), list(_schema_leaves(rule.rhs))
    lhs_free = {t for t, bound in lhs if isinstance(t, Atom) and t not in bound}
    if any(isinstance(t, Atom) and t not in bound and t not in lhs_free for t, bound in rhs):
        return True
    for t, bound in rhs:
        if isinstance(t, Suspension):
            fresh = {t.perm.act(c.atom) for c in rule.context if c.var == t.var}
            if not any(
                isinstance(u, Suspension) and u.var == t.var and u.perm == t.perm and bound ^ lhs_bound <= fresh
                for u, lhs_bound in lhs
            ):
                return True
    literal = lhs_free | {a for t, _ in lhs if isinstance(t, Suspension) for pair in t.perm.swappings for a in pair}
    return bool(literal) and not term_atoms(rule.lhs) | {c.atom for c in rule.context} <= literal


def renamed_rule(rule: RewriteRule, renaming: dict[Var, Var]) -> RewriteRule:
    """Copy of the rule with each variable replaced by its image under
    `renaming`, which must map every one of them."""
    mapping = {v: Suspension(IDENTITY, w) for v, w in renaming.items()}
    context = frozenset([FreshnessConstraint(c.atom, renaming[c.var]) for c in rule.context])
    return _rule_copy(rule, context, _apply(mapping, rule.lhs), _apply(mapping, rule.rhs), rule.atoms())


def _rule_copy(
    rule: RewriteRule, context: FreshnessContext, lhs: Term, rhs: Term, atoms: frozenset[Atom]
) -> RewriteRule:
    """A copy of `rule` under its name with the given parts and atoms, built
    without `RewriteRule.__init__`: renaming a valid rule's variables
    or atoms apart keeps it valid, so its checks need not run again."""
    copy = object.__new__(RewriteRule)
    copy.__dict__.update(name=rule.name, context=context, lhs=lhs, rhs=rhs, _atoms=atoms)
    return copy


def rename_atoms(term: Term, perm: Permutation) -> Term:
    """Rename atom occurrences throughout a term schema.

    Unlike the permutation action, variables stay bare: the permutation is
    applied inside suspension prefixes but never composed onto them. This is
    the right notion for renaming a rule's atoms. A suspension with the
    identity permutation comes back as the same object.
    """
    kind = type(term)
    if kind is Atom:
        return perm.act(term)
    if kind is Suspension:
        if not term.perm.swappings:
            return term
        act = perm.act
        return Suspension(Permutation(tuple([(act(l), act(r)) for l, r in term.perm.swappings])), term.var)
    if kind is Abstraction:
        return Abstraction(perm.act(term.atom), rename_atoms(term.body, perm))
    return App(term.sym, tuple([rename_atoms(a, perm) for a in term.args]))


def permute_rule(rule: RewriteRule, perm: Permutation) -> RewriteRule:
    """Rename a rule's atoms; its schematic variables are untouched."""
    act = perm.act
    context = frozenset([FreshnessConstraint(act(c.atom), c.var) for c in rule.context])
    atoms = frozenset([act(a) for a in rule.atoms()])
    return _rule_copy(rule, context, rename_atoms(rule.lhs, perm), rename_atoms(rule.rhs, perm), atoms)


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
    names = NameSupply(avoid | subject_atoms | rule.atoms())
    return Permutation(tuple((atom, Atom(names.name("n", "n"))) for atom in clash))


_END = object()  # `_Replay`'s end marker, distinct from any item


class _Replay:
    """A lazily generated sequence that several loops can read from the
    start; each item is generated once, when the first loop reaches it."""

    def __init__(self, items: Iterator[Term]):
        self._source = items
        self._items: list[Term] = []

    def __iter__(self) -> Iterator[Term]:
        index = 0
        while True:
            if index == len(self._items):
                item = next(self._source, _END)
                if item is _END:
                    return
                self._items.append(item)
            yield self._items[index]
            index += 1


def _product(parts: Sequence[Sequence[Term] | _Replay]) -> Iterator[tuple[Term, ...]]:
    """`itertools.product` over lazily generated sequences, in its order."""
    if len(parts) == 1:
        for head in parts[0]:
            yield (head,)
        return
    for head in parts[0]:
        for rest in _product(parts[1:]):
            yield (head,) + rest


def _commutative_variants(term: Term, sig: Signature) -> Iterator[Term]:
    if isinstance(term, (Atom, Suspension)):
        yield term
    elif isinstance(term, Abstraction):
        for body in _commutative_variants(term.body, sig):
            yield Abstraction(term.atom, body)
    elif term.args:
        parts = [(a,) if isinstance(a, (Atom, Suspension)) else _Replay(_commutative_variants(a, sig)) for a in term.args]
        if not sig.is_commutative(term.sym):
            for combo in _product(parts):  # distinct combinations, distinct terms
                yield App(term.sym, combo)
            return
        seen: set[Term] = set()
        for left, right in _product(parts):
            for variant in (App(term.sym, (left, right)), App(term.sym, (right, left))):
                if variant not in seen:
                    seen.add(variant)
                    yield variant
    else:
        yield term


def commutative_variants(term: Term, sig: Signature) -> tuple[Term, ...]:
    """All rearrangements of the term's commutative applications, term first."""
    return tuple(_commutative_variants(term, sig))


def c_class_enumerate(term: Term, sig: Signature) -> tuple[Term, ...]:
    """The commutative closure of a ground term (up to 2^n members for n
    commutative nodes; symmetric subterms collapse)."""
    if not is_ground(term):
        raise ValueError("class enumeration is only defined on ground terms")
    return commutative_variants(term, sig)


def _alpha_variants(term: Term, atoms: Sequence[Atom]) -> Iterator[Term]:
    if isinstance(term, Atom):
        yield term
    elif isinstance(term, Suspension):
        raise ValueError("alpha variants are only defined on ground terms")
    elif isinstance(term, Abstraction):
        seen: set[Term] = set()
        for body in _alpha_variants(term.body, atoms):
            variants = (Abstraction(term.atom, body),) + tuple(
                Abstraction(atom, permute_term(Permutation(((term.atom, atom),)), body))
                for atom in atoms
                if atom != term.atom and freshness_nf(atom, body) is not INCONSISTENT
            )
            for variant in variants:
                if variant not in seen:
                    seen.add(variant)
                    yield variant
    elif term.args:
        for combo in _product([(a,) if isinstance(a, Atom) else _Replay(_alpha_variants(a, atoms)) for a in term.args]):
            yield App(term.sym, combo)
    else:
        yield term


def alpha_variants(term: Term, pool: frozenset[Atom] | set[Atom]) -> tuple[Term, ...]:
    """All alpha-renamings of a ground term with binders drawn from `pool`."""
    return tuple(_alpha_variants(term, sorted(pool, key=lambda a: a.name)))


# A subterm's fit mask holds ANY, SITE when some rule's left-hand side fits
# at the subterm or below it, and one bit from 4 up for each skeleton it fits.
ANY = 1  # what a rule variable asks of its subterm: every mask has it
SITE = 2


def _number_skeletons(system: RewriteSystem) -> None:
    """Build the tables `_fit_masks` and `_fitting_sites` read, on a system
    under construction.

    Each distinct skeleton among the non-variable subterms of the rules'
    left-hand sides gets a bit. A skeleton is a head (an application's
    symbol, `Abstraction` or `Atom`) and the bits of its children's
    skeletons, ANY for a rule variable: atom and binder names are no part
    of it. The tables:
    - `_skeletons`: (head, children's bits) -> bit;
    - `_transitions`: for each head with a skeleton, a memo from its
      children's masks to a node's mask (`_transition`). Masks are sets of
      the system's bits, so the system, not the input, bounds each memo;
    - `_atom_mask`, the mask of every atom, and `_variable_mask`, that of a
      subject suspension when unifying: it fits every skeleton;
    - `_lhs`: `(bit of the left-hand side's skeleton, rule)` for each rule,
      in declaration order, and `_lhs_bits`, the union of those bits.
    """
    skeletons: dict[tuple[object, tuple[int, ...]], int] = {}
    lhs: list[tuple[int, RewriteRule]] = []
    for rule in system.rules:
        bits: dict[int, int] = {}  # id(node) -> the bit of its skeleton
        for _, sub in reversed(list(subterms_with_positions(rule.lhs))):
            kind = type(sub)
            if kind is Suspension:
                bits[id(sub)] = ANY
                continue
            children = sub.args if kind is App else (sub.body,) if kind is Abstraction else ()
            key = (sub.sym if kind is App else kind, tuple(bits[id(child)] for child in children))
            bits[id(sub)] = skeletons.setdefault(key, 4 << len(skeletons))
        lhs.append((bits[id(rule.lhs)], rule))
    # Bits are distinct powers of two, so a sum of distinct ones is their union.
    system.__dict__.update(
        _skeletons=MappingProxyType(skeletons),
        _transitions=MappingProxyType({head: {} for head, _ in skeletons if head is not Atom}),
        _variable_mask=sum(skeletons.values(), ANY),
        _lhs_bits=sum({bit for bit, _ in lhs}),
        _lhs=tuple(lhs),
    )
    system.__dict__["_atom_mask"] = _transition(system, Atom, ())


def _transition(system: RewriteSystem, head: object, kids: Sequence[int]) -> int:
    """The mask of a node with this head whose children have the masks
    `kids`: the bit of each skeleton with this head whose children's bits
    the kids hold, in either order under a commutative symbol, and SITE
    when one of those is a left-hand side or a kid has SITE."""
    mask = ANY
    swap = len(kids) == 2 and system.signature.is_commutative(head)
    for (other, children), bit in system._skeletons.items():
        if other != head or len(children) != len(kids):
            continue
        if all(k & c for k, c in zip(kids, children)) or swap and kids[0] & children[1] and kids[1] & children[0]:
            mask |= bit
    if mask & system._lhs_bits or any(k & SITE for k in kids):
        mask |= SITE
    return mask


def _fit_masks(term: Term, system: RewriteSystem, unify: bool) -> tuple[list[Term], list[int], list[int]]:
    """The fit mask of every subterm, in one pass from the leaves up.

    A subterm has a skeleton's bit exactly when it can be an instance of it
    as far as symbols, binders and atoms go: rule variables are wildcards,
    atom and binder names are ignored, and a commutative symbol's arguments
    fit in either order. A subject suspension fits every skeleton when
    unifying and none when matching protects it; it is never a site.
    Returns the subterms breadth-first, root first, the index of each one's
    first child (its children are consecutive), and their masks. Both
    loops are flat, so no nesting depth is too deep for them.
    """
    nodes = [term]
    firsts: list[int] = []
    for sub in nodes:  # grows as it is read
        firsts.append(len(nodes))
        kind = type(sub)
        if kind is App:
            nodes.extend(sub.args)
        elif kind is Abstraction:
            nodes.append(sub.body)
    transitions = system._transitions
    variable = system._variable_mask if unify else ANY
    masks = [0] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        sub = nodes[i]
        kind = type(sub)
        if kind is App:
            head = sub.sym
            n = len(sub.args)
        elif kind is Abstraction:
            head = Abstraction
            n = 1
        else:
            masks[i] = system._atom_mask if kind is Atom else variable
            continue
        first = firsts[i]
        table = transitions.get(head)
        if table is None:  # no skeleton has this head
            mask = ANY
            for kid in masks[first : first + n]:
                mask |= kid & SITE
        else:
            # the children's masks, a lone child's as it is
            key = masks[first] if n == 1 else tuple(masks[first : first + n])
            mask = table.get(key)
            if mask is None:
                mask = table[key] = _transition(system, head, masks[first : first + n])
        masks[i] = mask
    return nodes, firsts, masks


def premises_hold(
    delta: FreshnessContext, sub: Term, rule: RewriteRule, theta: Substitution, sig: Signature
) -> bool:
    """The premises of rewriting `sub` by `rule` with `theta` under delta:
    theta satisfies the rule's freshness context, and sub =ac theta(lhs)."""
    return satisfies_with(rule.context, theta, delta) and derive_alpha_c(
        delta, sub, apply_subst(theta, rule.lhs), sig
    )


def _walkable(rule: RewriteRule, sig: Signature) -> bool:
    """Whether `_linear_walk` may find a rule's answers: its left-hand side
    is linear and has at most one commutative node under `sig`."""
    nodes = [sub for _, sub in subterms_with_positions(rule.lhs)]
    variables = [sub.var for sub in nodes if type(sub) is Suspension]
    commutative = sum(type(sub) is App and sig.is_commutative(sub.sym) for sub in nodes)
    return commutative <= 1 and len(set(variables)) == len(variables)


def _linear_walk(
    delta: FreshnessContext, subject: Term, rule: RewriteRule, sig: Signature
) -> tuple[CSolution, ...]:
    """What `solve(delta, subject, rule.context, rule.lhs)` gives, found by
    one walk over a rule's linear left-hand side with at most one
    commutative node against a linear subject whose variables the rule,
    renamed apart, does not share. It takes no solver state, so
    `max_states` does not bound it.

    A suspension pi.X of the left-hand side binds X to pi^-1 applied to its
    subterm; otherwise a subject suspension pi.X binds X to pi^-1 applied
    to the rule's subterm, as the solver binds the rule's side first. An
    atom must be the same atom, and an application needs the same symbol
    and arity. An abstraction with another binder reduces a # body to
    primitive constraints, failing the branch on a # a, and goes on with
    the body swapped. At the commutative node the straight pairing is
    followed first and the crossed one waits, as the solver's split does.

    Each equation the solver meets pairs one position of the rule with one
    of the subject, so a branch's final substitution theta is the union of
    the walk's bindings, and its context is the normal form under theta of
    every freshness requirement: the rule's context, delta and the
    constraints the walk's abstractions left, whatever order they fired
    in. A branch whose requirements reduce to a # a fails in both. No
    answer has a residual, as no equation has a variable on both sides.
    The answers come in the order in which the solver finds its leaves,
    each once.

    On a ground subject each answer's context is delta itself, so matching
    needs only theta: theta binds the rule's variables to ground terms, the
    rule's constraints and the abstractions' reduce to nothing or to a # a,
    and delta's are on variables that every rule copy is renamed apart from.
    """
    found: list[CSolution] = []
    branches = [([(rule.lhs, subject)], {}, EMPTY_CONTEXT)]
    while branches:
        pairs, binding, fresh = branches.pop()
        while pairs:
            pattern, sub = pairs.pop()
            kind = type(pattern)
            if kind is Suspension:
                binding[pattern.var] = permute_term(pattern.perm.inverse(), sub)
            elif kind is not type(sub):
                if type(sub) is not Suspension:
                    break
                binding[sub.var] = permute_term(sub.perm.inverse(), pattern)
            elif kind is App:
                if pattern.sym != sub.sym or len(pattern.args) != len(sub.args):
                    break
                if sig.is_commutative(pattern.sym):
                    (p0, p1), (s0, s1) = pattern.args, sub.args
                    branches.append((pairs + [(p0, s1), (p1, s0)], dict(binding), fresh))
                pairs.extend(zip(pattern.args, sub.args))
            elif kind is Abstraction:
                if pattern.atom is sub.atom:
                    pairs.append((pattern.body, sub.body))
                    continue
                reduced = freshness_nf(pattern.atom, sub.body)
                if reduced is INCONSISTENT:
                    break
                if reduced:
                    fresh = fresh | reduced
                pairs.append((pattern.body, permute_term(Permutation(((pattern.atom, sub.atom),)), sub.body)))
            elif pattern is not sub:
                break
        else:
            theta = Substitution(binding)
            context = freshness_context_nf(rule.context.union(delta, fresh), theta)
            if context is not INCONSISTENT:
                answer = CSolution(context, theta)
                if answer not in found:
                    found.append(answer)
    return tuple(found)


def _verified_matchers(
    delta: FreshnessContext, sub: Term, rule: RewriteRule, sig: Signature, max_states: int
) -> tuple[CSolution, ...]:
    """Match answers whose instantiated premises hold under delta
    (`premises_hold`), in the order `match` gives them."""
    solutions = match(rule.context, rule.lhs, delta, sub, sig=sig, max_states=max_states)
    return tuple(sol for sol in solutions if premises_hold(delta, sub, rule, sol.subst, sig))


def _fitting_sites(
    nodes: list[Term], firsts: list[int], masks: list[int], system: RewriteSystem
) -> Iterator[tuple[tuple[int, ...], Term, RewriteRule]]:
    """Lazily, `(path, subterm, rule)` for each rule whose left-hand side's
    skeleton fits a subterm, read off the fit-mask pass over the term
    (`_fit_masks`). Subterms come leftmost-outermost, and a subterm's rules
    in declaration order: each rule of `_lhs` whose bit its mask holds. A
    skeleton's bit is set only under its own head, so no rule index by head
    is needed. The walk skips every subtree without SITE, so a root without
    it yields nothing; `redexes` checks the root and does not call it then."""
    lhs = system._lhs
    # (path, index) pairs, the next one on top.
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        path, index = stack.pop()
        mask = masks[index]
        if not mask & SITE:
            continue
        sub = nodes[index]
        kind = type(sub)
        if kind is App:
            first = firsts[index]
            stack.extend([(path + (i,), first + i) for i in range(len(sub.args) - 1, -1, -1)])
        elif kind is Abstraction:
            stack.append((path + (0,), firsts[index]))
        for bit, rule in lhs:
            if mask & bit:
                yield path, sub, rule


def redexes(
    context: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    prepare: Callable[[RewriteRule, frozenset[Var]], RewriteRule],
    max_states: int,
    unify: bool,
) -> Iterator[tuple[Position, RewriteRule, tuple[CSolution, ...]]]:
    """Lazily solve (`unify`) or match each rule at each site where it fits
    (`_fitting_sites`, in its order).

    `prepare(rule, variables)` gives the rule renamed apart, and is called
    only there; `variables` are the term's, read off the fit-mask pass.
    A prepared rule's answers come from `_linear_walk` where the rule is
    walkable and the term is ground, or linear when unifying. Elsewhere
    they come from `solve` when unifying and from `_verified_matchers`
    when matching, and only there can `max_states` be hit. The two give
    the same answers in the same order. When the prepared rule fails and
    its atoms clash with the subterm's, it is retried once with the
    clashing atoms moved to fresh ones. Each success yields `(position,
    rule, answers)`, where `rule` is the copy that gave the answers; a
    Position is built only for a site that yields. A term whose root has
    no SITE has no site, so the scan ends after the fit-mask pass, before
    its variables are read.
    """
    sig = system.signature
    nodes, firsts, masks = _fit_masks(term, system, unify)
    if not masks[0] & SITE:
        return
    occurrences = [sub.var for sub in nodes if type(sub) is Suspension]
    variables = frozenset(occurrences)
    walk_term = not occurrences or unify and len(variables) == len(occurrences)
    walkable = system._walkable

    def attempt(sub: Term, rule: RewriteRule) -> tuple[CSolution, ...]:
        if walk_term and rule.name in walkable:
            return _linear_walk(context, sub, rule, sig)
        if unify:
            return solve(context, sub, rule.context, rule.lhs, sig=sig, max_states=max_states)
        return _verified_matchers(context, sub, rule, sig, max_states)

    ambient_atoms = None  # the shift's avoid set, built when a shift is first due
    for path, sub, rule in _fitting_sites(nodes, firsts, masks, system):
        prepared = prepare(rule, variables)
        answers = attempt(sub, prepared)
        if answers:
            yield Position(path), prepared, answers
            continue
        sub_atoms = term_atoms(sub)
        if prepared.atoms().isdisjoint(sub_atoms):
            continue
        if ambient_atoms is None:
            ambient_atoms = term_atoms(term) | frozenset(c.atom for c in context)
        shifted = permute_rule(prepared, clash_permutation(prepared, sub_atoms, ambient_atoms))
        answers = attempt(sub, shifted)
        if answers:
            yield Position(path), shifted, answers


def _candidate_steps(
    delta: FreshnessContext, term: Term, system: RewriteSystem, max_states: int
) -> Iterator[RewriteStep]:
    """Matching steps in redex order with premises verified; each rule is
    renamed apart from the term's variables, as `redexes` reads them, and
    the context's. With none to avoid, the copy comes from the system's
    `_fresh_rules`, whose names a `NameSupply` seeded with nothing draws;
    otherwise it is built at each site where the rule's skeleton fits, with
    the names a `NameSupply` seeded with those variables draws. Each step
    records the copy `redexes` applied, clash shift included."""

    def prepare(rule: RewriteRule, variables: frozenset[Var]) -> RewriteRule:
        avoid = variables | {c.var for c in delta}
        if not avoid:
            return system._fresh_rules[rule.name]
        return renamed_rule(rule, NameSupply(avoid).draw(rule.renaming_bases))

    for pos, rule, answers in redexes(delta, term, system, prepare, max_states, unify=False):
        for answer in answers:
            theta = answer.subst
            result = replace_at(term, pos.path, apply_subst(theta, rule.rhs))
            yield RewriteStep(rule.name, pos, theta, result, rule)


def _dedup_steps(delta: FreshnessContext, steps: Iterable[RewriteStep]) -> tuple[RewriteStep, ...]:
    """The steps whose results are not alpha-equal to an earlier kept
    result, in order. Alpha-equal terms share their `alpha_key`, so a step is
    compared only with the kept results in its key's bucket."""
    kept: list[RewriteStep] = []
    buckets: dict[object, list[Term]] = {}
    for step in steps:
        bucket = buckets.setdefault(alpha_key(step.result), [])
        if not any(derive_alpha(delta, step.result, other) for other in bucket):
            bucket.append(step.result)
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
            expanded.append(RewriteStep(step.rule, step.position, step.subst, variant, step.rule_instance))
    return _dedup_steps(delta, expanded)


def rewrite_at(
    delta: FreshnessContext,
    source: Term,
    path: tuple[int, ...],
    rule: RewriteRule,
    theta: Substitution,
    sig: Signature,
) -> Term | None:
    """`source` rewritten at `path` by `rule` under `theta`: the subterm
    there replaced by theta(rhs). None when `source` has no such path or
    the premises (`premises_hold`) fail under delta."""
    try:
        sub = subterm_at(source, path)
    except ValueError:
        return None
    if not premises_hold(delta, sub, rule, theta, sig):
        return None
    return replace_at(source, path, apply_subst(theta, rule.rhs))


def verify_rewrite_step(
    delta: FreshnessContext,
    source: Term,
    step: RewriteStep,
    sig: Signature,
) -> bool:
    """Re-derive the premises of a recorded step against its source term,
    from the rule instance the step records."""
    rewritten = rewrite_at(delta, source, step.position.path, step.rule_instance, step.subst, sig)
    return rewritten is not None and derive_alpha_c(delta, rewritten, step.result, sig)


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
    return _normal_form(
        lambda t: ((t, step) for step in _candidate_steps(delta, t, system, max_states)), term, max_steps
    )


def _normal_form(
    steps: Callable[[Term], Iterator[tuple[Term, RewriteStep]]], term: Term, max_steps: int
) -> tuple[Term, tuple[RewriteStep, ...]]:
    """Follow the first of `steps(current)`, pairs of a source and a step
    that rewrites it, until there is none. Raises StepLimitExceeded, with the
    steps taken and their sources, when one is due after `max_steps`."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    current = term
    trace: list[RewriteStep] = []
    sources: list[Term] = []
    while True:
        source, chosen = next(steps(current), (None, None))
        if chosen is None:
            return current, tuple(trace)
        if len(trace) >= max_steps:
            raise StepLimitExceeded(current, tuple(trace), tuple(sources))
        sources.append(source)
        trace.append(chosen)
        current = chosen.result


DEFAULT_MAX_SOURCES = 10_000


def _ground_oracle_sources(
    term: Term, system: RewriteSystem, max_sources: int = DEFAULT_MAX_SOURCES
) -> Iterator[Term]:
    """The members of a ground term's commutative-and-alpha class that the
    class oracle rewrites, lazily: each commutative rearrangement, with its
    binders renamed to the atoms the rules mention. Raises
    SearchSpaceExceeded when there are more than `max_sources` to scan.
    `_class_steps` calls it only for a class with a fitting site
    (`_class_fits`), so the cap bounds only the classes that need a scan.

    The term itself is the first member, and it is yielded before any other
    is built: a reader that stops at the term's own step never starts the
    rearrangements. This changes neither the sources, nor their order, nor
    where the cap fires. The first item of `_commutative_variants(term)` is
    `term`, and the first item of `_alpha_variants(member, atoms)` is
    `member`, by induction on the term: an abstraction's first variant keeps
    its binder and its body's first variant, and `_product`'s first
    combination takes each part's first item. So the generators' first item
    is the term, already in `seen`; it is skipped without being counted, and
    every later member comes in the order it came before. With
    `max_sources == 0` the cap fires before the term is yielded, as it did.

    Other names are not needed. A binder named by an atom that no rule
    mentions cannot give a step that the names the pool keeps do not give
    too, up to =ac: rules act equivariantly under permutations that fix
    their atoms (Fernandez and Gabbay, "Nominal rewriting", Inf. Comput.
    2007), and where a binder carries one of a rule's atoms, the clash shift
    in `redexes` moves the rule's atoms off it. Two kinds of rule break this
    (`_tells_unnamed_binders_apart`): one whose right-hand side can make an
    atom free or bind one, so that the binder's name shows in the result,
    and one that must keep an atom literally while the clash shift moves
    them all. For a system with such a rule the binders are also renamed to
    one fresh atom, which gives those results, and to the term's own atoms,
    which keep them in the order the full pool found them.
    """
    def exceeded(scanned: int) -> SearchSpaceExceeded:
        return SearchSpaceExceeded(f"class oracle exceeded max_sources={max_sources}: scanned {scanned} sources")

    if max_sources == 0:
        raise exceeded(0)
    seen: set[Term] = {term}
    yield term
    pool = system.atoms()
    if system._unnamed_binders:
        pool = pool | term_atoms(term)
        pool = pool | {fresh_atom(pool)}
    atoms = sorted(pool, key=lambda a: a.name)
    for member in _commutative_variants(term, system.signature):
        for variant in _alpha_variants(member, atoms):
            scanned = len(seen)
            seen.add(variant)  # one hash of the variant, not a probe and an add
            if len(seen) > scanned:
                if scanned == max_sources:
                    raise exceeded(scanned)
                yield variant


def _check_max_sources(max_sources: int) -> None:
    # The cap fires when the count reaches it, so a negative one would never.
    if max_sources < 0:
        raise ValueError(f"max_sources must be 0 or more, got {max_sources}")


def _class_fits(term: Term, system: RewriteSystem) -> bool:
    """Does some rule's skeleton fit some subterm of the ground term modulo
    commutativity: does its root have SITE (`_fit_masks`)? Only then can a
    member of its commutative-and-alpha class have a plain step: every
    subterm of a member is a rearranged, alpha-renamed copy of one of the
    term's, and skeletons ignore atom and binder names and fit a
    commutative node's arguments in either order. So an atom leaf fits a
    rule whose left-hand side is any atom: renaming a binder can give a
    bound leaf the atom a rule rewrites."""
    return bool(_fit_masks(term, system, False)[2][0] & SITE)


def _class_steps(
    term: Term, system: RewriteSystem, max_states: int, max_sources: int = DEFAULT_MAX_SOURCES
) -> Iterator[tuple[Term, RewriteStep]]:
    """Plain matching steps from each member of the ground term's
    commutative-and-alpha class in turn, generated lazily, each paired with
    the member it rewrites; its position refers to that member, not to `term`.
    The term is the first member, so its own steps come first, and no other
    member is built unless the reader asks past them. A class with no
    fitting site (`_class_fits`) has none, and no member is generated."""
    if not _class_fits(term, system):
        return
    plain = system.without_commutativity()
    for source in _ground_oracle_sources(term, system, max_sources):
        for step in _candidate_steps(EMPTY_CONTEXT, source, plain, max_states):
            yield source, step


def r_over_e_one_step(
    term: Term,
    system: RewriteSystem,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_sources: int = DEFAULT_MAX_SOURCES,
) -> tuple[Term, ...]:
    """Ground brute-force oracle: plain rewrites anywhere in the term's
    commutative-and-alpha class, one per =ac class in order of discovery.
    The results are ground, so their `alpha_key` over the signature tells
    the =ac classes apart.

    A class with no fitting site (`_class_fits`) is answered, with (),
    without a scan. Otherwise at most `max_sources` class members (default
    10,000) are scanned; past that, SearchSpaceExceeded names the bound.
    A negative `max_sources` is a ValueError.
    """
    if not is_ground(term):
        raise ValueError("the class-rewriting oracle is only defined on ground terms")
    _check_max_sources(max_sources)
    results: dict[object, Term] = {}
    for _, step in _class_steps(term, system, max_states, max_sources):
        results.setdefault(alpha_key(step.result, system.signature), step.result)
    return tuple(results.values())


def normal_form_equal_check(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_steps: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_sources: int = DEFAULT_MAX_SOURCES,
) -> bool:
    """Compare the matching-based normal form with a class-rewriting normal
    form of a ground term. They agree modulo =ac where the term has a unique
    normal form, which coherence does not give: prenex is not confluent, and
    the two strategies pull the quantifiers of `and(forall([a]a),
    exists([a]a))` out in different orders, so the answer there is False.

    Each class scan is bounded by `max_sources` as in `r_over_e_one_step`.

    A term with no fitting site (`_class_fits`), such as a normal form, is
    answered True after one fit-mask pass, and no bound can fire. The answer
    is exact: both strategies begin with that same pass over the term, and
    a root without SITE gives `normalize` no redex and `_class_steps` no
    member, so both normal forms are the term itself, and `derive_alpha_c`
    holds of an object and itself.
    """
    if not is_ground(term):
        raise ValueError("normal form comparison is only defined on ground terms")
    _check_max_sources(max_sources)
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if not _class_fits(term, system):
        return True
    nf_matching, _ = normalize(delta, term, system, max_steps, max_states=max_states)
    nf_class, _ = _normal_form(lambda t: _class_steps(t, system, max_states, max_sources), term, max_steps)
    return derive_alpha_c(delta, nf_matching, nf_class, system.signature)


WITNESSED = "WITNESSED"
NOT_WITNESSED = "NOT-WITNESSED-WITHIN-BOUND"
REJECTED = "REJECTED"


@frozen_node
class CoherenceVerdict:
    """What `coherence_check` found for the sample pair at `index`: its
    `status` (WITNESSED, NOT_WITNESSED or REJECTED) and why."""

    index: int
    status: str
    detail: str = ""


def _reachable(
    delta: FreshnessContext,
    term: Term,
    system: RewriteSystem,
    max_steps: int,
    max_states: int,
) -> Iterator[Term]:
    """Every term reachable in at most max_steps rewrite steps, the term
    first, then each in breadth-first order of discovery. Each term's steps
    are enumerated only once the reader asks past what is already found."""
    seen = {term}
    yield term
    frontier = [term]
    for _ in range(max_steps):
        nxt: list[Term] = []
        for t in frontier:
            for step in primary_rewrite_steps(delta, t, system, max_states=max_states):
                if step.result not in seen:
                    seen.add(step.result)
                    nxt.append(step.result)
                    yield step.result
        if not nxt:
            break
        frontier = nxt


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

    Both terms' one-step reducts are enumerated in full. A reduct of `t1`
    is first compared with each reduct of `t2`; only if none is =ac to it
    are their reach sets walked, pair by pair, each generated only as far
    as the walk reads and memoised per sample. So `max_states` can be hit
    only in a reach set that the verdict reads: where the walk closes
    before it, the answer is WITNESSED, not SearchSpaceExceeded.
    """
    sig = system.signature
    verdicts: list[CoherenceVerdict] = []
    for index, (delta, t1, t2) in enumerate(samples):
        if not derive_alpha_c(delta, t1, t2, sig):
            verdicts.append(CoherenceVerdict(index, REJECTED, "sample terms are not =ac-related"))
            continue
        verdict = CoherenceVerdict(index, WITNESSED)
        lefts = primary_rewrite_steps(delta, t1, system, max_states=max_states)
        if not lefts:
            verdicts.append(verdict)
            continue
        # t2's steps and the reach memo are due only once t1 has a step.
        rights = lefts if t2 == t1 else primary_rewrite_steps(delta, t2, system, max_states=max_states)
        reach = functools.cache(lambda t: _Replay(_reachable(delta, t, system, max_steps, max_states)))
        for step in lefts:
            closed = any(derive_alpha_c(delta, step.result, right.result, sig) for right in rights) or any(
                derive_alpha_c(delta, u, v, sig)
                for right in rights
                for u in reach(step.result)
                for v in reach(right.result)
            )
            if not closed:
                verdict = CoherenceVerdict(index, NOT_WITNESSED, f"no closing reduct for {step.result}")
                break
        verdicts.append(verdict)
    return tuple(verdicts)
