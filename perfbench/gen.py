"""Seeded input generators and reference checks for the benchmark.

Everything here builds `nomc` terms from constructors only. No judgement,
unification or rewriting function of `nomc` is called, so a generated input
and its expected answer never depend on the code under measurement.

`prenex_formula` and `ac_variant` consume the random stream exactly as the
test suite's criterion-9 generators do, so the oracle workload can replay
criterion 9's formulas for a given seed.
"""

from __future__ import annotations

import itertools
import random

from nomc.alpha import FreshnessConstraint
from nomc.terms import Abstraction, App, Atom, Permutation, Suspension, Var

ATOMS = tuple(Atom(n) for n in "abcd")
VARS = tuple(Var(n) for n in ("X", "Y", "Z"))
QUANTIFIERS = ("forall", "exists")
CONNECTIVES = ("and", "or")


def swap(a: Atom, b: Atom, term):
    """The swapping (a b) applied to a term; suspensions take it on the left."""
    if isinstance(term, Atom):
        return b if term == a else a if term == b else term
    if isinstance(term, Suspension):
        return Suspension(Permutation(((a, b),) + term.perm.swappings), term.var)
    if isinstance(term, Abstraction):
        return Abstraction(swap(a, b, term.atom), swap(a, b, term.body))
    return App(term.sym, tuple(swap(a, b, x) for x in term.args))


def is_fresh(ctx, atom: Atom, term) -> bool:
    """ctx |- atom # term; on ground terms, atom does not occur free."""
    if isinstance(term, Atom):
        return term != atom
    if isinstance(term, Suspension):
        return FreshnessConstraint(term.perm.inverse().act(atom), term.var) in ctx
    if isinstance(term, Abstraction):
        return term.atom == atom or is_fresh(ctx, atom, term.body)
    return all(is_fresh(ctx, atom, x) for x in term.args)


def shape(term, commutative) -> dict:
    """Input properties the oracle and narrowing costs depend on."""
    nodes = comm = binders = 0
    stack = [term]
    while stack:
        t = stack.pop()
        nodes += 1
        if isinstance(t, Abstraction):
            binders += 1
            stack.append(t.body)
        elif isinstance(t, App):
            comm += t.sym in commutative
            stack.extend(t.args)
    return {"nodes": nodes, "comm_nodes": comm, "binders": binders}


def atoms_of(term) -> set:
    out = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Atom):
            out.add(t)
        elif isinstance(t, Suspension):
            out.update(a for pair in t.perm.swappings for a in pair)
        elif isinstance(t, Abstraction):
            out.add(t.atom)
            stack.append(t.body)
        else:
            stack.extend(t.args)
    return out


def free_atoms(term) -> set:
    if isinstance(term, Atom):
        return {term}
    if isinstance(term, Abstraction):
        return free_atoms(term.body) - {term.atom}
    return set().union(*(free_atoms(x) for x in term.args))


def commutative_variants(term, commutative) -> set:
    """Every rearrangement of a ground term's commutative arguments."""
    if isinstance(term, Atom):
        return {term}
    if isinstance(term, Abstraction):
        return {Abstraction(term.atom, b) for b in commutative_variants(term.body, commutative)}
    out = set()
    for combo in itertools.product(*(commutative_variants(x, commutative) for x in term.args)):
        out.add(App(term.sym, combo))
        if term.sym in commutative:
            out.add(App(term.sym, combo[::-1]))
    return out


def binder_variants(term, pool) -> set:
    """Every renaming of a ground term's binders to pool atoms that keeps
    it alpha-equivalent."""
    if isinstance(term, Atom):
        return {term}
    if isinstance(term, Abstraction):
        out = set()
        for body in binder_variants(term.body, pool):
            out.add(Abstraction(term.atom, body))
            free = free_atoms(body)
            out.update(Abstraction(b, swap(term.atom, b, body)) for b in pool if b != term.atom and b not in free)
        return out
    return {App(term.sym, combo) for combo in itertools.product(*(binder_variants(x, pool) for x in term.args))}


def oracle_sources(term, pool, commutative) -> int:
    """How many terms the ground oracle enumerates as rewrite sources for a
    ground term: its commutative-and-alpha class over the atom pool."""
    return len(set().union(*(binder_variants(m, pool) for m in commutative_variants(term, commutative))))


def prenex_formula(rng: random.Random, depth: int, bound=(), may_quantify=True):
    """Criterion 9's formula generator: quantifiers confined to one
    connective path, so quantifier pulls never race."""
    leaves = list(ATOMS[:3]) + list(bound)
    if depth <= 0:
        return rng.choice(leaves)
    kinds = ["leaf", "not", "and", "or"] + (["forall", "exists"] if may_quantify else [])
    kind = rng.choice(kinds)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "not":
        return App("not", (prenex_formula(rng, depth - 1, bound, may_quantify),))
    if kind in CONNECTIVES:
        left = rng.random() < 0.5
        return App(
            kind,
            (
                prenex_formula(rng, depth - 1, bound, may_quantify and left),
                prenex_formula(rng, depth - 1, bound, may_quantify and not left),
            ),
        )
    x = rng.choice(ATOMS[:3])
    return App(kind, (Abstraction(x, prenex_formula(rng, depth - 1, bound + (x,), may_quantify)),))


def ac_variant(rng: random.Random, ctx, term, commutative):
    """A term =ac-equal to `term` under ctx, by construction: commutative
    swaps, binder renamings to fresh atoms, suspension twists ctx covers."""
    if isinstance(term, Atom):
        return term
    if isinstance(term, Suspension):
        if rng.random() < 0.5:
            fresh = [a for a in ATOMS if FreshnessConstraint(a, term.var) in ctx]
            if len(fresh) >= 2:
                pair = tuple(rng.sample(fresh, 2))
                return Suspension(Permutation(term.perm.swappings + (pair,)), term.var)
        return term
    if isinstance(term, Abstraction):
        body = ac_variant(rng, ctx, term.body, commutative)
        if rng.random() < 0.5:
            candidates = [b for b in ATOMS if b != term.atom and is_fresh(ctx, b, body)]
            if candidates:
                b = rng.choice(candidates)
                return Abstraction(b, swap(term.atom, b, body))
        return Abstraction(term.atom, body)
    args = tuple(ac_variant(rng, ctx, a, commutative) for a in term.args)
    if term.sym in commutative and rng.random() < 0.5:
        args = (args[1], args[0])
    return App(term.sym, args)


def change_one_leaf(rng: random.Random, term):
    """Replace one atom leaf by a different atom. The result is never =ac to
    the input: the changed leaf's free name or binder index differs, and
    commutative swaps cannot pair it back."""
    leaves = []

    def walk(t, path):
        if isinstance(t, Atom):
            leaves.append(path)
        elif isinstance(t, Abstraction):
            walk(t.body, path + (0,))
        elif isinstance(t, App):
            for i, x in enumerate(t.args):
                walk(x, path + (i,))

    walk(term, ())
    path = rng.choice(leaves)

    def rebuild(t, rest):
        if not rest:
            return rng.choice([a for a in ATOMS if a != t])
        if isinstance(t, Abstraction):
            return Abstraction(t.atom, rebuild(t.body, rest[1:]))
        args = list(t.args)
        args[rest[0]] = rebuild(args[rest[0]], rest[1:])
        return App(t.sym, tuple(args))

    return rebuild(term, path)


def prenex_pattern(rng: random.Random, depth: int, variables=VARS):
    """Prenex formula with identity-suspension leaves, for narrowing."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Suspension(Permutation(), rng.choice(variables))
        return rng.choice(ATOMS[:3])
    kind = rng.choice(["not", "and", "or", "forall", "exists"])
    if kind == "not":
        return App("not", (prenex_pattern(rng, depth - 1, variables),))
    if kind in CONNECTIVES:
        return App(kind, (prenex_pattern(rng, depth - 1, variables), prenex_pattern(rng, depth - 1, variables)))
    x = rng.choice(ATOMS[:3])
    return App(kind, (Abstraction(x, prenex_pattern(rng, depth - 1, variables)),))


def quantifier_free(rng: random.Random, depth: int, leaves):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    kind = rng.choice(("not",) + CONNECTIVES)
    if kind == "not":
        return App("not", (quantifier_free(rng, depth - 1, leaves),))
    return App(kind, (quantifier_free(rng, depth - 1, leaves), quantifier_free(rng, depth - 1, leaves)))


def prenex_normal_formula(rng: random.Random, quantifiers: int, depth: int):
    """A ground formula already in prenex form, hence a prenex normal form."""
    binders = [rng.choice(ATOMS[:3]) for _ in range(quantifiers)]
    term = quantifier_free(rng, depth, list(ATOMS[:3]))
    for x in reversed(binders):
        term = App(rng.choice(QUANTIFIERS), (Abstraction(x, term),))
    return term


def quantifier_count(term) -> int:
    count = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            count += t.sym in QUANTIFIERS
            stack.extend(t.args)
        elif isinstance(t, Abstraction):
            stack.append(t.body)
    return count


def is_prenex(term, quantifiers: int) -> bool:
    """A quantifier prefix over a quantifier-free matrix, with the given
    number of quantifiers in the prefix."""
    prefix = 0
    while isinstance(term, App) and term.sym in QUANTIFIERS:
        (body,) = term.args
        if not isinstance(body, Abstraction):
            return False
        prefix += 1
        term = body.body
    return prefix == quantifiers and quantifier_count(term) == 0


WRAPPERS = ("bare", "oplus", "h", "fC")


def fixpoint_term(rng: random.Random, pair, wrapper: str):
    """An ex22 term h(...) around one fC([p][q]V, V), bare or wrapped."""
    p, q = pair
    var = Suspension(Permutation(), rng.choice(VARS[:2]))
    inner = App("fC", (Abstraction(p, Abstraction(q, var)), var))
    if wrapper == "oplus":
        inner = App("oplus", (inner, rng.choice(ATOMS[:3])))
    elif wrapper == "h":
        inner = App("h", (inner,))
    elif wrapper == "fC":
        inner = App("fC", (rng.choice(ATOMS[:3]), inner))
    return App("h", (inner,))


def redex_positions(term) -> int:
    """How many (position, argument) pairs of the pattern a prenex rule's
    left-hand side can unify with: `not` over a quantifier or variable, or
    a connective with a quantifier or variable argument. Zero means the
    pattern does not narrow; the count predicts the cost of narrowing it."""
    count = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Abstraction):
            stack.append(t.body)
        elif isinstance(t, App):
            if t.sym in ("not",) + CONNECTIVES:
                count += sum(
                    isinstance(a, Suspension) or (isinstance(a, App) and a.sym in QUANTIFIERS) for a in t.args
                )
            stack.extend(t.args)
    return count


def deep_term(depth: int) -> str:
    return "h(" * depth + "a" + ")" * depth
