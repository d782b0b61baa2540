"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import random
import re

import pytest

from nomc import (
    Abstraction,
    App,
    Atom,
    FreshnessConstraint,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Var,
    derive_alpha,
    derive_freshness,
    permute_term,
)
from nomc.cli import load_system_file
from nomc.rewriting import renamed_rule

ATOMS = tuple(Atom(n) for n in "abcd")
VARS = tuple(Var(n) for n in ("X", "Y", "Z"))


@pytest.fixture(scope="session")
def prenex_system():
    return load_system_file("prenex").system


@pytest.fixture(scope="session")
def ex22_system():
    return load_system_file("ex22").system


@pytest.fixture(scope="session")
def lambda_signature():
    return load_system_file("lambda").system.signature


def random_permutation(rng: random.Random, atoms=ATOMS, max_swaps: int = 2) -> Permutation:
    swappings = []
    for _ in range(rng.randint(0, max_swaps)):
        left, right = rng.sample(atoms, 2)
        swappings.append((left, right))
    return Permutation(tuple(swappings))


def random_term(rng: random.Random, sig: Signature, depth: int, atoms=ATOMS, variables=VARS):
    """Random term over the signature; leaves are atoms and suspensions."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Suspension(random_permutation(rng, atoms), rng.choice(variables))
        return rng.choice(atoms)
    symbols = sig.symbols
    kind = rng.choice(("abs",) + symbols if symbols else ("abs",))
    if kind == "abs":
        return Abstraction(rng.choice(atoms), random_term(rng, sig, depth - 1, atoms, variables))
    arity = sig.arity(kind)
    return App(kind, tuple(random_term(rng, sig, depth - 1, atoms, variables) for _ in range(arity)))


def random_ground_term(rng: random.Random, sig: Signature, depth: int, atoms=ATOMS):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    symbols = sig.symbols
    kind = rng.choice(("abs",) + symbols if symbols else ("abs",))
    if kind == "abs":
        return Abstraction(rng.choice(atoms), random_ground_term(rng, sig, depth - 1, atoms))
    arity = sig.arity(kind)
    return App(kind, tuple(random_ground_term(rng, sig, depth - 1, atoms) for _ in range(arity)))


def random_context(rng: random.Random, atoms=ATOMS, variables=VARS, size: int = 4):
    out = set()
    for _ in range(rng.randint(0, size)):
        out.add(FreshnessConstraint(rng.choice(atoms), rng.choice(variables)))
    return frozenset(out)


def equivalent_variant(rng: random.Random, ctx, term, sig: Signature):
    """A term =ac-equal to `term` under ctx: random commutative swaps, binder
    renamings justified by freshness, and suspension twists covered by ctx."""
    if isinstance(term, Atom):
        return term
    if isinstance(term, Suspension):
        if rng.random() < 0.5:
            fresh = [
                a
                for a in ATOMS
                if FreshnessConstraint(a, term.var) in ctx
            ]
            if len(fresh) >= 2:
                pair = tuple(rng.sample(fresh, 2))
                return Suspension(term.perm.compose(Permutation((pair,))), term.var)
        return term
    if isinstance(term, Abstraction):
        body = equivalent_variant(rng, ctx, term.body, sig)
        if rng.random() < 0.5:
            candidates = [
                b for b in ATOMS if b != term.atom and derive_freshness(ctx, b, body)
            ]
            if candidates:
                b = rng.choice(candidates)
                return Abstraction(b, permute_term(Permutation(((term.atom, b),)), body))
        return Abstraction(term.atom, body)
    args = tuple(equivalent_variant(rng, ctx, a, sig) for a in term.args)
    if sig.is_commutative(term.sym) and rng.random() < 0.5:
        args = (args[1], args[0])
    return App(term.sym, args)


def random_prenex_formula(rng: random.Random, depth: int, bound=(), may_quantify=True):
    """Random formula over the prenex signature, quantifiers confined to a
    single connective path so quantifier pulls never race."""
    leaves = list(ATOMS[:3]) + list(bound)
    if depth <= 0:
        return rng.choice(leaves)
    kinds = ["leaf", "not", "and", "or"] + (["forall", "exists"] if may_quantify else [])
    kind = rng.choice(kinds)
    if kind == "leaf":
        return rng.choice(leaves)
    if kind == "not":
        return App("not", (random_prenex_formula(rng, depth - 1, bound, may_quantify),))
    if kind in ("and", "or"):
        quantifier_left = rng.random() < 0.5
        return App(
            kind,
            (
                random_prenex_formula(rng, depth - 1, bound, may_quantify and quantifier_left),
                random_prenex_formula(rng, depth - 1, bound, may_quantify and not quantifier_left),
            ),
        )
    x = rng.choice(ATOMS[:3])
    return App(kind, (Abstraction(x, random_prenex_formula(rng, depth - 1, bound + (x,), may_quantify)),))


def random_prenex_pattern(rng: random.Random, depth: int, variables=VARS):
    """Prenex formula with suspension leaves mixed in, for narrowing tests."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Suspension(Permutation(), rng.choice(variables))
        return rng.choice(ATOMS[:3])
    kind = rng.choice(["not", "and", "or", "forall", "exists"])
    if kind == "not":
        return App("not", (random_prenex_pattern(rng, depth - 1, variables),))
    if kind in ("and", "or"):
        return App(
            kind,
            (
                random_prenex_pattern(rng, depth - 1, variables),
                random_prenex_pattern(rng, depth - 1, variables),
            ),
        )
    x = rng.choice(ATOMS[:3])
    return App(kind, (Abstraction(x, random_prenex_pattern(rng, depth - 1, variables)),))


def random_substitution(rng: random.Random, sig: Signature, variables=VARS, depth: int = 2):
    mapping = {}
    for var in variables:
        if rng.random() < 0.6:
            mapping[var] = random_ground_term(rng, sig, depth)
    return Substitution(mapping)


# -- fresh names, the old way ---------------------------------------------------
#
# Fresh names once came from a search loop of their own, and rules were
# renamed apart from an avoid set that every caller grew itself. Both stay
# here as references for the name supply (`nomc.terms.NameSupply`).


def reference_fresh_name(taken, base, default):
    """First `<stem><n>` not in taken, counting from 0, where the stem is
    `base` without trailing digits (or `default` if nothing is left)."""
    stem = re.sub(r"\d+$", "", base) or default
    n = 0
    while f"{stem}{n}" in taken:
        n += 1
    return f"{stem}{n}"


def rename_rule_with_map(rule, avoid):
    """Copy of the rule with variables renamed apart from `avoid`, plus the
    renaming: each of its variables, by name, takes the first fresh name
    for avoid and the earlier picks."""
    taken = {v.name for v in avoid}
    renaming = {}
    for var in sorted(rule.variables(), key=lambda v: v.name):
        renaming[var] = Var(reference_fresh_name(taken, var.name, "X"))
        taken.add(renaming[var].name)
    return renamed_rule(rule, renaming), renaming


# -- step dedup, the old way ------------------------------------------------------
#
# Steps were once deduplicated by comparing each with every kept step. The
# loop stays here as the reference for the bucketed dedup.


def reference_dedup_steps(delta, steps):
    """The steps whose results are not alpha-equal to any kept result, in order."""
    kept = []
    for step in steps:
        if not any(derive_alpha(delta, step.result, k.result) for k in kept):
            kept.append(step)
    return tuple(kept)


# -- term equality, the slow way ------------------------------------------------
#
# Atoms and variables are interned and compared by identity, and nodes are
# slotted dataclasses. This walk compares by type and field instead, with
# names as strings, and stays here as the reference for `==`.


def reference_same_term(s, t) -> bool:
    """Whether two terms have the same type, fields and names throughout."""
    if type(s) is not type(t):
        return False
    if isinstance(s, (Atom, Var)):
        return s.name == t.name
    if isinstance(s, Permutation):
        return len(s.swappings) == len(t.swappings) and all(
            reference_same_term(x, y) for p, q in zip(s.swappings, t.swappings) for x, y in zip(p, q)
        )
    if isinstance(s, Suspension):
        return reference_same_term(s.perm, t.perm) and reference_same_term(s.var, t.var)
    if isinstance(s, Abstraction):
        return reference_same_term(s.atom, t.atom) and reference_same_term(s.body, t.body)
    return s.sym == t.sym and len(s.args) == len(t.args) and all(map(reference_same_term, s.args, t.args))
