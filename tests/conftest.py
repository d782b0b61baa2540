"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from nomc import (
    Abstraction,
    App,
    Atom,
    CSolution,
    EqualityGoal,
    FAIL,
    FreshnessConstraint,
    IDENTITY,
    IDENTITY_SUBST,
    INCONSISTENT,
    NarrowingNode,
    NarrowingStep,
    NarrowingTree,
    Permutation,
    STUCK,
    SearchSpaceExceeded,
    Signature,
    Substitution,
    Suspension,
    TruncationRecord,
    Var,
    apply_subst,
    derive_alpha,
    derive_alpha_c,
    derive_freshness,
    difference_set,
    enumerate_fixpoint_solutions,
    freshness_context_nf,
    permute_term,
    simplify_step,
    solve,
)
from nomc import narrowing, rewriting
from nomc.cli import load_system_file
from nomc.rewriting import clash_permutation, permute_rule, redexes, renamed_rule
from nomc.terms import NameSupply, replace_at, subterms_with_positions, term_atoms
from nomc.unify import DEFAULT_MAX_STATES

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


# -- the term printer, the old way ------------------------------------------------
#
# Applications, abstractions and suspensions once printed themselves with
# f-strings, an application's arguments through a generator and `str.join`,
# each level in a string of its own. These copies stay here as the reference
# for the printer that writes a whole term into one list (`nomc.terms._write`).


def reference_str(term) -> str:
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Suspension):
        if term.perm.swappings:
            return f"{term.perm}.{term.var}"
        return str(term.var)
    if isinstance(term, Abstraction):
        return f"[{term.atom}]{reference_str(term.body)}"
    if not term.args:
        return term.sym
    return f"{term.sym}({', '.join(reference_str(a) for a in term.args)})"


def reference_subst_str(theta) -> str:
    if not theta.domain:
        return "Id"
    inner = ", ".join(f"{v} -> {reference_str(t)}" for v, t in theta.items())
    return f"[{inner}]"


# -- term walkers, the old way ----------------------------------------------------
#
# The term walkers once tested each node with an isinstance chain, recursed
# through generator expressions and rebuilt every node they passed. These
# copies stay here as the references for the walkers in nomc, which dispatch
# on the node's type, loop, and share unchanged subterms.


def reference_permute_term(perm, term):
    if not perm.swappings:
        return term
    if isinstance(term, Atom):
        return perm.act(term)
    if isinstance(term, Suspension):
        return Suspension(perm.compose(term.perm), term.var)
    if isinstance(term, Abstraction):
        return Abstraction(perm.act(term.atom), reference_permute_term(perm, term.body))
    return App(term.sym, tuple(reference_permute_term(perm, a) for a in term.args))


def reference_apply_subst(theta, term):
    if isinstance(term, Atom):
        return term
    if isinstance(term, Suspension):
        return reference_permute_term(term.perm, theta.get(term.var))
    if isinstance(term, Abstraction):
        return Abstraction(term.atom, reference_apply_subst(theta, term.body))
    return App(term.sym, tuple(reference_apply_subst(theta, a) for a in term.args))


def reference_term_vars(term):
    if isinstance(term, Atom):
        return frozenset()
    if isinstance(term, Suspension):
        return frozenset({term.var})
    if isinstance(term, Abstraction):
        return reference_term_vars(term.body)
    out = frozenset()
    for arg in term.args:
        out |= reference_term_vars(arg)
    return out


def reference_term_atoms(term):
    if isinstance(term, Atom):
        return frozenset({term})
    if isinstance(term, Suspension):
        return frozenset(a for pair in term.perm.swappings for a in pair)
    if isinstance(term, Abstraction):
        return reference_term_atoms(term.body) | {term.atom}
    out = frozenset()
    for arg in term.args:
        out |= reference_term_atoms(arg)
    return out


def reference_derive_freshness(ctx, atom, term):
    if isinstance(term, Atom):
        return atom != term
    if isinstance(term, Suspension):
        wanted = term.perm.inverse().act(atom)
        return FreshnessConstraint(wanted, term.var) in ctx
    if isinstance(term, Abstraction):
        if term.atom == atom:
            return True
        return reference_derive_freshness(ctx, atom, term.body)
    return all(reference_derive_freshness(ctx, atom, arg) for arg in term.args)


def reference_derive_alpha_c(ctx, s, t, sig):
    if isinstance(s, Atom) and isinstance(t, Atom):
        return s == t
    if isinstance(s, Suspension) and isinstance(t, Suspension):
        if s.var != t.var:
            return False
        return all(FreshnessConstraint(a, s.var) in ctx for a in difference_set(s.perm, t.perm))
    if isinstance(s, Abstraction) and isinstance(t, Abstraction):
        if s.atom == t.atom:
            return reference_derive_alpha_c(ctx, s.body, t.body, sig)
        swapped = reference_permute_term(Permutation(((s.atom, t.atom),)), t.body)
        return reference_derive_alpha_c(ctx, s.body, swapped, sig) and reference_derive_freshness(
            ctx, s.atom, t.body
        )
    if isinstance(s, App) and isinstance(t, App):
        if s.sym != t.sym or len(s.args) != len(t.args):
            return False
        if sig.is_commutative(s.sym):
            s0, s1 = s.args
            t0, t1 = t.args
            if reference_derive_alpha_c(ctx, s0, t0, sig) and reference_derive_alpha_c(ctx, s1, t1, sig):
                return True
            return reference_derive_alpha_c(ctx, s0, t1, sig) and reference_derive_alpha_c(ctx, s1, t0, sig)
        return all(reference_derive_alpha_c(ctx, sa, ta, sig) for sa, ta in zip(s.args, t.args))
    return False


def reference_skeleton_fits(lhs, sub, sig, unify):
    """Can `sub` be an instance of `lhs` as far as symbols, binders and atoms
    go? The lhs's suspensions are wildcards; the subject's fit everything
    when unifying and only a wildcard when matching. Atom and binder names
    are ignored, and a commutative symbol's arguments fit in either order.
    The fit masks (`nomc.rewriting._fit_masks`) compute this verdict."""
    if isinstance(lhs, Suspension):
        return True
    if isinstance(sub, Suspension):
        return unify
    if isinstance(lhs, Atom):
        return isinstance(sub, Atom)
    if isinstance(lhs, Abstraction):
        return isinstance(sub, Abstraction) and reference_skeleton_fits(lhs.body, sub.body, sig, unify)
    if not isinstance(sub, App) or sub.sym != lhs.sym or len(sub.args) != len(lhs.args):
        return False
    if all(reference_skeleton_fits(l, s, sig, unify) for l, s in zip(lhs.args, sub.args)):
        return True
    if not sig.is_commutative(lhs.sym):
        return False
    (l0, l1), (s0, s1) = lhs.args, sub.args
    return reference_skeleton_fits(l0, s1, sig, unify) and reference_skeleton_fits(l1, s0, sig, unify)


def lhs_fits(system, rule, sub, unify):
    """Does `sub`'s fit mask hold the bit of `rule`'s left-hand side?"""
    (bit,) = [bit for bit, filed in system._lhs if filed.name == rule.name]
    return bool(rewriting._fit_masks(sub, system, unify)[2][0] & bit)


def reference_redexes(context, term, system, prepare, attempt, unify):
    """`nomc.rewriting.redexes` as it was when it built a Position for every
    subterm through `subterms_with_positions` and tried each rule where
    `reference_skeleton_fits` accepts it, in declaration order: a
    specification that leans on no rule index."""
    sig = system.signature
    ambient_atoms = None
    for pos, sub in subterms_with_positions(term):
        if isinstance(sub, Suspension):
            continue
        for rule in system.rules:
            if not reference_skeleton_fits(rule.lhs, sub, sig, unify):
                continue
            prepared = prepare(rule)
            answers = attempt(sub, prepared)
            if answers:
                yield pos, prepared, answers
                continue
            sub_atoms = term_atoms(sub)
            if prepared.atoms().isdisjoint(sub_atoms):
                continue
            if ambient_atoms is None:
                ambient_atoms = term_atoms(term) | frozenset(c.atom for c in context)
            shift = clash_permutation(prepared, sub_atoms, ambient_atoms)
            shifted = permute_rule(prepared, shift)
            answers = attempt(sub, shifted)
            if answers:
                yield pos, shifted, answers


# -- the solver's search, the old way ----------------------------------------------
#
# The solver once built a state for every successor of every step and ran
# `simplify_step` on each, and turned each leaf state into a solution
# afterwards, recognising its fixed-point equations anew. This loop and that
# conversion stay here as the reference for the search that advances each
# branch in place and hands back solutions (`nomc.unify._leaf_solutions`).


def reference_search(initial, protected, sig, max_states):
    """(leaves in depth-first order, states visited), or SearchSpaceExceeded
    once more than max_states states are visited."""
    stack = [initial]
    leaves = []
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
    return leaves, visited


def reference_fixpoint_form(goal):
    """pi.X =ac rho.X with rho acting as the identity and pi not."""
    if not isinstance(goal, EqualityGoal):
        return None
    lhs, rhs = goal.lhs, goal.rhs
    if (
        isinstance(lhs, Suspension)
        and isinstance(rhs, Suspension)
        and lhs.var == rhs.var
        and not rhs.perm.moved_atoms()
        and difference_set(lhs.perm, rhs.perm)
    ):
        return lhs.perm, lhs.var
    return None


def reference_prune_context(ctx, subst):
    return frozenset(c for c in ctx if c.var not in subst.domain)


def reference_leaf_solution(state, protected):
    """The solution of a leaf state of `reference_search`."""
    context = state.context
    kept = []
    discharged = False
    for goal in state.goals:
        perm, var = reference_fixpoint_form(goal)
        if var in protected:
            context = context | {FreshnessConstraint(a, var) for a in difference_set(perm, IDENTITY)}
            discharged = True
        else:
            kept.append((perm, var))
    return CSolution(reference_prune_context(context, state.subst), state.subst, tuple(kept), discharged)


# -- residual fixed-point equations, the old way ------------------------------------
#
# Narrowing once closed an answer's residual equations by the full product of
# their enumerated options, and relied on `compose` dropping an option's
# binding when an earlier option had bound the same variable. A second
# equation on one variable then repeated the answer once per option, and its
# freshness option added constraints on the bound variable. This stays here as
# the reference for the lazy closure (`nomc.narrowing._expanded_solutions`).
# It enumerates afresh on every call and ignores the search's table.


def reference_expanded_solutions(solutions, sig, fixpoint_depth, table=None):
    for sol in solutions:
        if not sol.residual_fixpoints:
            yield sol.context, sol.subst, False
            continue
        option_lists = [
            enumerate_fixpoint_solutions(perm, var, sig, fixpoint_depth)
            for perm, var in sol.residual_fixpoints
        ]
        for combo in itertools.product(*option_lists):
            context = sol.context
            theta = sol.subst
            for (perm, var), (extra_ctx, rho) in zip(sol.residual_fixpoints, combo):
                if var in theta.domain:
                    bound = theta.get(var)
                    if not derive_alpha_c(context, permute_term(perm, bound), bound, sig):
                        break
                reduced = freshness_context_nf(context, rho)
                if reduced is INCONSISTENT:
                    break
                context = reduced | extra_ctx
                theta = theta.compose(rho)
            else:
                yield context, theta, True


# -- narrowing, the eager way -------------------------------------------------------
#
# A narrowing search once composed each child's accumulated substitution as
# it built the child, enumerated a residual's fixed-point options afresh in
# every `_expanded_solutions` call, and ran the solver on every attempt,
# linear nodes included. This stays here as the reference for the search's
# shared table, the composition on first read and the linear walk
# (`nomc.narrowing.narrow_search`).


def _reference_narrowing_steps(node, system, fixpoint_depth, max_unifiers, names, max_states):
    sig = system.signature
    steps = []

    def prepare(rule):
        return renamed_rule(rule, names.draw(rule.renaming_bases))

    def attempt(sub, rule):
        return solve(node.context, sub, rule.context, rule.lhs, sig=sig, max_states=max_states)

    for pos, rule, solutions in redexes(node.context, node.term, system, prepare, attempt, unify=True):
        for context, theta, flagged in narrowing._expanded_solutions(solutions, sig, fixpoint_depth, {}):
            if len(steps) >= max_unifiers:
                return steps, True
            term = apply_subst(theta, replace_at(node.term, pos.path, rule.rhs))
            child = NarrowingNode(context, term, node.accumulated.compose(theta), node.depth + 1)
            steps.append(NarrowingStep(rule.name, pos, theta, flagged, child, node, rule))
    return steps, False


def reference_narrow_search(delta, term, system, depth, fixpoint_depth, max_unifiers, max_states=DEFAULT_MAX_STATES):
    root = NarrowingNode(delta, term, IDENTITY_SUBST, 0)
    names = NameSupply(narrowing._gather_vars(root))
    edges, frontier, nodes_truncated = [], [root], 0
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            steps, truncated = _reference_narrowing_steps(node, system, fixpoint_depth, max_unifiers, names, max_states)
            nodes_truncated += truncated
            edges.extend(steps)
            next_frontier.extend(s.child for s in steps)
        frontier = next_frontier
        if not frontier:
            break
    record = TruncationRecord(depth, max_unifiers, fixpoint_depth, nodes_truncated)
    return NarrowingTree(root, tuple(edges), record)
