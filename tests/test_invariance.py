"""Equivariance of the judgements: permuting atom names permutes the answer.

For a permutation π and an unchanged context Δ, Δ ⊢ a#t holds exactly when
Δ ⊢ π(a)#π·t does, and Δ ⊢ s =ac t exactly when Δ ⊢ π·s =ac π·t. π acts on
a suspension ρ·X by composing, and the context is consulted through
(π∘ρ)⁻¹(π(a)) = ρ⁻¹(a) and through ds(π∘ρ, π∘ρ') = ds(ρ, ρ'), so no draw is
an exception. Each test also counts both answers and the draws where π
moves an atom of its input, so that neither holds vacuously.
"""

import random

import pytest

from nomc import Atom, Permutation, derive_alpha_c, derive_freshness, permute_term, term_atoms
from nomc.cli import load_system_file
from conftest import (
    ATOMS,
    equivalent_variant,
    random_context,
    random_permutation,
    random_prenex_pattern,
    random_term,
)
from test_alpha import C_SIG

DRAWS = 3000
# π also swaps in an atom no input mentions.
PI_ATOMS = ATOMS + (Atom("e"),)
PRENEX_SIG = load_system_file("prenex").system.signature


def _c_term(rng):
    return random_term(rng, C_SIG, 3)


def _prenex_term(rng):
    return random_prenex_pattern(rng, 4)


SOURCES = {"C_SIG": (C_SIG, _c_term), "prenex": (PRENEX_SIG, _prenex_term)}


def _moves(pi, atoms):
    return any(pi.act(atom) is not atom for atom in atoms)


@pytest.mark.parametrize("source", SOURCES)
def test_freshness_is_equivariant(source):
    sig, draw = SOURCES[source]
    rng = random.Random(24)
    answers, moved, exceptions = [], 0, []
    for _ in range(DRAWS):
        delta, atom, term = random_context(rng), rng.choice(ATOMS), draw(rng)
        pi = random_permutation(rng, PI_ATOMS, max_swaps=3)
        holds = derive_freshness(delta, atom, term)
        if derive_freshness(delta, pi.act(atom), permute_term(pi, term)) != holds:
            exceptions.append((delta, atom, term, pi))
        answers.append(holds)
        moved += _moves(pi, term_atoms(term) | {atom})
    assert exceptions == []
    assert min(answers.count(True), answers.count(False)) > DRAWS // 5
    assert moved > DRAWS // 3


@pytest.mark.parametrize("source", SOURCES)
def test_alpha_c_is_equivariant(source):
    """Half of the pairs are =ac variants of one term; the other half are
    variants with one swapping applied, which are mostly not."""
    sig, draw = SOURCES[source]
    rng = random.Random(24)
    answers, moved, exceptions = [], 0, []
    for _ in range(DRAWS):
        delta, s = random_context(rng), draw(rng)
        t = equivalent_variant(rng, delta, s, sig)
        if rng.random() < 0.5:
            t = permute_term(Permutation((tuple(rng.sample(ATOMS, 2)),)), t)
        pi = random_permutation(rng, PI_ATOMS, max_swaps=3)
        holds = derive_alpha_c(delta, s, t, sig)
        if derive_alpha_c(delta, permute_term(pi, s), permute_term(pi, t), sig) != holds:
            exceptions.append((delta, s, t, pi))
        answers.append(holds)
        moved += _moves(pi, term_atoms(s) | term_atoms(t))
    assert exceptions == []
    assert min(answers.count(True), answers.count(False)) > DRAWS // 5
    assert moved > DRAWS // 3
