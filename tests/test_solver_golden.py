"""Golden solver traces: every simplification step on random problems.

`tests/data/solver_golden.json` pins two digests per seed. Each seed draws
a unification problem over one of the bundled signatures (conftest's
`random_context` and `random_term` at depth 3) and a random protected
subset of X, Y, Z. The `solutions` digest covers `solve`'s solutions (or
its `SearchSpaceExceeded` message); the `traces` digest covers the printed
outcome of every `simplify_step` along the depth-first search. Changes to
the solver's rule dispatch must keep them all. A change that is meant to
alter the steps but not the answers re-pins `traces` alone, and the
`solutions` list stays byte-identical. Regenerate only when an answer or a
step is meant to change:

    PYTHONPATH=src python tests/test_solver_golden.py > tests/data/solver_golden.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from nomc import (
    Abstraction,
    App,
    EqualityGoal,
    IDENTITY_SUBST,
    SearchSpaceExceeded,
    Suspension,
    UnificationState,
    simplify_step,
    solve,
)
from nomc.cli import load_system_file

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import VARS, random_context, random_permutation, random_term  # noqa: E402

DATA = Path(__file__).resolve().parent / "data" / "solver_golden.json"

BUNDLED = ("prenex", "ex22", "lambda")
SEEDS = range(2000)
MAX_STATES = 3000
TRACE_STATES = 400


def _perturb(rng: random.Random, sig, term, rate: float):
    """`term` with some subterms redrawn, so that most goals get past the root."""
    if rng.random() < rate:
        if rng.random() < 0.5:
            return Suspension(random_permutation(rng), rng.choice(VARS))
        return random_term(rng, sig, 1)
    if isinstance(term, Abstraction):
        return Abstraction(term.atom, _perturb(rng, sig, term.body, rate))
    if isinstance(term, App):
        return App(term.sym, tuple(_perturb(rng, sig, arg, rate) for arg in term.args))
    return term


def _problem(seed: int, signatures):
    rng = random.Random(seed)
    sig = signatures[seed % len(signatures)]
    delta, nabla = random_context(rng), random_context(rng)
    s = random_term(rng, sig, 3)
    l = random_term(rng, sig, 3) if seed % 8 == 0 else _perturb(rng, sig, s, 0.3)
    protected = frozenset(v for v in VARS if rng.random() < 0.4)
    return sig, delta, s, nabla, l, protected


def _trace(sig, delta, s, nabla, l, protected) -> list[str]:
    """Outcomes of simplify_step in the solver's depth-first order."""
    stack = [UnificationState(nabla | delta, IDENTITY_SUBST, (EqualityGoal(l, s),))]
    lines = []
    for _ in range(TRACE_STATES):
        if not stack:
            break
        state = stack.pop()
        if not state.goals:
            continue
        outcome = simplify_step(state, protected, sig=sig)
        if isinstance(outcome, tuple):
            lines.append(" | ".join(str(successor) for successor in outcome))
            stack.extend(reversed(outcome))
        else:
            lines.append(str(outcome))
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def digests(seed: int, signatures) -> tuple[str, str]:
    """The seed's (solutions digest, traces digest)."""
    problem = _problem(seed, signatures)
    sig, delta, s, nabla, l, protected = problem
    try:
        solutions = [
            f"{sol} discharged={sol.protected_fixpoint_discharged}"
            for sol in solve(delta, s, nabla, l, protected, sig=sig, max_states=MAX_STATES)
        ]
    except SearchSpaceExceeded as exc:
        solutions = [f"exceeded: {exc}"]
    return _digest(solutions), _digest(_trace(*problem))


def _signatures():
    return tuple(load_system_file(name).system.signature for name in BUNDLED)


@functools.cache
def collect() -> dict[str, list[str]]:
    signatures = _signatures()
    pairs = [digests(seed, signatures) for seed in SEEDS]
    return {"solutions": [p[0] for p in pairs], "traces": [p[1] for p in pairs]}


def _differing(section: str) -> list[int]:
    expected = json.loads(DATA.read_text(encoding="utf-8"))[section]
    actual = collect()[section]
    assert len(actual) == len(expected)
    return [seed for seed, (got, want) in enumerate(zip(actual, expected)) if got != want]


def test_solver_solutions_match_golden():
    differing = _differing("solutions")
    assert not differing, f"solver solutions differ on seeds {differing[:20]} ({len(differing)} in all)"


def test_solver_traces_match_golden():
    differing = _differing("traces")
    assert not differing, f"solver traces differ on seeds {differing[:20]} ({len(differing)} in all)"


if __name__ == "__main__":
    print(json.dumps({"signatures": list(BUNDLED), **collect()}, indent=0))
