"""Tests of the benchmark itself: tracing is deterministic and changes no
answer, the reference checks reject wrong answers, and the traced baseline
counts on criterion 9 are reproduced.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import nomc  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced_report(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    with open(ROOT / ".perfbench" / f"{workload}-seed{seed}-trace1.json") as report:
        return json.load(report)


def test_traced_runs_repeat_counters_and_keep_answers():
    for workload in workloads.WORKLOADS:
        first = _traced_report(workload, 5)
        second = _traced_report(workload, 5)
        assert first["counters"] == second["counters"], workload
        # Each traced run also compares every answer with its untraced run.
        assert first["answers_differ"] == second["answers_differ"] == 0, workload
        assert not [p for p in first["problems"] if p["failure"]], workload


def test_inputs_repeat_for_a_seed():
    for build in workloads.WORKLOADS.values():
        a, b = build(8), build(8)
        assert [(p.kind, p.props) for p in a] == [(p.kind, p.props) for p in b]
        assert [(p.kind, p.props) for p in a] != [(p.kind, p.props) for p in build(9)]


def test_checks_reject_wrong_answers():
    (oracle, *_) = workloads.oracle_ground(1)
    assert oracle.check((True, nomc.WITNESSED))
    assert not oracle.check((False, nomc.WITNESSED))
    assert not oracle.check((True, nomc.NOT_WITNESSED))
    assert gen.is_prenex(nomc.parse_term("forall([a]and(a, b))"), 1)
    assert not gen.is_prenex(nomc.parse_term("and(forall([a]a), b)"), 1)
    assert not gen.is_prenex(nomc.parse_term("forall([a]and(a, b))"), 2)
    assert workloads.prenex_string("exists([a]forall([b]or(a, not(b))))", 2)
    assert not workloads.prenex_string("exists([a]or(forall([b]b), a))", 2)
    for problem in workloads.cli_problems(1)[:41]:
        code, text = problem.run()
        assert problem.check((code, text))
        assert not problem.check((2, text))


def test_negative_checks_are_not_derivable_by_construction():
    import random

    rng = random.Random(3)
    sig = workloads.load("prenex").signature
    for _ in range(200):
        s = gen.prenex_formula(rng, 4)
        t = gen.ac_variant(rng, frozenset(), s, sig.commutative_symbols)
        assert nomc.derive_alpha_c(frozenset(), s, t, sig)
        assert not nomc.derive_alpha_c(frozenset(), s, gen.change_one_leaf(rng, t), sig)


def test_criterion9_baseline_counts():
    """The per-layer baseline, counted on criterion 9's first 60 formulas
    (seed 91) with the three bundled systems loaded under tracing."""
    tracer = Tracer()
    tracer.install()
    try:
        system = workloads.load("prenex")
        workloads.load("ex22")
        workloads.load("lambda")
        for index, (formula, partner) in enumerate(workloads.criterion9(91, 60, system)):
            tracer.problem = index
            problem = workloads.oracle_problem(formula, partner, system, 0)
            assert problem.check(problem.run())
    finally:
        tracer.uninstall()
    counts = tracer.counters()
    assert counts["unify.match.calls"] == 123_034
    assert counts["terms.term_vars.calls"] == 3_381_208
    assert counts["terms.term_atoms.calls"] == 1_757_344
    assert counts["unify.simplify_step.calls"] == 251_921
    assert counts["rewriting.primary_rewrite_steps.calls"] == 4_601
