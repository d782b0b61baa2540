"""Benchmark for nomc: one workload per run, checked answers, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nomc is imported from `src/`. One client sends
problems in a closed loop, single-threaded: the next problem starts when the
previous one has returned.

--trace 0 measures the end-to-end metrics: round(S / 5) passes over the
seeded list, each about five seconds long. Every timing is scaled to the
machine's uncontended speed by a reference workload timed next to it
(speed.py), and each problem's value is the median over the passes. The
report keeps the unscaled figures too. Answers are checked outside the
timed calls.

--trace 1 runs a fixed prefix of the list twice, untraced and then traced,
and reports the per-layer counters and self times with the tracing overhead.
Its counters depend only on the seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A per-problem report with
input properties goes to `.perfbench/` in the repository root, and the
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# A problem that runs longer than this counts as failed (missed deadline).
DEADLINE_S = 10.0
# A workload's list takes about this long per pass on a 2-core x86 VM at
# the commit that added the benchmark; --seconds S makes round(S / PASS_S)
# passes, at least two. The count depends on S alone, never on measured
# speed, so every run of a setting takes the median over as many passes.
PASS_S = 5.0
# Problem time between two timings of the reference work (see speed.py).
REFERENCE_EVERY_S = 0.04
# Fresh processes timed for setup_s, after one that warms the bytecode cache.
SETUP_SAMPLES = 7
# Problems at the head of each workload's list that the traced run covers:
# two oracle cycles, two narrow_lift cycles (one costly pair), three cli
# cycles.
TRACED_PROBLEMS = {"oracle_ground": 64, "narrow_lift": 90, "cli_problems": 231}

_SETUP_CODE = """
import statistics, time
import speed
reference = statistics.median(speed.reference_time() for _ in range(3))
started = time.perf_counter()
import nomc, nomc.cli
for name in ("prenex", "ex22", "lambda"):
    nomc.cli.load_system_file(name)
print(time.perf_counter() - started, reference)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE), env.get("PYTHONPATH", "")))
    return env


def measure_setup() -> tuple[float, float]:
    """Median seconds to import nomc and load the bundled systems, each
    sample in a fresh interpreter: (scaled to reference speed, as timed)."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            seconds, reference = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * speed.REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the slowest time with ten samples beyond it."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 11)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def attempt(problem) -> tuple[float, object, str]:
    """Run one problem; returns (seconds, answer, failure reason or "")."""
    started = time.perf_counter()
    try:
        answer = problem.run()
    except Exception as exc:  # a failure to count, not to stop the run on
        elapsed = time.perf_counter() - started
        kind = type(exc).__name__
        return elapsed, None, f"{kind}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - started
    if elapsed > DEADLINE_S:
        return elapsed, answer, "missed deadline"
    try:
        if not problem.check(answer):
            return elapsed, answer, "wrong answer"
    except Exception:
        return elapsed, answer, "wrong answer: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return elapsed, answer, ""


def record(index: int, problem, elapsed: float, reason: str) -> dict:
    return {"index": index, "kind": problem.kind, **problem.props, "ms": round(elapsed * 1000, 4), "failure": reason}


def run_probes(workloads) -> list[dict]:
    """Known-defect probes, each in a child process killed at the deadline."""
    code = (
        "import sys, nomc.cli\n"
        "try:\n    code = nomc.cli.run_command(sys.argv[1:])\n"
        "except Exception as exc:\n    sys.exit(f'escaped {type(exc).__name__}')\n"
        "sys.exit(code)"
    )
    out = []
    for name, argv in workloads.DEFECT_PROBES:
        started = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], cwd=ROOT, env=_child_env(),
                capture_output=True, text=True, timeout=workloads.PROBE_DEADLINE_S,
            )
            last = (done.stderr.strip().splitlines() or [""])[-1]
            outcome = last if last.startswith("escaped") else f"exit {done.returncode}"
        except subprocess.TimeoutExpired:
            outcome = f"missed deadline of {workloads.PROBE_DEADLINE_S} s"
        out.append({"probe": name, "outcome": outcome, "s": round(time.perf_counter() - started, 3)})
    return out


def end_to_end(name: str, problems, seconds: float, workloads) -> tuple[dict, dict]:
    """Passes over the whole list. The reference work runs after every
    REFERENCE_EVERY_S of problem time; each problem's time is scaled by
    REFERENCE_S over the mean of the two reference timings around it, and
    a problem's value is the median of its scaled times over the passes."""
    setup_s, setup_raw_s = measure_setup()
    warmed = set()
    for problem in problems:
        if problem.kind not in warmed:
            warmed.add(problem.kind)
            attempt(problem)
    gc.collect()
    scaled: list[list[float]] = [[] for _ in problems]
    raw: list[list[float]] = [[] for _ in problems]
    failures: list[list[str]] = [[] for _ in problems]
    passes = max(2, round(seconds / PASS_S))
    before = speed.reference_time()
    block: list[int] = []
    block_s = 0.0
    for _ in range(passes):
        for index, problem in enumerate(problems):
            elapsed, _, reason = attempt(problem)
            raw[index].append(elapsed)
            block.append(index)
            block_s += elapsed
            if reason:
                failures[index].append(reason)
            if block_s >= REFERENCE_EVERY_S or index == len(problems) - 1:
                after = speed.reference_time()
                factor = speed.REFERENCE_S / ((before + after) / 2)
                for i in block:
                    scaled[i].append(raw[i][-1] * factor)
                block, block_s, before = [], 0.0, after
    times = [statistics.median(s) for s in scaled]
    raw_times = [statistics.median(s) for s in raw]
    pct, tail_s = tail(times)
    metrics = {
        "problems_per_s": (len(problems) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    records = [record(i, p, times[i], "; ".join(failures[i])) for i, p in enumerate(problems)]
    for rec, seconds_raw in zip(records, raw_times):
        rec["raw_ms"] = round(seconds_raw * 1000, 4)
    failed = sum(len(f) for f in failures)
    report = {
        "passes": passes,
        "attempted": passes * len(problems),
        "failed": failed,
        "error_rate": failed / (passes * len(problems)),
        "latency_tail_percentile": pct,
        "as_timed": {
            "problems_per_s": len(problems) / sum(raw_times),
            "latency_p50_ms": statistics.median(raw_times) * 1000,
            "latency_tail_ms": tail(raw_times)[1] * 1000,
            "setup_s": setup_raw_s,
        },
        "problems": records,
    }
    if name == "cli_problems":
        report["known_defect_probes"] = run_probes(workloads)
    return metrics, report


def traced(name: str, seed: int, problems, workloads) -> tuple[dict, dict]:
    from tracer import Tracer

    chosen = problems[: TRACED_PROBLEMS[name]]
    plain, plain_s = [], 0.0
    for problem in chosen:
        elapsed, answer, reason = attempt(problem)
        plain_s += elapsed
        plain.append((problem.digest(answer) if answer is not None else None, reason))
    gc.collect()
    tracer = Tracer()
    tracer.install()
    records, traced_s, mismatched = [], 0.0, 0
    try:
        for index, problem in enumerate(chosen):
            tracer.problem = index
            elapsed, answer, reason = attempt(problem)
            traced_s += elapsed
            digest = problem.digest(answer) if answer is not None else None
            if (digest, reason) != plain[index]:
                mismatched += 1
                reason = reason or "traced answer differs from untraced answer"
            records.append(record(index, problem, elapsed, reason))
    finally:
        tracer.uninstall()
    for index, (members, variants) in tracer.oracle_class.items():
        records[index].update(oracle_class_members=members, oracle_sources=variants)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    report = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "spans": len(tracer.span_start),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "answers_differ": mismatched,
        "counters": tracer.counters(),
        "problems": records,
    }
    tracer.write_spans(OUT / f"{name}-seed{seed}.spans")
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nomc" / "__init__.py").is_file():
        print(f"no nomc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nomc
    import workloads

    if Path(nomc.__file__).resolve().parent != SRC / "nomc":
        print(f"imported nomc from {nomc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    problems = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, report = traced(args.workload, args.seed, problems, workloads)
    else:
        metrics, report = end_to_end(args.workload, problems, args.seconds, workloads)
    attempted, failed = report["attempted"], report["failed"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    with open(OUT / f"{stem}.json", "w") as out:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": summary, **report}, out, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} problems, {failed} failed")
    if not args.trace:
        print(f"  {report['passes']} passes over {len(report['problems'])} problems; each problem scores its median scaled time")
        print(f"  error_rate {report['error_rate']:.4f}")
        print(
            f"  latency_tail_ms is p{report['latency_tail_percentile']:.4g} of {len(report['problems'])} problems, "
            "10 beyond it"
        )
        for probe in report.get("known_defect_probes", ()):
            print(f"  known-defect probe {probe['probe']}: {probe['outcome']} after {probe['s']} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for r in report["problems"]:
        if r["failure"]:
            print(f"  failed: problem {r['index']} ({r['kind']}): {r['failure']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
