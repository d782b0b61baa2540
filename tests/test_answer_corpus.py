"""Every answer of the benchmark's CLI requests and library problems,
pinned by digest.

`tests/data/answer_corpus.json` holds each distinct request that
perfbench's cli_problems workload builds at seeds 1-3, once plain and once
with `--json`. An entry stores the argv strings, the exit code of
`run_command`, and the first 16 hex digits of the SHA-256 of its stdout
(for `--json`, of the report without `timing_ms`).

`tests/data/narrow_corpus.json` holds perfbench's narrow_lift problems at
seeds 1-3, each with its kind, its system, its inputs as text and its
bounds, and the first 16 hex digits of the SHA-256 of its answer (see
`narrow_answer`).

The requests and problems are data: the tests never ask perfbench for
them, so its generator can change freely. Re-pin the digests of the stored
entries when an answer is meant to change, and log each re-pin in
CHANGES.md:

    PYTHONPATH=src python tests/test_answer_corpus.py

With `--from-perfbench` both lists themselves are rebuilt from perfbench's
workloads at seeds 1-3 (run from the repository root).
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import shlex
import sys
from pathlib import Path

import nomc
from nomc.cli import load_system_file, run_command
from nomc.parsing import parse_substitution, parse_term

DATA = Path(__file__).resolve().parent / "data" / "answer_corpus.json"
NARROW_DATA = DATA.with_name("narrow_corpus.json")
SEEDS = (1, 2, 3)
EMPTY = frozenset()


def answer(argv: list[str]) -> tuple[int, str]:
    """The exit code and the stdout digest of one request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    text = out.getvalue()
    if "--json" in argv:
        report = json.loads(text)
        del report["timing_ms"]
        text = json.dumps(report, sort_keys=True)
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_every_request_gives_its_pinned_answer():
    corpus = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(corpus) > 3000
    changed = [
        (shlex.join(entry["argv"]), entry["exit"], got)
        for entry in corpus
        if (got := answer(entry["argv"])) != (entry["exit"], entry["sha256_16"])
    ]
    assert not changed, f"{len(changed)} of {len(corpus)} answers changed, first: {changed[:3]}"


def _digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer).encode("utf-8")).hexdigest()[:16]


def narrow_answer(entry: dict) -> str:
    """The digest of one narrow_lift problem's answer, rebuilt from its text.

    A tree (kinds fixpoint and pattern) gives, for each edge in order, its
    rule, position, step substitution, fixed-point flag, child context and
    child term, and whether `narrowing_to_rewriting` holds on it. A lifting
    problem gives the normal form, the trace and the lifted steps, and the
    forward check's answer."""
    system = load_system_file(entry["system"]).system
    sig = system.signature
    if entry["kind"] == "lifting":
        pattern, start = parse_term(entry["pattern"], sig), parse_term(entry["start"], sig)
        rho0 = parse_substitution(entry["rho0"], sig)
        nf, trace = nomc.normalize(EMPTY, start, system, entry["max_steps"])
        lifted = nomc.lifting_backward_construct(EMPTY, pattern, rho0, EMPTY, trace, 1, system)
        steps = forward = None
        if not isinstance(lifted, nomc.NotFound):
            steps = [(s.rule, str(s.position), str(s.step_subst)) for s in lifted[0]]
            forward = repr(nomc.lifting_forward_check(*lifted, EMPTY, sig))
        return _digest([str(nf), [(s.rule, str(s.position), str(s.result)) for s in trace], steps, forward])
    term = parse_term(entry["term"], sig)
    tree = nomc.narrow_search(EMPTY, term, system, entry["depth"], entry["fixpoint_depth"], entry["max_unifiers"])
    edges = [
        (
            e.rule,
            str(e.position),
            str(e.step_subst),
            e.used_fixpoint_enumeration,
            nomc.format_context(e.child.context),
            str(e.child.term),
            nomc.narrowing_to_rewriting(e, e.parent, sig=sig),
        )
        for e in tree.edges
    ]
    return _digest(edges)


def test_every_narrow_lift_problem_gives_its_pinned_answer():
    corpus = json.loads(NARROW_DATA.read_text(encoding="utf-8"))
    assert len(corpus) == 540
    assert {entry["kind"] for entry in corpus} == {"fixpoint", "pattern", "lifting"}
    changed = [
        (entry.get("term") or entry["start"], got)
        for entry in corpus
        if (got := narrow_answer(entry)) != entry["sha256_16"]
    ]
    assert not changed, f"{len(changed)} of {len(corpus)} answers changed, first: {changed[:3]}"


def _perfbench_workloads():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    return workloads


def _perfbench_argvs() -> list[list[str]]:
    workloads = _perfbench_workloads()
    seen: dict[str, list[str]] = {}
    for seed in SEEDS:
        for problem in workloads.cli_problems(seed):
            argv = shlex.split(problem.props["argv"])
            for request in (argv, [arg for arg in argv if arg != "--json"]):
                seen.setdefault(shlex.join(request), request)
    return list(seen.values())


def _write(argvs: list[list[str]]) -> None:
    lines = []
    for argv in argvs:
        code, digest = answer(argv)
        lines.append(json.dumps({"argv": argv, "exit": code, "sha256_16": digest}, ensure_ascii=False))
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


def _perfbench_narrow_problems() -> list[dict]:
    """narrow_lift's problems at seeds 1-3 as text, read off each problem's
    `run` closure; each text must parse back to the term it prints."""
    workloads = _perfbench_workloads()
    systems = {id(load_system_file(name).system): name for name in ("prenex", "ex22")}
    entries = []
    for seed in SEEDS:
        for problem in workloads.narrow_lift(seed):
            bound = inspect.getclosurevars(problem.run).nonlocals
            system = bound["system"]
            entry = {"kind": problem.kind, "system": systems[id(system)]}
            if problem.kind == "lifting":
                texts = {"pattern": bound["pattern"], "rho0": bound["rho0"], "start": bound["start"]}
                entry.update({name: str(value) for name, value in texts.items()}, max_steps=30)
                assert parse_substitution(entry["rho0"], system.signature) == bound["rho0"]
            else:
                texts = {"term": bound["term"] if problem.kind == "fixpoint" else bound["pattern"]}
                entry["term"] = str(texts["term"])
                entry.update({name: bound[name] for name in ("depth", "fixpoint_depth", "max_unifiers")})
            for name, value in texts.items():
                if name != "rho0":
                    assert parse_term(entry[name], system.signature) == value
            entries.append(entry)
    return entries


def _write_narrow(entries: list[dict]) -> None:
    lines = [json.dumps(dict(entry, sha256_16=narrow_answer(entry)), ensure_ascii=False) for entry in entries]
    NARROW_DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--from-perfbench"]:
        _write(_perfbench_argvs())
        _write_narrow(_perfbench_narrow_problems())
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        _write([entry["argv"] for entry in json.loads(DATA.read_text(encoding="utf-8"))])
        stored = json.loads(NARROW_DATA.read_text(encoding="utf-8"))
        _write_narrow([{k: v for k, v in entry.items() if k != "sha256_16"} for entry in stored])
