"""Every answer of the benchmark's CLI requests, pinned by digest.

`tests/data/answer_corpus.json` holds each distinct request that
perfbench's cli_problems workload builds at seeds 1-3, once plain and once
with `--json`. An entry stores the argv strings, the exit code of
`run_command`, and the first 16 hex digits of the SHA-256 of its stdout
(for `--json`, of the report without `timing_ms`). The argvs are data: the
test never asks perfbench for them, so its generator can change freely.

Re-pin the digests of the stored requests when an answer is meant to change,
and log each re-pin in CHANGES.md:

    PYTHONPATH=src python tests/test_answer_corpus.py

With `--from-perfbench` the request list itself is rebuilt from
perfbench's cli_problems at seeds 1-3 (run from the repository root).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from nomc.cli import run_command

DATA = Path(__file__).resolve().parent / "data" / "answer_corpus.json"
SEEDS = (1, 2, 3)


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


def _perfbench_argvs() -> list[list[str]]:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

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


if __name__ == "__main__":
    if sys.argv[1:] == ["--from-perfbench"]:
        _write(_perfbench_argvs())
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        _write([entry["argv"] for entry in json.loads(DATA.read_text(encoding="utf-8"))])
