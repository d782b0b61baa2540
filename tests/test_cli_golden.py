"""Golden CLI output: plain-text reports, `--json` reports and exit codes.

`tests/data/cli_golden.json` pins, for each argv below, the exit code and
stdout of `run_command` in plain mode and in `--json` mode (the JSON report
minus `timing_ms`). The argvs are every command of `tests/test_golden.py`
plus the error and bound paths: commands that need `--system` run without
it, an unknown system, parse and arity errors, bad `--path` indices,
exhausted bounds and the inputs the lifting and coherence checks refuse.
Regenerate only when an answer or message is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
from pathlib import Path

from nomc.cli import load_system_file, run_command

from test_golden import BUNDLED, MAX_STATES, NORMALIZE_TERMS, README_COMMANDS

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

LIFT_FORWARD = [
    "lift-forward", "and(P1, not(forall([b]Q1)))", "--system", "prenex",
    "--rho", "Q1 -> forall([a]R), P1 -> R", "--target-context", "a#R", "--depth", "2",
]

ERROR_COMMANDS = (
    # commands that need a system, run without one
    ["rewrite", "a"],
    ["normalize", "a"],
    ["coherence", "a", "b"],
    ["narrow", "a"],
    ["lift-forward", "a"],
    ["lift-backward", "a"],
    # commands that run over the empty signature without one
    ["check", "a # b"],
    ["unify", "X", "a"],
    ["match", "X", "a", "--context", "a#X"],
    # unknown system
    ["normalize", "a", "--system", "nowhere.nrs"],
    ["check", "a # b", "--system", "nowhere"],
    # parse errors: term, context, judgement, substitution
    ["unify", "h(", "a", "--system", "ex22"],
    ["check", "--context", "a#", "a # b"],
    ["check", "a = b"],
    ["lift-backward", "not(forall([a]Q))", "--system", "prenex", "--rho", "Q ->"],
    # arity error
    ["normalize", "forall(a, b)", "--system", "prenex"],
    # bad path indices
    LIFT_FORWARD + ["--path", "9"],
    LIFT_FORWARD + ["--path", "x"],
    LIFT_FORWARD + ["--path", "2,1,0,0"],
    # bounds
    ["unify", "fC(fC(X1, X2), fC(X3, X4))", "fC(fC(Y1, Y2), fC(Y3, Y4))", "--system", "ex22", "--max-states", "5"],
    # swap_abs repeats Z, so the solver matches it and the cap stops it
    ["rewrite", "fC([b][a]c, c)", "--system", "ex22", "--max-states", "1"],
    ["normalize", "and(R, not(forall([b]forall([a]R))))", "--system", "prenex", "--context", "a#R", "--max-steps", "1"],
    ["normalize", "and(R, not(forall([b]forall([a]R))))", "--system", "prenex", "--context", "a#R", "--max-steps", "0"],
    ["normalize", "a", "--system", "prenex", "--max-steps", "0"],
    # inputs the checks refuse
    ["lift-backward", "not(Q)", "--system", "prenex", "--rho", "Q -> not(exists([a]a))"],
    ["lift-backward", "not(forall([b]Q))", "--system", "prenex", "--context", "a#Q", "--rho", "Q -> a"],
    ["lift-forward", "and(P1, not(forall([b]Q1)))", "--system", "prenex", "--rho", "Q1 -> a, P1 -> a",
     "--target-context", "a#R", "--depth", "2", "--path", "2,1"],
    ["match", "or(P, Q)", "or(P, a)", "--system", "prenex"],
    ["coherence", "a", "b", "--system", "prenex"],
)


def argvs() -> list[list[str]]:
    out = []
    for name in BUNDLED:
        for line in load_system_file(name).problems.values():
            argv = shlex.split(line)
            out.append(argv[:1] + ["--system", name] + argv[1:])
    out.extend(README_COMMANDS)
    out.extend(
        ["normalize", text, "--system", "prenex", "--max-states", str(cap)]
        for text in NORMALIZE_TERMS
        for cap in MAX_STATES
    )
    out.extend(ERROR_COMMANDS)
    return out


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    code, text = _stdout(argv)
    json_code, json_text = _stdout(argv + ["--json"])
    report = json.loads(json_text)
    del report["timing_ms"]
    return {
        "argv": argv,
        "plain": {"exit": code, "stdout": text},
        "json": {"exit": json_code, "report": report},
    }


def collect() -> list[dict]:
    return [record(argv) for argv in argvs()]


def test_cli_output_matches_golden():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == argvs()
    for expected in golden:
        assert json.loads(json.dumps(record(expected["argv"]))) == expected


def test_requests_do_not_depend_on_earlier_requests():
    # One process serves every request with one parser and one copy of each
    # bundled system. Replaying forward and then reversed puts bound hits
    # and errors before the requests that followed them, and a usage error
    # runs before every request.
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    for expected in golden + golden[::-1]:
        assert _stdout(expected["argv"][:1] + ["--no-such-option"]) == (1, "")
        assert json.loads(json.dumps(record(expected["argv"]))) == expected


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, sort_keys=True))
