"""Command-line interface: reports, exit codes, JSON stability."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nomc
from nomc import cli, parsing
from nomc.cli import build_parser, run_command
from nomc.narrowing import NarrowingNode


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_binder_judgement_derivable(self, capsys):
        code, out = run(
            capsys,
            "check",
            "--context",
            "a#X, b#X, c#X",
            "lam([a]app(a, X)) =ac lam([b]app(b, (a c).X))",
        )
        assert code == 0 and "derivable" in out

    def test_negative_answer_is_success(self, capsys):
        code, out = run(capsys, "check", "a # a")
        assert code == 0 and "not derivable" in out

    def test_freshness_judgement(self, capsys):
        code, out = run(capsys, "check", "--context", "a#X, b#X, c#X",
                        "a # app(b, (a c).X)")
        assert code == 0 and out.strip() == "derivable"


class TestUnifyAndMatch:
    def test_single_unifier(self, capsys):
        code, out = run(capsys, "unify", "h(Y)", "h(fC([b][a]X, X))", "--system", "ex22")
        assert code == 0
        assert "1 solution(s)" in out
        assert "[Y -> fC([b][a]X, X)]" in out

    def test_fixpoint_residual_reported(self, capsys):
        code, out = run(capsys, "unify", "fC([a][b]Z, Z)", "fC([b][a]X, X)",
                        "--system", "ex22")
        assert code == 0 and "residual" in out and "(a b).X =ac X" in out

    def test_no_unifier_is_success(self, capsys):
        code, out = run(capsys, "unify", "a", "b", "--system", "ex22")
        assert code == 0 and "0 solution(s)" in out

    def test_match_splits_context_by_side(self, capsys):
        code, out = run(
            capsys,
            "match",
            "or(P, exists([a]Q))",
            "or(exists([a]Q1), P1)",
            "--system",
            "prenex",
            "--context",
            "a#P, a#P1",
        )
        assert code == 0 and "1 match(es)" in out
        assert "P -> P1" in out and "Q -> Q1" in out


class TestRewriteAndNormalize:
    def test_rewrite_lists_steps(self, capsys):
        code, out = run(
            capsys,
            "rewrite",
            "or(S1, or(exists([a]Q1), P1))",
            "--system",
            "prenex",
            "--context",
            "a#P1",
        )
        assert code == 0 and "or_exists" in out
        assert "or(S1, exists([a]or(P1, Q1)))" in out

    def test_normalize_normal_form(self, capsys):
        code, out = run(capsys, "normalize", "a", "--system", "prenex")
        assert code == 0 and out.splitlines()[0] == "a" and "0 step(s)" in out

    def test_step_limit_exit_code(self, capsys, tmp_path):
        loop = tmp_path / "loop.nrs"
        loop.write_text("sig:\n  f: 1\n\nrules:\n  spin: |- f(X) -> f(X)\n")
        code, out = run(capsys, "normalize", "f(a)", "--system", str(loop),
                        "--max-steps", "3")
        assert code == 2 and "bound exhausted" in out

    def test_coherence_verdict(self, capsys):
        code, out = run(
            capsys,
            "coherence",
            "or(not(forall([a]Q1)), P1)",
            "or(P1, not(forall([a]Q1)))",
            "--system",
            "prenex",
        )
        assert code == 0 and out.strip() == "WITNESSED"


class TestNarrowAndLift:
    def test_fixpoint_depth_three_finishes(self, capsys):
        code, out = run(capsys, "narrow", "h(fC([b][a]X, X))", "--system", "ex22",
                        "--depth", "2", "--fixpoint-depth", "3", "--json")
        assert code == 0
        assert json.loads(out)["truncation"]["fixpoint_depth"] == 3

    def test_narrow_tree_report(self, capsys):
        code, out = run(
            capsys,
            "narrow",
            "h(fC([b][a]X, X))",
            "--system",
            "ex22",
            "--depth",
            "2",
            "--fixpoint-depth",
            "2",
            "--max-unifiers",
            "25",
        )
        assert code == 0
        assert "collapse" in out and "[fixpoint]" in out
        assert "cut off" not in out

    def test_listing_names_a_truncation(self, capsys):
        argv = ["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--max-unifiers", "2"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[:2] == [
            "6 narrowing step(s) to depth 2",
            "--max-unifiers 2 cut off steps at 3 node(s)",
        ]
        code, out = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["result"]["truncation"]["nodes_truncated"] == 3

    def test_path_error_names_a_truncation(self, capsys):
        # The root has four steps; --max-unifiers 1 keeps one, so index 1 is
        # missing because of the cut, and the error says so.
        argv = ["lift-forward", "h(fC([b][a]X, X))", "--system", "ex22", "--rho", "X -> a"]
        code, out = run(capsys, *argv, "--max-unifiers", "1", "--path", "1")
        assert code == 1
        assert out.strip() == "error: path index 1 out of range at level 0; --max-unifiers 1 cut off steps at 2 node(s)"
        code, out = run(capsys, *argv, "--path", "4")
        assert code == 1 and out.strip() == "error: path index 4 out of range at level 0"

    def test_lift_forward_ok(self, capsys):
        code, out = run(
            capsys,
            "lift-forward",
            "and(P1, not(forall([b]Q1)))",
            "--system",
            "prenex",
            "--rho",
            "Q1 -> forall([a]R), P1 -> R",
            "--target-context",
            "a#R",
            "--depth",
            "2",
            "--path",
            "2,1",
        )
        assert code == 0 and out.strip() == "ok"

    def test_lift_forward_precondition(self, capsys):
        code, out = run(
            capsys,
            "lift-forward",
            "and(P1, not(forall([b]Q1)))",
            "--system",
            "prenex",
            "--rho",
            "Q1 -> a, P1 -> a",
            "--target-context",
            "a#R",
            "--depth",
            "2",
            "--path",
            "2,1",
        )
        assert code == 0 and out.strip() == "precondition_fail"

    def test_lift_backward_reconstructs(self, capsys):
        code, out = run(
            capsys,
            "lift-backward",
            "not(forall([a]Q))",
            "--system",
            "prenex",
            "--rho",
            "Q -> b",
        )
        assert code == 0 and "ok: 1 narrowing step(s)" in out

    def test_lift_backward_not_found(self, capsys, tmp_path):
        # `flip` rewrites the instance (a c).c = a at the root, where the
        # term itself is a suspension, so no narrowing step lies above it.
        path = tmp_path / "flip.nrs"
        path.write_text("sig:\n  g: 1\nrules:\n  flip: |- a -> b\n")
        argv = ("lift-backward", "(a c).X", "--system", str(path), "--rho", "X -> c")
        code, out = run(capsys, *argv)
        assert code == 0 and out == "not found at step 0\n"
        code, out = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["result"] == {"status": "not_found", "step_index": 0}


class TestBounds:
    def test_state_cap_exit_two(self, capsys):
        code, out = run(
            capsys,
            "unify",
            "fC(fC(X1, X2), fC(X3, X4))",
            "fC(fC(Y1, Y2), fC(Y3, Y4))",
            "--system",
            "ex22",
            "--max-states",
            "5",
        )
        assert code == 2 and "bound exhausted" in out

    def test_coherence_spends_the_state_cap_only_where_the_verdict_reads(self, capsys):
        # t1's one reduct, or(exists([a]not(a)), not(Z)), is t2's too, so the
        # diagram closes without a reach set. Rewriting that reduct again
        # needs more than 12 states, so a cap from 6 to 12 must not fire;
        # the one-step reducts themselves need 6.
        argv = ("coherence", "or(not(forall([b]b)), not(Z))", "or(not(forall([a]a)), not(Z))")
        argv += ("--system", "prenex", "--max-steps", "1", "--max-states")
        code, out = run(capsys, *argv, "6")
        assert (code, out) == (0, "WITNESSED\n")
        code, out = run(capsys, *argv, "5")
        assert code == 2 and "exceeded 5 states" in out


class TestUsageErrors:
    # Exit 2 means a bound was exhausted, so argparse's own exit 2 for a
    # usage error must not reach the caller.
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["narrow", "h(X)", "--system", "ex22", "--depth", "x"],
            ["solve", "a"],
            ["check", "a # b", "--no-such-option"],
            # lifting backward builds each step one way, with no fixed-point search
            ["lift-backward", "not(forall([a]Q))", "--system", "prenex", "--rho", "Q -> b", "--fixpoint-depth", "1"],
            [],
        ],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nomc")

    @pytest.mark.parametrize(
        "argv",
        [
            ["narrow", "h(X)", "--system", "ex22", "--depth", "-1"],
            ["narrow", "h(X)", "--system", "ex22", "--fixpoint-depth", "-1"],
            ["narrow", "h(X)", "--system", "ex22", "--max-unifiers", "-1"],
            ["unify", "X", "a", "--max-states", "-3"],
            ["normalize", "a", "--system", "prenex", "--max-steps", "-1"],
        ],
    )
    def test_negative_bound_exit_one(self, capsys, argv):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be 0 or more, got {argv[-1]}" in captured.err

    @pytest.mark.parametrize(
        "spec, entry",
        # int() would read "1_0" as 10 and take signs, blanks and non-ASCII digits
        [("a,b", "'a'"), ("0,,1", "''"), ("0,x", "'x'"), ("1_0", "'1_0'"), ("+1", "'+1'"), (" 1", "' 1'"), ("١", "'١'")],
    )
    def test_bad_path_entry_exit_one(self, capsys, spec, entry):
        code, out = run(capsys, "lift-forward", "h(X)", "--system", "ex22", "--path", spec)
        assert code == 1 and out.strip() == f"error: --path entry {entry} is not an integer"

    @pytest.mark.parametrize("argv", [["--help"], ["narrow", "--help"]])
    def test_help_exit_zero(self, capsys, argv):
        assert run_command(argv) == 0
        assert capsys.readouterr().out.startswith("usage: nomc")


class TestErrorsAndJson:
    def test_parse_error_exit_one(self, capsys):
        code, out = run(capsys, "check", "lam([a]")
        assert code == 1 and "error" in out

    def test_missing_system_exit_one(self, capsys):
        code, out = run(capsys, "normalize", "a", "--system", "nowhere.nrs")
        assert code == 1

    def test_unreadable_system_path_exit_one(self, capsys, tmp_path):
        code, out = run(capsys, "check", "a # b", "--system", str(tmp_path), "--json")
        assert code == 1
        assert json.loads(out)["result"] == {
            "error": f"cannot read system file: {tmp_path} (Is a directory)"
        }

    @pytest.mark.parametrize("entry", ["prenex", "prenex.nrs"])
    def test_local_directory_does_not_shadow_bundled_name(self, capsys, tmp_path, monkeypatch, entry):
        monkeypatch.chdir(tmp_path)
        (tmp_path / entry).mkdir()
        for spec in ("prenex", "prenex.nrs"):
            code, out = run(capsys, "check", "a # b", "--system", spec)
            assert code == 0 and out.strip() == "derivable"

    def test_local_file_loads_only_with_a_directory_part(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        local = "sig:\n  g: 1\n\nrules:\n  drop: |- g(X) -> X\n"
        (tmp_path / "prenex").write_text(local)
        (tmp_path / "prenex.nrs").write_text(local)
        code, out = run(capsys, "normalize", "not(exists([a]b))", "--system", "prenex")
        assert code == 0 and out.splitlines()[0] == "forall([a]not(b))"
        code, out = run(capsys, "normalize", "g(a)", "--system", "./prenex.nrs")
        assert code == 0 and out.splitlines()[0] == "a"
        code, out = run(capsys, "normalize", "g(a)", "--system", "prenex.nrs")
        assert code == 0 and out.splitlines()[0] == "g(a)"  # the bundled rules

    def test_shared_system_cannot_be_changed(self, capsys):
        system = cli.load_system_file("prenex").system
        for attr in ("rules", "_lhs", "_walk_costs", "signature", "_fresh_rules", "_plain"):
            with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
                setattr(system, attr, None)
        code, out = run(capsys, "normalize", "not(exists([a]b))", "--system", "prenex")
        assert code == 0 and out.splitlines()[:2] == ["forall([a]not(b))", "1 step(s)"]

    def test_negative_path_index_exit_one(self, capsys):
        code, out = run(
            capsys,
            "lift-forward",
            "and(P1, not(forall([b]Q1)))",
            "--system",
            "prenex",
            "--rho",
            "Q1 -> forall([a]R), P1 -> R",
            "--target-context",
            "a#R",
            "--path",
            "-1",
        )
        # an entry is ASCII digits only, so a sign is rejected before any lookup
        assert code == 1 and out.strip() == "error: --path entry '-1' is not an integer"

    def test_bundled_systems_are_a_regular_package(self):
        import nomc.systems

        assert nomc.systems.__file__ is not None

    def test_substitution_binding_a_variable_twice_exit_one(self, capsys):
        code, out = run(capsys, "lift-forward", "not(X)", "--system", "prenex", "--rho", "X -> a, X -> b")
        assert code == 1 and out.strip() == "error: 1:9: variable X is bound twice"

    def test_arity_error_exit_one(self, capsys):
        code, out = run(capsys, "normalize", "forall(a, b)", "--system", "prenex")
        assert code == 1 and "forall" in out

    def test_too_deep_for_the_parser_exit_one(self, capsys):
        deep = "h(" * 3000 + "a" + ")" * 3000
        code, out = run(capsys, "check", "--system", "ex22", "--json", f"{deep} =ac {deep}")
        assert code == 1
        assert json.loads(out)["result"] == {"error": "term is nested too deeply"}

    @pytest.mark.parametrize("command, steps_line", [("normalize", -1), ("rewrite", 0)])
    def test_deep_normal_form_is_answered_up_to_the_limit(self, command, steps_line):
        # Run as the installed `nomc` script runs it, `main` under a module,
        # so the stack below the command is the script's: 990 levels of
        # not(...) are answered, 3,000 are too deep. Every pass over the term
        # that rewriting adds must be iterative to keep the first.
        env = dict(os.environ, PYTHONPATH=str(Path(nomc.__file__).resolve().parents[1]))
        script = "import sys\nfrom nomc.cli import main\nsys.exit(main())\n"

        def deep(levels):
            term = "not(" * levels + "a" + ")" * levels
            argv = [sys.executable, "-c", script, command, term, "--system", "prenex"]
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            return done.returncode, done.stdout.strip(), term, done.stderr

        code, out, term, err = deep(990)
        assert (code, err) == (0, "")
        assert out.splitlines()[steps_line] == "0 step(s)" and (command == "rewrite" or out.splitlines()[0] == term)
        code, out, _, err = deep(3000)
        assert (code, out, err) == (1, "error: term is nested too deeply", "")

    def test_deep_judgement_is_answered(self, capsys):
        # The judgement and the one-frame printer take 400 levels; the
        # parser's limit is near 1,000 (the test above).
        deep = "h(" * 400 + "a" + ")" * 400
        code, out = run(capsys, "check", "--system", "ex22", f"{deep} =ac {deep}")
        assert code == 0 and out.strip() == "derivable"
        code, out = run(capsys, "check", "--system", "ex22", "--json", f"{deep} =ac {deep}")
        assert code == 0
        assert json.loads(out)["result"] == {"judgement": f"{deep} =ac {deep}", "derivable": True}

    def test_json_report_shape(self, capsys):
        code, out = run(capsys, "check", "--json", "a # b")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "result", "truncation", "timing_ms"}
        assert report["command"] == "check"
        assert report["result"]["derivable"] is True

    def test_json_stable_modulo_timing(self, capsys):
        args = ["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--depth", "1",
                "--fixpoint-depth", "1", "--json"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        a = json.loads(first)
        b = json.loads(second)
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_terms_in_reports_reparse(self, capsys):
        from nomc import parse_term
        from nomc.cli import load_system_file

        sig = load_system_file("ex22").system.signature
        _, out = run(capsys, "rewrite", "h(fC(a, b))", "--system", "ex22", "--json")
        report = json.loads(out)
        for step in report["result"]["steps"]:
            parse_term(step["result"], sig)

    def test_problem_lines_replay_through_cli(self, capsys):
        import shlex

        from nomc.cli import load_system_file

        for name in ("prenex", "ex22", "lambda"):
            loaded = load_system_file(name)
            for problem, line in loaded.problems.items():
                argv = shlex.split(line)
                argv.insert(1, "--system")
                argv.insert(2, name)
                code, _ = run(capsys, *argv)
                assert code == 0, (name, problem)


class TestLazyRendering:
    """A request renders only the report it prints: the JSON payload under
    --json, the plain text otherwise."""

    @staticmethod
    def _pinned(command):
        from test_cli_golden import DATA

        golden = json.loads(DATA.read_text(encoding="utf-8"))
        pinned = [g for g in golden if g["argv"][0] == command and g["plain"]["exit"] == 0]
        assert pinned
        return pinned

    @staticmethod
    def _refuse(*_):
        raise AssertionError("built a report that is not printed")

    @pytest.mark.parametrize("command", ["narrow", "rewrite"])
    def test_json_builds_no_text(self, capsys, monkeypatch, command):
        monkeypatch.setattr(NarrowingNode, "__str__", self._refuse)
        monkeypatch.setattr(cli, "_listing", self._refuse)
        for expected in self._pinned(command):
            code, out = run(capsys, *expected["argv"], "--json")
            report = json.loads(out)
            del report["timing_ms"]
            assert (code, report) == (0, expected["json"]["report"])

    @pytest.mark.parametrize("command", ["narrow", "rewrite"])
    def test_plain_builds_no_payload(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_tree_payload", self._refuse)
        monkeypatch.setattr(cli, "_steps_payload", self._refuse)
        for expected in self._pinned(command):
            assert run(capsys, *expected["argv"]) == (0, expected["plain"]["stdout"])

    def test_renderer_too_deep_exit_one(self, capsys, monkeypatch):
        def overflow(*_):
            raise RecursionError

        monkeypatch.setattr(cli, "_listing", overflow)
        code, out = run(capsys, "rewrite", "h(fC(a, b))", "--system", "ex22")
        assert code == 1 and out.strip() == "error: term is nested too deeply"


class TestSharedPerProcessState:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import nomc.cli\n"
            "assert built == [], built\n"
            "nomc.cli.build_parser()\n"
            "assert built, 'the spy saw no parser'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nomc.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_bundled_system_is_parsed_once(self, capsys, monkeypatch, tmp_path):
        assert run(capsys, "check", "a # b", "--system", "prenex") == (0, "derivable\n")
        calls = []
        original = parsing.parse_system

        def spy(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(parsing, "parse_system", spy)
        monkeypatch.setattr(cli, "parse_system", spy)
        for spec in ("prenex", "prenex.nrs"):
            assert run(capsys, "check", "a # b", "--system", spec) == (0, "derivable\n")
        assert calls == []
        local = tmp_path / "local.nrs"
        local.write_text("sig:\n  f: 1\n\nrules:\n")
        assert run(capsys, "check", "a # b", "--system", str(local)) == (0, "derivable\n")
        assert len(calls) == 1

    def test_system_path_is_reread_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "edit.nrs"
        path.write_text("sig:\n  f: 1\n  g: 1\n\nrules:\n  step: |- f(X) -> g(X)\n")
        code, out = run(capsys, "rewrite", "f(a)", "--system", str(path))
        assert code == 0 and "g(a)" in out
        path.write_text("sig:\n  f: 1\n  g: 1\n\nrules:\n  step: |- f(X) -> f(g(X))\n")
        code, out = run(capsys, "rewrite", "f(a)", "--system", str(path))
        assert code == 0 and "f(g(a))" in out


def _parametrized(test) -> list:
    """The argvs a test above is parametrized with."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return list(mark.args[1])


def _parse_outcome(parse, argv):
    """`vars` of the namespace `parse(argv)` returns, or the exit code and
    the stdout and stderr it leaves when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


class TestArgvDispatch:
    """A request that starts with a command goes straight to that command's
    parser; it must read exactly as the full parser reads it."""

    @staticmethod
    def _argvs() -> list[list[str]]:
        from test_cli_fuzz import COMMANDS, SYSTEMS, _request
        from test_cli_golden import argvs as golden_argvs

        rng = random.Random(7)
        return (
            golden_argvs()
            + _parametrized(TestUsageErrors.test_usage_error_exit_one)
            + _parametrized(TestUsageErrors.test_negative_bound_exit_one)
            + _parametrized(TestUsageErrors.test_help_exit_zero)
            + [
                ["check", "a # b", "--bogus"],
                ["check", "a # b", "extra"],
                ["narrow", "h(X)", "--system", "ex22", "--max-s", "5"],  # an abbreviation
                ["check", "--", "a # b"],
                ["check", "-h"],
            ]
            + [
                _request(rng.choice(COMMANDS), rng.choice(SYSTEMS), rng.randrange(2**32))
                for _ in range(200)
            ]
        )

    def test_same_reading_as_the_full_parser(self):
        for argv in self._argvs():
            assert _parse_outcome(cli._parse_argv, argv) == _parse_outcome(build_parser().parse_args, argv), argv

    def test_left_over_arguments_get_the_top_level_usage(self):
        code, out, err = _parse_outcome(cli._parse_argv, ["check", "a # b", "--bogus"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: nomc [-h]")
        assert "nomc: error: unrecognized arguments: --bogus" in err


class TestClosedPipe:
    """A reader that closes standard output early (`nomc ... | head`) gets
    no traceback, and the command keeps its own exit code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--depth", "2", "--fixpoint-depth", "3", "--json"], 0),
            (["normalize", "and(R, not(forall([b]forall([a]R))))", "--system", "prenex", "--context", "a#R",
              "--max-steps", "1"], 2),
        ],
    )
    def test_no_traceback_and_own_exit_code(self, argv, code):
        env = dict(os.environ, PYTHONPATH=str(Path(nomc.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nomc", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        # Closed before the child writes: its first write meets no reader.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == code
        assert stderr == ""
