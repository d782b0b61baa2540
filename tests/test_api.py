"""The names code outside the library reaches it by: every function the
benchmark tracer wraps, the README's library example, the non-answers
README "Library" documents, and the package's exports, of which the
narrowing ones load on first use."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nomc
import nomc.cli
from nomc import FAIL, INCONSISTENT, PRECONDITION_FAIL, STUCK, UNKNOWN, NotFound, Sentinel

ROOT = Path(__file__).resolve().parent.parent

# Every name `import nomc` bound before narrowing loaded lazily, submodules
# aside.
EXPORTS = """
    Abstraction App Atom CSolution CoherenceVerdict EMPTY_CONTEXT EqualityGoal FAIL
    FreshnessConstraint FreshnessContext FreshnessGoal FrozenInstanceError IDENTITY
    IDENTITY_SUBST INCONSISTENT NOT_WITNESSED NarrowingNode NarrowingStep NarrowingTree
    NotFound PRECONDITION_FAIL ParseError Permutation Position REJECTED RewriteRule
    RewriteStep RewriteSystem STUCK SearchSpaceExceeded Sentinel Signature
    StepLimitExceeded Substitution Suspension SystemFile Term TruncationRecord UNKNOWN
    UnificationState Var WITNESSED alpha_variants apply_subst c_class_enumerate
    check_problem check_solution coherence_check commutative_variants derive_alpha
    derive_alpha_c derive_freshness difference_set enumerate_fixpoint_solutions
    format_context format_system fresh_atom freshness_context_nf instance_of is_ground
    lifting_backward_construct lifting_forward_check match narrow_search
    narrowing_to_rewriting normal_form_equal_check normalize one_step_rewrites
    parse_context parse_judgement parse_substitution parse_system parse_term
    permute_term primary_rewrite_steps r_over_e_one_step replace_at simplify_step solve
    subterm_at term_atoms term_vars verify_rewrite_step
""".split()
NARROWING = (
    "NarrowingNode", "NarrowingStep", "NarrowingTree", "NotFound", "PRECONDITION_FAIL", "TruncationRecord",
    "lifting_backward_construct", "lifting_forward_check", "narrow_search", "narrowing_to_rewriting",
)


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _tracer():
    """perfbench/tracer.py, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location("_traced_names", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for name in _tracer().NAMES:
        module, fn = name.split(".")
        if not callable(getattr(getattr(nomc, module, None), fn, None)):
            missing.append(name)
    assert not missing


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_non_answers_are_falsy():
    for sentinel in (FAIL, STUCK, UNKNOWN, INCONSISTENT, PRECONDITION_FAIL):
        assert isinstance(sentinel, Sentinel) and not sentinel
    assert not NotFound(0)


def test_all_lists_every_export_and_star_import_binds_it():
    assert len(EXPORTS) == 83 and sorted(nomc.__all__) == sorted(EXPORTS)
    namespace: dict = {}
    exec("from nomc import *", namespace)
    assert all(namespace[name] is getattr(nomc, name) for name in EXPORTS)


def test_dir_lists_the_names_that_load_on_first_use():
    assert {*NARROWING, "narrowing"} <= set(dir(nomc))


def test_narrowing_names_resolve_to_the_module_and_stay_bound():
    for name in NARROWING:
        assert getattr(nomc, name) is getattr(nomc.narrowing, name) and name in vars(nomc)
    assert nomc.narrow_search is nomc.narrowing.narrow_search
    assert not hasattr(nomc, "no_such_name")


def test_import_leaves_narrowing_unloaded_until_a_name_is_used():
    code = """if True:
        import sys
        import nomc
        print("nomc.narrowing" in sys.modules, "narrow_search" in vars(nomc))
        nomc.NotFound
        print("nomc.narrowing" in sys.modules, nomc.narrow_search is sys.modules["nomc.narrowing"].narrow_search)
    """
    done = _child(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\nTrue True\n", "")


# Each request's plain-text output, as a 16-hex SHA-256, as the commands
# printed it when narrowing was imported with the package: README requests.
REQUESTS = [
    (["check", "--context", "a#X, b#X, c#X", "lam([a]app(a, X)) =ac lam([b]app(b, (a c).X))"], False,
     "eb84d8689e41ac93"),
    (["normalize", "and(R, not(forall([b]forall([a]R))))", "--system", "prenex", "--context", "a#R"], False,
     "0465c216328a81bc"),
    (["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--depth", "2", "--fixpoint-depth", "2"], True,
     "3c4e5326842569c6"),
    (["lift-forward", "and(P1, not(forall([b]Q1)))", "--system", "prenex", "--rho", "Q1 -> forall([a]R), P1 -> R",
      "--target-context", "a#R", "--depth", "2", "--path", "2,1"], True, "dc51b8c96c2d745d"),
    (["lift-backward", "not(forall([a]Q))", "--system", "prenex", "--rho", "Q -> b"], True, "8f84be818884a951"),
]


@pytest.mark.parametrize("argv, loads, digest", REQUESTS, ids=[argv[0] for argv, _, _ in REQUESTS])
def test_only_narrowing_commands_load_narrowing(argv, loads, digest):
    code = """if True:
        import sys
        from nomc.cli import run_command
        code = run_command(sys.argv[1:])
        print(code, "nomc.narrowing" in sys.modules, file=sys.stderr)
    """
    done = _child(code, *argv)
    assert (done.returncode, done.stderr) == (0, f"0 {loads}\n")
    assert hashlib.sha256(done.stdout.encode()).hexdigest()[:16] == digest
