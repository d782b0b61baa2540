"""The names code outside the library reaches it by: every function the
benchmark tracer wraps, the README's library example, and the non-answers
README "Library" documents."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import nomc
import nomc.cli
from nomc import FAIL, INCONSISTENT, PRECONDITION_FAIL, STUCK, UNKNOWN, NotFound, Sentinel

ROOT = Path(__file__).resolve().parent.parent


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
