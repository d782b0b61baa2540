"""Mutation gate: every mutant of `src/nomc` below must fail its tests.

    python tests/mutation_gate.py            # every mutant
    python tests/mutation_gate.py NAME ...   # the named ones

Run it from anywhere; it finds `src/` and `tests/` next to itself. For each
mutant it copies `src/` and `tests/` into a temporary directory, replaces
the mutant's exact snippet, which must occur once in its file, and runs
pytest on the mutant's tests there. The mutant is killed when they fail
(pytest's exit code 1) or run past TIMEOUT_S. First the unchanged copy must pass every test the
table names, so a test that fails anyway kills nothing. A snippet that no
longer occurs is an error: a change that rewrites that code ports the
mutant to the new code or retires it, and says so in CHANGES.md.

Exits 0 when every mutant is killed, 1 otherwise. The file name does not
start with `test_`, so the tier-1 run does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node IDs, relative to the repository root


TWINS = "tests/test_terms.py::TestFrozenNodeConstructor::test_other_records_compare_as_frozen_dataclasses"

MUTANTS = (
    Mutant(
        "generated eq drops the last field",
        "src/nomc/terms.py",
        'f"        return ({own})==({other})\\n"',
        'f"        return ({own})[:-1]==({other})[:-1]\\n"',
        (TWINS,),
    ),
    Mutant(
        "generated hash drops the first field",
        "src/nomc/terms.py",
        'f"    return hash(({own}))\\n"',
        'f"    return hash(({own})[1:])\\n"',
        (TWINS,),
    ),
    Mutant(
        "generated repr swaps the first two fields",
        "src/nomc/terms.py",
        'shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)',
        'shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names[1::-1] + names[2:])',
        (TWINS,),
    ),
    Mutant(
        "a rule's context may name variables its left-hand side does not bind",
        "src/nomc/rewriting.py",
        "loose = (term_vars(rhs) | {c.var for c in context}) - term_vars(lhs)",
        "loose = term_vars(rhs) - term_vars(lhs)",
        ("tests/test_terms.py::TestPlainRecords::test_rules_check_their_variables",),
    ),
    Mutant(
        "a system file shares the problems mapping it was given",
        "src/nomc/parsing.py",
        "problems=MappingProxyType(dict(problems))",
        "problems=MappingProxyType(problems)",
        ("tests/test_terms.py::TestPlainRecords::test_system_files_keep_a_read_only_copy_and_do_not_hash",),
    ),
    Mutant(
        "freshness reads a suspension through rho instead of its inverse",
        "src/nomc/alpha.py",
        "found.append(FreshnessConstraint(sub.perm.inverse().act(atom), sub.var))",
        "found.append(FreshnessConstraint(sub.perm.act(atom), sub.var))",
        ("tests/test_invariance.py::test_freshness_is_equivariant",),
    ),
    Mutant(
        "the linear walk skips the swap under a different binder",
        "src/nomc/rewriting.py",
        "pairs.append((pattern.body, permute_term(Permutation(((pattern.atom, sub.atom),)), sub.body)))",
        "pairs.append((pattern.body, sub.body))",
        ("tests/test_invariance.py::test_rewriting_is_equivariant",),
    ),
    Mutant(
        "rename_atoms skips suspension permutations",
        "src/nomc/rewriting.py",
        "        if not term.perm.swappings:\n            return term\n        act = perm.act\n",
        "        return term\n",
        ("tests/test_rewriting.py::TestRuleValidation::test_renamed_and_shifted_copies_equal_checked_rules",),
    ),
    Mutant(
        "a node's accumulated substitution composes in the wrong order",
        "src/nomc/narrowing.py",
        "composed[e.child] = composed[e.parent].compose(e.step_subst)",
        "composed[e.child] = e.step_subst.compose(composed[e.parent])",
        ("tests/test_narrowing.py::TestSearchPaysForWhatItReturns::test_same_trees_as_the_eager_build",),
    ),
    Mutant(
        "the package does not keep the narrowing names it resolves",
        "src/nomc/__init__.py",
        "    globals().update((n, getattr(narrowing, n)) for n in _NARROWING)\n    return globals()[name]\n",
        "    return getattr(narrowing, name, narrowing)\n",
        ("tests/test_api.py::test_narrowing_names_resolve_to_the_module_and_stay_bound",),
    ),
    Mutant(
        "nomc.cli imports narrowing with the module",
        "src/nomc/cli.py",
        "from .alpha import check_problem, format_context\n",
        "from .alpha import check_problem, format_context\nfrom .narrowing import narrow_search\n",
        (
            "tests/test_terms.py::TestFrozenNodeConstructor::test_import_loads_only_what_it_uses",
            "tests/test_api.py::test_only_narrowing_commands_load_narrowing[check]",
        ),
    ),
    Mutant(
        "a copied system loses its commutative symbols",
        "src/nomc/rewriting.py",
        "return type(self), (self.rules, self.signature)",
        "return type(self), (self.rules, self.signature.without_commutativity())",
        ("tests/test_terms.py::TestPlainRecords::test_loaded_files_copy_and_pickle",),
    ),
    Mutant(
        "alpha-equivalence crosses the arguments of a non-commutative symbol",
        "src/nomc/alpha.py",
        "                s.sym in sig._commutative\n                and derive_alpha_c(ctx, s0, t1, sig)\n",
        "                derive_alpha_c(ctx, s0, t1, sig)\n",
        (
            "tests/test_alpha.py::TestAlphaC::test_commutative_crossed_pairing",
            "tests/test_walkers.py::TestAgainstReference::test_judgements",
        ),
    ),
    Mutant(
        "compose keeps an image that became its own variable",
        "src/nomc/terms.py",
        "            if not (type(image) is Suspension and image.var is var and not image.perm.swappings):\n"
        "                mapping[var] = image\n",
        "            mapping[var] = image\n",
        ("tests/test_walkers.py::TestAgainstReference::test_compose_drops_an_image_that_becomes_its_variable",),
    ),
    Mutant(
        "a fixed-point pair is ordered by descending text",
        "src/nomc/unify.py",
        "return (right, left) if right[0] < left[0] else (left, right)",
        "return (right, left) if right[0] > left[0] else (left, right)",
        ("tests/test_unify.py::TestFixpointClasses::test_equals_the_str_sorted_construction",),
    ),
)


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)


def _pytest(where: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit code on `tests` in the copy at `where` (None on a
    timeout), and the last line of its output."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    missing = []
    for mutant in mutants:
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            missing.append(f"{mutant.name}: its snippet occurs {count} times in {mutant.file}, not once")
    if missing:
        print("\n".join(missing))
        return 1
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        base = Path(tmp) / "unchanged"
        _copy(base)
        code, last = _pytest(base, tuple(dict.fromkeys(t for m in mutants for t in m.tests)))
        print(f"unchanged copy: {last}")
        if code != 0:
            print("the unchanged copy fails its tests, so no mutant can be judged")
            return 1
        for i, mutant in enumerate(mutants):
            where = Path(tmp) / f"mutant{i}"
            _copy(where)
            path = where / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            code, last = _pytest(where, mutant.tests)
            killed = code in (1, None)
            print(f"{'killed' if killed else 'SURVIVED'} ({time.perf_counter() - start:.1f} s): {mutant.name}: {last}")
            if not killed:
                survivors.append(mutant.name)
            shutil.rmtree(where)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
