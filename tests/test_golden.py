"""Golden narrowing edges, and the commands `tests/test_cli_golden.py` pins.

`tests/data/golden.json` pins narrowing edges with the renamed rule
instances they used, which refactors of the redex enumeration must not
change. The command lists below (every bundled `problems:` line, the
README commands, and `normalize` under small `--max-states` caps) are run
and pinned by `tests/test_cli_golden.py`. Regenerate only when an answer is
meant to change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden.json
"""

from __future__ import annotations

import json
from pathlib import Path

from nomc import narrow_search, parse_context, parse_term
from nomc.cli import load_system_file

DATA = Path(__file__).resolve().parent / "data" / "golden.json"

BUNDLED = ("prenex", "ex22", "lambda")

README_COMMANDS = (
    ["check", "--context", "a#X, b#X, c#X", "lam([a]app(a, X)) =ac lam([b]app(b, (a c).X))"],
    ["unify", "h(Y)", "h(fC([b][a]X, X))", "--system", "ex22"],
    ["unify", "fC([a][b]Z, Z)", "fC([b][a]X, X)", "--system", "ex22"],
    ["match", "or(P, exists([a]Q))", "or(exists([a]Q1), P1)", "--system", "prenex", "--context", "a#P, a#P1"],
    ["rewrite", "or(S1, or(exists([a]Q1), P1))", "--system", "prenex", "--context", "a#P1"],
    ["normalize", "and(R, not(forall([b]forall([a]R))))", "--system", "prenex", "--context", "a#R"],
    ["coherence", "or(not(forall([a]Q1)), P1)", "or(P1, not(forall([a]Q1)))", "--system", "prenex"],
    ["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--depth", "2", "--fixpoint-depth", "2"],
    [
        "lift-forward", "and(P1, not(forall([b]Q1)))", "--system", "prenex",
        "--rho", "Q1 -> forall([a]R), P1 -> R", "--target-context", "a#R", "--depth", "2", "--path", "2,1",
    ],
    ["lift-backward", "not(forall([a]Q))", "--system", "prenex", "--rho", "Q -> b"],
)

# (system, context, term, depth, fixpoint depth, unifiers per node)
NARROW_CASES = (
    ("ex22", "", "h(fC([b][a]X, X))", 2, 2, 50),
    ("ex22", "", "h(fC([b][a]X, X))", 2, 1, 3),
    ("ex22", "", "fC([a][b]Z, Z)", 2, 1, 50),
    ("ex22", "", "h(h(fC(X, Y)))", 2, 1, 50),
    ("prenex", "a#P1", "and(P1, not(forall([b]Q1)))", 2, 1, 50),
    # two residual equations on one variable: the second is checked against
    # the first's binding, not enumerated again
    ("ex22", "", "fC([a][b]fC(V, (a b).V), fC((d c)(b a).V, V))", 1, 2, 1000),
)

# Ground prenex formulas whose first redex comes before a commutative
# subterm, so a scan that stops at the first redex skips matches the full
# scan makes.
NORMALIZE_TERMS = (
    "or(not(forall([a]a)), and(b, or(c, exists([b]b))))",
    "and(forall([a]not(a)), or(and(b, c), or(c, b)))",
    "not(exists([a]and(or(a, b), and(c, forall([b]b)))))",
)
MAX_STATES = range(1, 30)


def collect_narrowing() -> list[dict]:
    out = []
    for name, context, text, depth, fixpoint_depth, max_unifiers in NARROW_CASES:
        system = load_system_file(name).system
        sig = system.signature
        tree = narrow_search(
            parse_context(context, sig), parse_term(text, sig), system, depth, fixpoint_depth, max_unifiers
        )
        edges = [
            [e.rule, str(e.position), str(e.step_subst), str(e.child), str(e.rule_instance), e.used_fixpoint_enumeration]
            for e in tree.edges
        ]
        out.append({"case": [name, context, text, depth, fixpoint_depth, max_unifiers], "edges": edges,
                    "nodes_truncated": tree.truncation.nodes_truncated})
    return out


def collect() -> dict:
    return {"narrowing": collect_narrowing()}


def _golden(section: str):
    return json.loads(DATA.read_text(encoding="utf-8"))[section]


def _plain(value):
    return json.loads(json.dumps(value))


def test_narrowing_edges_match_golden():
    assert _plain(collect_narrowing()) == _golden("narrowing")


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, sort_keys=True))
