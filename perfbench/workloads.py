"""The benchmark's three workloads, each a seeded list of checked problems.

A problem's `run` makes the calls into nomc that are timed; `check` compares
what they returned with an answer nomc did not produce: one written out by
hand, one the generator knows by construction, or a shape the benchmark
checks itself. `digest` reduces an answer to plain data, so a traced run can
be compared with an untraced one.

Calls go through `nomc.<name>` at run time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shlex
from dataclasses import dataclass
from typing import Any, Callable

import nomc
import nomc.cli
from nomc.terms import Abstraction, App, Atom, Substitution, Suspension

import gen

EMPTY = frozenset()


@dataclass
class Problem:
    kind: str
    props: dict
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    digest: Callable[[Any], Any] = repr


def load(name: str):
    return nomc.cli.load_system_file(name).system


def _system_atoms(system) -> set:
    out = set()
    for rule in system.rules:
        out |= gen.atoms_of(rule.lhs) | gen.atoms_of(rule.rhs)
        out |= {c.atom for c in rule.context}
    return out


# -- oracle_ground -----------------------------------------------------------

# The oracle rewrites every member of a formula's commutative-and-alpha
# class, so its cost follows (class size x nodes), the cost class. Formulas
# are drawn from criterion 9's stream into cost classes 2^k <= cost < 2^(k+1)
# with a fixed quota per class, so every seed gets the same mix of sizes,
# the median falls inside class 6 and the tail (the 11th slowest of 256)
# among class 9's sixteen formulas. Past class 9 one formula can take 0.3 s
# to 4 s; a few of them would set a run's figures on their own, so the
# stream's formulas beyond it are skipped.
ORACLE_QUOTA = (5, 1, 1, 2, 2, 3, 6, 6, 4, 2)
ORACLE_CYCLES = 8


def oracle_cost_class(formula, system) -> int | None:
    """log2 of (oracle sources x nodes), or None past the last class."""
    commutative = system.signature.commutative_symbols
    props = gen.shape(formula, commutative)
    pool = gen.atoms_of(formula) | _system_atoms(system)
    pool.add(next(Atom(f"n{i}") for i in range(len(pool) + 1) if Atom(f"n{i}") not in pool))
    # 2^(commutative nodes) * |pool|^binders bounds the class size; past
    # 2^11 the class is not enumerated (it would cost megabytes) and the
    # formula is skipped.
    if 2 ** props["comm_nodes"] * len(pool) ** props["binders"] > 2**11:
        return None
    cost = gen.oracle_sources(formula, pool, commutative) * props["nodes"]
    k = cost.bit_length() - 1
    return k if k < len(ORACLE_QUOTA) else None


def criterion9(seed: int, count: int, system):
    """(formula, =ac partner) pairs exactly as criterion 9 draws them."""
    rng = random.Random(seed)
    commutative = system.signature.commutative_symbols
    for _ in range(count):
        formula = gen.prenex_formula(rng, 4)
        yield formula, gen.ac_variant(rng, EMPTY, formula, commutative)


def oracle_problem(formula, partner, system, cost_class: int) -> Problem:
    props = dict(gen.shape(formula, system.signature.commutative_symbols), cost_class=cost_class)

    def run():
        agree = nomc.normal_form_equal_check(EMPTY, formula, system, 10)
        (verdict,) = nomc.coherence_check(system, [(EMPTY, formula, partner)], 10)
        return agree, verdict.status

    return Problem("prenex", props, run, lambda out: out == (True, nomc.WITNESSED))


def oracle_ground(seed: int) -> list[Problem]:
    system = load("prenex")
    classes: list[list[Problem]] = [[] for _ in ORACLE_QUOTA]
    for formula, partner in criterion9(seed, 10**6, system):
        k = oracle_cost_class(formula, system)
        if k is not None and len(classes[k]) < ORACLE_QUOTA[k] * ORACLE_CYCLES:
            classes[k].append(oracle_problem(formula, partner, system, k))
        if all(len(c) == q * ORACLE_CYCLES for c, q in zip(classes, ORACLE_QUOTA)):
            break
    problems = []
    for cycle in range(ORACLE_CYCLES):
        for members, quota in zip(classes, ORACLE_QUOTA):
            problems.extend(members[cycle * quota : (cycle + 1) * quota])
    return problems


# -- narrow_lift --------------------------------------------------------------

NARROW_CYCLES = 4


def _edge_digest(tree):
    return [(e.rule, str(e.position), str(e.step_subst), str(e.child), e.used_fixpoint_enumeration) for e in tree.edges]


def _tree_sound(tree, depth, fixpoint_depth, max_unifiers, sound) -> bool:
    record = tree.truncation
    if (record.depth, record.fixpoint_depth, record.max_unifiers) != (depth, fixpoint_depth, max_unifiers):
        return False
    nodes = set(map(id, tree.nodes()))
    return all(id(e.parent) in nodes and e.child.depth <= depth for e in tree.edges) and all(sound)


def _criterion5_children(tree) -> bool:
    """Criterion 5's children of h(fC([b][a]X, X)), written out by hand."""
    root = [e for e in tree.edges if e.parent is tree.root]
    if not root or root[0].rule != "collapse" or str(root[0].child.term) != "fC([b][a]X, X)":
        return False
    level2 = [e for e in tree.edges if e.parent is root[0].child and e.rule == "swap_abs"]
    if not level2 or not all(e.used_fixpoint_enumeration for e in level2):
        return False
    x = nomc.Var("X")
    images = {(str(e.step_subst.get(x)), nomc.format_context(e.child.context)) for e in level2}
    return {("X", "a#X, b#X"), ("oplus(a, b)", "{}"), ("oplus(oplus(a, b), oplus(a, b))", "{}")} <= images


def fixpoint_problem(term, system) -> Problem:
    """Kind (a): residual fixed points expanded through the enumerator."""
    sig = system.signature
    depth, fixpoint_depth, max_unifiers = 2, 2, 40
    inner = term.args[0]

    def run():
        tree = nomc.narrow_search(EMPTY, term, system, depth, fixpoint_depth, max_unifiers)
        return tree, [nomc.narrowing_to_rewriting(e, e.parent, sig=sig) for e in tree.edges]

    def check(out):
        tree, sound = out
        root = [e for e in tree.edges if e.parent is tree.root]
        return (
            _tree_sound(tree, depth, fixpoint_depth, max_unifiers, sound)
            and bool(root)
            and (root[0].rule, str(root[0].position), str(root[0].child.term)) == ("collapse", "root", str(inner))
            and any(e.used_fixpoint_enumeration for e in tree.edges)
            and (str(term) != "h(fC([b][a]X, X))" or _criterion5_children(tree))
        )

    return Problem("fixpoint", gen.shape(term, sig.commutative_symbols), run, check, lambda out: (_edge_digest(out[0]), out[1]))


def pattern_problem(pattern, system) -> Problem:
    """Kind (b): prenex patterns narrowed with fixed-point depth 0."""
    sig = system.signature
    depth, fixpoint_depth, max_unifiers = 2, 0, 50
    expect_edges = gen.redex_positions(pattern) > 0

    def run():
        tree = nomc.narrow_search(EMPTY, pattern, system, depth, fixpoint_depth, max_unifiers)
        return tree, [nomc.narrowing_to_rewriting(e, e.parent, sig=sig) for e in tree.edges]

    def check(out):
        tree, sound = out
        root_edges = any(e.parent is tree.root for e in tree.edges)
        return _tree_sound(tree, depth, fixpoint_depth, max_unifiers, sound) and root_edges == expect_edges

    props = dict(gen.shape(pattern, sig.commutative_symbols), redex_positions=gen.redex_positions(pattern))
    return Problem("pattern", props, run, check, lambda out: (_edge_digest(out[0]), out[1]))


def _pattern_vars(term) -> list:
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Suspension):
            if t.var not in out:
                out.append(t.var)
        elif isinstance(t, Abstraction):
            stack.append(t.body)
        elif isinstance(t, App):
            stack.extend(t.args)
    return sorted(out, key=lambda v: v.name)


def _instantiate(term, images):
    """Capturing first-order instantiation of identity suspensions."""
    if isinstance(term, Suspension):
        return images[term.var]
    if isinstance(term, Abstraction):
        return Abstraction(term.atom, _instantiate(term.body, images))
    if isinstance(term, App):
        return App(term.sym, tuple(_instantiate(a, images) for a in term.args))
    return term


def lifting_problem(rng: random.Random, system) -> Problem:
    """Kind (c): criterion 11's round trip, normalise then lift back and
    forward; images are prenex forms, so normal by construction."""
    sig = system.signature
    while True:
        pattern = gen.prenex_pattern(rng, 3)
        images = {v: gen.prenex_normal_formula(rng, rng.randint(0, 2), 2) for v in _pattern_vars(pattern)}
        start = _instantiate(pattern, images)
        quantifiers = gen.quantifier_count(start)
        if quantifiers <= 3 and not gen.is_prenex(start, quantifiers):
            break
    rho0 = Substitution(images)
    props = dict(gen.shape(start, sig.commutative_symbols), quantifiers=quantifiers)

    def run():
        nf, trace = nomc.normalize(EMPTY, start, system, 30)
        lifted = nomc.lifting_backward_construct(EMPTY, pattern, rho0, EMPTY, trace, 1, system)
        if isinstance(lifted, nomc.NotFound):
            return nf, trace, lifted, None
        steps, residue = lifted
        return nf, trace, lifted, nomc.lifting_forward_check(steps, residue, EMPTY, sig)

    def check(out):
        nf, trace, lifted, forward = out
        return (
            gen.is_prenex(nf, quantifiers)
            and not isinstance(lifted, nomc.NotFound)
            and len(lifted[0]) == len(trace)
            and forward is True
        )

    def digest(out):
        nf, trace, lifted, forward = out
        steps = None if isinstance(lifted, nomc.NotFound) else [(s.rule, str(s.position), str(s.step_subst)) for s in lifted[0]]
        return str(nf), [(s.rule, str(s.position), str(s.result)) for s in trace], steps, repr(forward)

    return Problem("lifting", props, run, check, digest)


def narrow_lift(seed: int) -> list[Problem]:
    """Kind (a) costs by binder pair: (b, a), criterion 5's pair, 60 to 95 ms;
    (a, c) and (c, b) 25 to 65 ms; (b, c) and (c, a) 350 to 600 ms, and the
    wrapper moves each by up to half. Each cycle has (b, a) under every
    wrapper, then (b, a), (a, c) and (c, b) under the cycle's wrapper, and
    every other cycle one costly pair under a fixed wrapper: the seed picks
    only variables, atoms and order, so the costs stay put. The tail (the
    11th slowest) falls inside the twenty (b, a) terms. The first (b, a) bare
    term is criterion 5's h(fC([b][a]X, X)), whose children are checked by
    hand.

    Each kind-(a) problem is followed by four kind-(b) patterns, two with
    one redex position and two with two, and one kind-(c) problem. Kind-(b)
    cost follows its redex positions (about 3 ms for one, 10 ms for two),
    so the median falls among the two-position patterns. Patterns without a
    redex position and kind-(c) instances already in normal form take
    microseconds, and kind-(c) instances with more than three quantifiers
    take up to 200 ms; these are drawn again."""
    rng = random.Random(seed)
    prenex, ex22 = load("prenex"), load("ex22")
    a, b, c = gen.ATOMS[:3]
    costly = {0: ((b, c), "fC"), 2: ((c, a), "oplus")}
    problems = []
    for cycle in range(NARROW_CYCLES):
        turn = gen.WRAPPERS[cycle % len(gen.WRAPPERS)]
        fixpoints = [((b, a), w) for w in gen.WRAPPERS] + [((b, a), turn), ((a, c), turn), ((c, b), turn)]
        if cycle in costly:
            fixpoints.append(costly[cycle])
        rng.shuffle(fixpoints)
        for pair, wrapper in fixpoints:
            if cycle == 0 and (pair, wrapper) == ((b, a), "bare"):
                term = nomc.parse_term("h(fC([b][a]X, X))", ex22.signature)
            else:
                term = gen.fixpoint_term(rng, pair, wrapper)
            problems.append(fixpoint_problem(term, ex22))
            for redexes in (1, 1, 2, 2):
                pattern = gen.prenex_pattern(rng, 3)
                while gen.redex_positions(pattern) != redexes:
                    pattern = gen.prenex_pattern(rng, 3)
                problems.append(pattern_problem(pattern, prenex))
            problems.append(lifting_problem(rng, prenex))
    return problems


# -- cli_problems -------------------------------------------------------------

BUNDLED = ("prenex", "ex22", "lambda")


def _steps(result):
    return [(s["rule"], s["position"], s["result"]) for s in result["steps"]]


def _edges(result):
    return [(e["from"], e["rule"], e["position"]) for e in result["edges"]]


def _criterion5_json(result) -> bool:
    """Criterion 5's children of h(fC([b][a]X, X)) in a `narrow --json` report."""
    nodes, edges = result["nodes"], result["edges"]
    level2 = [e for e in edges if e["from"] == 1]
    images = {(e["subst"].split(", Z1 ->")[0], nodes[e["to"]]["context"]) for e in level2}
    return (
        (edges[0]["rule"], edges[0]["position"], edges[0]["subst"]) == ("collapse", "root", "[Y0 -> fC([b][a]X, X)]")
        and nodes[1]["term"] == "fC([b][a]X, X)"
        and bool(level2)
        and all(e["rule"] == "swap_abs" and e["fixpoint"] for e in level2)
        and {("[Z1 -> X]", "a#X, b#X"), ("[X -> oplus(a, b)", "{}"), ("[X -> oplus(oplus(a, b), oplus(a, b))", "{}")} <= images
        and result["truncation"] == {"depth": 2, "fixpoint_depth": 2, "max_unifiers": 50, "nodes_truncated": 0}
    )


# Expected answers, written out by hand, for the bundled `problems:` entries
# (by system and name) and for the README's command examples (in order).
BUNDLED_EXPECTED: dict[tuple[str, str], Callable[[dict], bool]] = {
    ("prenex", "one_step"): lambda r: _steps(r)[0] == ("or_exists", "1", "or(S1, exists([a]or(P1, Q1)))")
    and {s[2] for s in _steps(r)}
    == {"or(S1, exists([a]or(P1, Q1)))", "or(exists([a]or(P1, Q1)), S1)", "or(S1, exists([a]or(Q1, P1)))", "or(exists([a]or(Q1, P1)), S1)"},
    ("prenex", "two_quantifiers"): lambda r: [e[1:3] for e in _edges(r) if e[0] == 0]
    == [("and_forall", "root"), ("and_exists", "root"), ("not_forall", "1")],
    ("prenex", "ground_normalize"): lambda r: r["normal_form"] == "exists([a]and(R, not(forall([b](a b).R))))"
    and [s[:2] for s in _steps(r)] == [("not_forall", "1"), ("and_exists", "root")],
    ("ex22", "plain_unifier"): lambda r: [(s["subst"], s["residual"]) for s in r["solutions"]] == [("[Y -> fC([b][a]X, X)]", [])],
    ("ex22", "fixpoint_unifier"): lambda r: [(s["subst"], s["residual"]) for s in r["solutions"]] == [("[Z -> X]", ["(a b).X =ac X"])],
    ("ex22", "branching_tree"): _criterion5_json,
    ("lambda", "binder_rename"): lambda r: r["derivable"] is True,
}

README_EXPECTED: tuple[Callable[[dict], bool], ...] = (
    lambda r: r["derivable"] is True,
    BUNDLED_EXPECTED[("ex22", "plain_unifier")],
    BUNDLED_EXPECTED[("ex22", "fixpoint_unifier")],
    lambda r: [(s["context"], s["subst"]) for s in r["solutions"]] == [("a#P1", "[P -> P1, Q -> Q1]")],
    BUNDLED_EXPECTED[("prenex", "one_step")],
    BUNDLED_EXPECTED[("prenex", "ground_normalize")],
    lambda r: [v["status"] for v in r["verdicts"]] == ["WITNESSED"],
    _criterion5_json,
    lambda r: r["status"] == "ok" and [(s["rule"], s["position"]) for s in r["derivation"]] == [("not_forall", "1"), ("and_exists", "root")],
    lambda r: r["status"] == "ok" and r["rho_n"] == "Id" and [(s["rule"], s["position"]) for s in r["steps"]] == [("not_forall", "root")],
)

README_COMMANDS = (
    'check --context "a#X, b#X, c#X" "lam([a]app(a, X)) =ac lam([b]app(b, (a c).X))"',
    'unify "h(Y)" "h(fC([b][a]X, X))" --system ex22',
    'unify "fC([a][b]Z, Z)" "fC([b][a]X, X)" --system ex22',
    'match "or(P, exists([a]Q))" "or(exists([a]Q1), P1)" --system prenex --context "a#P, a#P1"',
    'rewrite "or(S1, or(exists([a]Q1), P1))" --system prenex --context "a#P1"',
    'normalize "and(R, not(forall([b]forall([a]R))))" --system prenex --context "a#R"',
    'coherence "or(not(forall([a]Q1)), P1)" "or(P1, not(forall([a]Q1)))" --system prenex',
    'narrow "h(fC([b][a]X, X))" --system ex22 --depth 2 --fixpoint-depth 2',
    'lift-forward "and(P1, not(forall([b]Q1)))" --system prenex --rho "Q1 -> forall([a]R), P1 -> R" --target-context "a#R" --depth 2 --path "2,1"',
    'lift-backward "not(forall([a]Q))" --system prenex --rho "Q -> b"',
)

# The two inputs ROADMAP item 4 reproduced; each runs in a child process
# killed at PROBE_DEADLINE_S seconds.
DEFECT_PROBES = (
    ("deep_check", ["check", "--system", "ex22", f"{gen.deep_term(3000)} =ac {gen.deep_term(3000)}", "--json"]),
    ("fixpoint_depth_3", ["narrow", "h(fC([b][a]X, X))", "--system", "ex22", "--depth", "2", "--fixpoint-depth", "3", "--json"]),
)
PROBE_DEADLINE_S = 5.0


def cli_problem(kind: str, argv: list[str], expect: Callable[[dict], bool], props: dict | None = None) -> Problem:
    argv = argv + ["--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nomc.cli.run_command(argv)
        return code, out.getvalue()

    def check(out):
        code, text = out
        return code == 0 and expect(json.loads(text)["result"])

    def digest(out):
        code, text = out
        report = json.loads(text)
        report.pop("timing_ms")
        return code, report

    return Problem(kind, dict(props or {}, argv=shlex.join(argv)), run, check, digest)


_PREFIX = re.compile(r"^(forall|exists)\(\[\w+\]")


def prenex_string(text: str, quantifiers: int) -> bool:
    """The prenex-shape check on printed output: a quantifier prefix whose
    matrix mentions no quantifier, with the input's quantifier count."""
    prefix = 0
    while match := _PREFIX.match(text):
        if not text.endswith(")"):
            return False
        text = text[match.end() : -1]
        prefix += 1
    return prefix == quantifiers and "forall(" not in text and "exists(" not in text


def _generated(rng: random.Random, prenex, lam) -> list[Problem]:
    problems = []
    pc = prenex.signature.commutative_symbols
    # check: =ac variants are derivable, one changed leaf is not.
    for _ in range(10):
        s = gen.prenex_formula(rng, 4)
        t = gen.ac_variant(rng, EMPTY, s, pc)
        props = gen.shape(s, pc)
        problems.append(cli_problem("check", ["check", f"{s} =ac {t}", "--system", "prenex"], lambda r: r["derivable"] is True, props))
        u = gen.change_one_leaf(rng, t)
        problems.append(cli_problem("check", ["check", f"{s} =ac {u}", "--system", "prenex"], lambda r: r["derivable"] is False, props))
    for _ in range(14):
        ctx = frozenset(nomc.FreshnessConstraint(a, v) for a in gen.ATOMS[:3] for v in gen.VARS if rng.random() < 0.6)
        s = _lambda_term(rng, 4)
        t = gen.ac_variant(rng, ctx, s, ())
        context = nomc.format_context(ctx) if ctx else ""
        problems.append(
            cli_problem("check", ["check", f"{s} =ac {t}", "--system", "lambda", "--context", context], lambda r: r["derivable"] is True, gen.shape(s, ()))
        )
    # normalize: the normal form is prenex with the input's quantifier count.
    for _ in range(13):
        s = gen.prenex_formula(rng, 3)
        n = gen.quantifier_count(s)
        problems.append(
            cli_problem("normalize", ["normalize", str(s), "--system", "prenex"], lambda r, n=n: prenex_string(r["normal_form"], n), gen.shape(s, pc))
        )
    # rewrite: a single root redex whose plain result is known.
    for _ in range(13):
        m1 = gen.quantifier_free(rng, 2, list(gen.ATOMS[1:3]))
        m2 = gen.quantifier_free(rng, 2, list(gen.ATOMS[:3]))
        q = rng.choice(gen.QUANTIFIERS)
        if rng.random() < 0.5:
            term = App("not", (App(q, (Abstraction(Atom("a"), m2),)),))
            rule = f"not_{q}"
            dual = "exists" if q == "forall" else "forall"
            expected = App(dual, (Abstraction(Atom("a"), App("not", (m2,))),))
        else:
            op = rng.choice(gen.CONNECTIVES)
            term = App(op, (m1, App(q, (Abstraction(Atom("a"), m2),))))
            rule = f"{op}_{q}"
            expected = App(q, (Abstraction(Atom("a"), App(op, (m1, m2))),))

        def expect(r, rule=rule, expected=str(expected)):
            steps = _steps(r)
            return bool(steps) and steps[0][2] == expected and all(s[:2] == (rule, "root") for s in steps)

        problems.append(cli_problem("rewrite", ["rewrite", str(term), "--system", "prenex"], expect, gen.shape(term, pc)))
    return problems


def _lambda_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Suspension(nomc.Permutation(), rng.choice(gen.VARS))
        return rng.choice(gen.ATOMS[:3])
    kind = rng.choice(("abs", "lam", "app"))
    if kind == "abs":
        return Abstraction(rng.choice(gen.ATOMS[:3]), _lambda_term(rng, depth - 1))
    if kind == "lam":
        return App("lam", (_lambda_term(rng, depth - 1),))
    return App("app", (_lambda_term(rng, depth - 1), _lambda_term(rng, depth - 1)))


# Ten cycles of the 17 fixed and 60 generated requests: the two `narrow`
# requests are the slowest, so the tail (the 11th slowest of 770) falls amid
# their twenty runs.
CLI_CYCLES = 10


def cli_problems(seed: int) -> list[Problem]:
    rng = random.Random(seed)
    fixed = []
    for name in BUNDLED:
        for problem, text in nomc.cli.load_system_file(name).problems.items():
            argv = shlex.split(text) + ["--system", name]
            fixed.append(cli_problem("bundled", argv, BUNDLED_EXPECTED[(name, problem)]))
    for command, expect in zip(README_COMMANDS, README_EXPECTED):
        fixed.append(cli_problem("readme", shlex.split(command), expect))
    prenex, lam = load("prenex"), load("lambda")
    problems = []
    for _ in range(CLI_CYCLES):
        problems.extend(fixed)
        problems.extend(_generated(rng, prenex, lam))
    return problems


WORKLOADS = {
    "oracle_ground": oracle_ground,
    "narrow_lift": narrow_lift,
    "cli_problems": cli_problems,
}
