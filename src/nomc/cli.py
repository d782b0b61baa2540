"""Command-line interface: judgement checking, unification, matching,
rewriting, narrowing, and the lifting correspondence checks.

Exit codes: 0 for any definitive answer (including "not derivable" and
"no match") and for --help, 1 for user errors (including usage errors and
input nested too deeply for the recursive parser, judgements and printer),
2 when a search or step bound was exhausted.

A command computes its answer and hands back two renderers, one for the
`--json` payload and one for the plain text; a request runs only the one it
prints.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Callable

from .alpha import check_problem, format_context
from .narrowing import (
    NarrowingStep,
    NarrowingTree,
    PRECONDITION_FAIL,
    lifting_backward_construct,
    lifting_forward_check,
    narrow_search,
    TruncationRecord,
    NotFound,
)
from .parsing import (
    SystemFile,
    parse_context,
    parse_judgement,
    parse_substitution,
    parse_system,
    parse_term,
)
from .rewriting import (
    RewriteStep,
    StepLimitExceeded,
    coherence_check,
    normalize,
    one_step_rewrites,
)
from .terms import Printer, Signature, Suspension, apply_subst, term_vars
from .unify import DEFAULT_MAX_STATES, CSolution, SearchSpaceExceeded, match, solve

_BUNDLED = ("prenex.nrs", "ex22.nrs", "lambda.nrs")


class UserError(Exception):
    def __init__(self, message: str, truncation: dict | None = None):
        super().__init__(message)
        self.truncation = truncation  # the record of a cut that caused the error


# A command's answer, unrendered: one callable builds its JSON payload, the
# other its plain-text report. A request calls only the one it prints. A
# renderer prints its terms and substitutions through one `Printer` that it
# makes and drops, so a subterm the report shares is written at most twice.
Report = tuple[Callable[[], dict], Callable[[], str]]


@functools.cache
def _bundled(name: str) -> SystemFile:
    return parse_system((Path(__file__).parent / "systems" / name).read_text(encoding="utf-8"))


def load_system_file(spec: str) -> SystemFile:
    """Load a bundled system by bare name (`prenex` or `prenex.nrs`), or else
    a system file by path. A bare bundled name always means the bundled
    system; a local file of that name loads as `./prenex.nrs`.

    Each bundled system is read and parsed once per process, and every load
    returns that same read-only object. A path is re-read on every call,
    since the file can change between calls."""
    name = spec if spec.endswith(".nrs") else f"{spec}.nrs"
    if name in _BUNDLED:
        return _bundled(name)
    path = Path(spec)
    try:
        if path.exists():
            return parse_system(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UserError(f"cannot read system file: {spec} ({exc.strerror})") from exc
    raise UserError(f"no such system file: {spec} (bundled: {', '.join(_BUNDLED)})")


def _listing(heading: str, items) -> str:
    return "\n".join([f"{len(items)} {heading}"] + [f"  {item}" for item in items])


def _steps_payload(steps: tuple[RewriteStep, ...], printer: Printer) -> list[dict]:
    return [
        {
            "rule": s.rule,
            "position": str(s.position),
            "subst": printer.subst(s.subst),
            "result": printer.term(s.result),
        }
        for s in steps
    ]


def _derivation_payload(steps: list[NarrowingStep], printer: Printer) -> list[dict]:
    return [{"rule": s.rule, "position": str(s.position), "subst": printer.subst(s.step_subst)} for s in steps]


def _solutions_payload(solutions: tuple[CSolution, ...]) -> list[dict]:
    printer = Printer()
    out = []
    for sol in solutions:
        out.append(
            {
                "context": format_context(sol.context),
                "subst": printer.subst(sol.subst),
                "residual": [
                    f"{Suspension(p, v)} =ac {v}" for p, v in sol.residual_fixpoints
                ],
                "fixpoint_discharged": sol.protected_fixpoint_discharged,
            }
        )
    return out


def _truncation_payload(truncation: TruncationRecord) -> dict:
    """The record's fields by name, in order."""
    return {name: getattr(truncation, name) for name in truncation.__slots__}


def _tree_payload(tree: NarrowingTree) -> dict:
    accumulated = tree.accumulated()
    index = {id(n): i for i, n in enumerate(accumulated)}
    printer = Printer()
    return {
        "nodes": [
            {
                "id": i,
                "depth": n.depth,
                "context": format_context(n.context),
                "term": printer.term(n.term),
                "accumulated": printer.subst(theta),
            }
            for i, (n, theta) in enumerate(accumulated.items())
        ],
        "edges": [
            {
                "from": index[id(e.parent)],
                "to": index[id(e.child)],
                "rule": e.rule,
                "position": str(e.position),
                "subst": printer.subst(e.step_subst),
                "fixpoint": e.used_fixpoint_enumeration,
            }
            for e in tree.edges
        ],
        "truncation": _truncation_payload(tree.truncation),
    }


def _narrow(args, system, ctx, term) -> NarrowingTree:
    return narrow_search(
        ctx, term, system, args.depth, args.fixpoint_depth, args.max_unifiers,
        max_states=args.max_states,
    )


def _path_index(entry: str) -> int:
    # int() would also take "1_0", "+1", " 1" and non-ASCII digits.
    if not (entry.isascii() and entry.isdigit()):
        raise UserError(f"--path entry {entry!r} is not an integer")
    return int(entry)


def _select_path(tree: NarrowingTree, spec: str) -> list[NarrowingStep]:
    """Follow 0-based child indices level by level; empty spec means leftmost path."""
    indices = [_path_index(p) for p in spec.split(",")] if spec else itertools.repeat(0)
    derivation: list[NarrowingStep] = []
    node = tree.root
    for level, index in enumerate(indices):
        children = tree.children(node)
        if not children:
            break
        if not 0 <= index < len(children):
            message = f"path index {index} out of range at level {level}"
            if tree.truncation.nodes_truncated:
                raise UserError(f"{message}; {_cut_note(tree.truncation)}", _truncation_payload(tree.truncation))
            raise UserError(message)
        derivation.append(children[index])
        node = children[index].child
    return derivation


def _cmd_check(args, system, sig, ctx) -> Report:
    goal = parse_judgement(args.judgement, sig)
    derivable = check_problem(ctx, (goal,), sig)
    return (
        lambda: {"judgement": str(goal), "derivable": derivable},
        lambda: "derivable" if derivable else "not derivable",
    )


def _cmd_unify(args, system, sig, ctx) -> Report:
    left = parse_term(args.left, sig)
    right = parse_term(args.right, sig)
    solutions = solve(ctx, right, frozenset(), left, sig=sig, max_states=args.max_states)
    return (
        lambda: {"solutions": _solutions_payload(solutions)},
        lambda: _listing("solution(s)", solutions),
    )


def _cmd_match(args, system, sig, ctx) -> Report:
    pattern = parse_term(args.pattern, sig)
    subject = parse_term(args.subject, sig)
    pattern_vars = term_vars(pattern)
    nabla = frozenset(c for c in ctx if c.var in pattern_vars)
    solutions = match(nabla, pattern, ctx - nabla, subject, sig=sig, max_states=args.max_states)
    return (
        lambda: {"solutions": _solutions_payload(solutions)},
        lambda: _listing("match(es)", solutions),
    )


def _cmd_rewrite(args, system, sig, ctx) -> Report:
    term = parse_term(args.term, sig)
    steps = one_step_rewrites(ctx, term, system, max_states=args.max_states)
    return lambda: {"steps": _steps_payload(steps, Printer())}, lambda: _rewrite_listing(steps)


def _rewrite_listing(steps: tuple[RewriteStep, ...]) -> str:
    printer = Printer()
    return _listing("step(s)", [s.show(printer) for s in steps])


def _cmd_normalize(args, system, sig, ctx) -> Report:
    term = parse_term(args.term, sig)
    nf, trace = normalize(ctx, term, system, args.max_steps, max_states=args.max_states)

    def payload() -> dict:
        printer = Printer()
        return {"normal_form": printer.term(nf), "steps": _steps_payload(trace, printer), "count": len(trace)}

    return payload, lambda: f"{nf}\n{len(trace)} step(s)"


def _cmd_coherence(args, system, sig, ctx) -> Report:
    t1 = parse_term(args.left, sig)
    t2 = parse_term(args.right, sig)
    verdicts = coherence_check(system, [(ctx, t1, t2)], args.max_steps, max_states=args.max_states)
    return (
        lambda: {"verdicts": [{"index": v.index, "status": v.status, "detail": v.detail} for v in verdicts]},
        lambda: verdicts[0].status,
    )


def _cut_note(truncation: TruncationRecord) -> str:
    return f"--max-unifiers {truncation.max_unifiers} cut off steps at {truncation.nodes_truncated} node(s)"


def _narrow_listing(tree: NarrowingTree, depth: int) -> str:
    printer = Printer()
    lines = [f"{len(tree.edges)} narrowing step(s) to depth {depth}"]
    if tree.truncation.nodes_truncated:
        lines.append(_cut_note(tree.truncation))
    for edge in tree.edges:
        flag = " [fixpoint]" if edge.used_fixpoint_enumeration else ""
        lines.append(f"  {edge.rule} @ {edge.position} with {printer.subst(edge.step_subst)}{flag}")
        lines.append(f"    ~> {edge.child.show(printer)}")
    return "\n".join(lines)


def _cmd_narrow(args, system, sig, ctx) -> Report:
    tree = _narrow(args, system, ctx, parse_term(args.term, sig))
    return lambda: _tree_payload(tree), lambda: _narrow_listing(tree, args.depth)


def _cmd_lift_forward(args, system, sig, ctx) -> Report:
    target = parse_context(args.target_context, sig)
    term = parse_term(args.term, sig)
    rho = parse_substitution(args.rho, sig)
    tree = _narrow(args, system, ctx, term)
    derivation = _select_path(tree, args.path)
    outcome = lifting_forward_check(derivation, rho, target, sig)
    if outcome is PRECONDITION_FAIL:
        status = "precondition_fail"
    else:
        status = "ok" if outcome else "failed"
    return (
        lambda: {
            "status": status,
            "derivation": _derivation_payload(derivation, Printer()),
            # The record of the tree the path follows, as `narrow` reports it.
            "truncation": _truncation_payload(tree.truncation),
        },
        lambda: status,
    )


def _cmd_lift_backward(args, system, sig, ctx) -> Report:
    target = parse_context(args.target_context, sig)
    term = parse_term(args.term, sig)
    rho = parse_substitution(args.rho, sig)
    _, trace = normalize(target, apply_subst(rho, term), system, args.max_steps, max_states=args.max_states)
    outcome = lifting_backward_construct(ctx, term, rho, target, trace, 0, system, max_states=args.max_states)
    if isinstance(outcome, NotFound):
        return (
            lambda: {"status": "not_found", "step_index": outcome.step_index},
            lambda: f"not found at step {outcome.step_index}",
        )
    steps, rho_n = outcome

    def payload() -> dict:
        printer = Printer()
        return {"status": "ok", "steps": _derivation_payload(steps, printer), "rho_n": printer.subst(rho_n)}

    return (
        payload,
        lambda: f"ok: {len(steps)} narrowing step(s), residue {rho_n}",
    )


_COMMANDS = {
    "check": _cmd_check,
    "unify": _cmd_unify,
    "match": _cmd_match,
    "rewrite": _cmd_rewrite,
    "normalize": _cmd_normalize,
    "coherence": _cmd_coherence,
    "narrow": _cmd_narrow,
    "lift-forward": _cmd_lift_forward,
    "lift-backward": _cmd_lift_backward,
}
# check, unify and match run over the empty signature without a system.
_NEEDS_SYSTEM = frozenset(_COMMANDS) - {"check", "unify", "match"}


def _bound(text: str) -> int:
    """A search or step bound: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", help="system file path or bundled name")
    sub.add_argument("--context", default="", help='freshness context, e.g. "a#X, b#Y"')
    sub.add_argument("--json", action="store_true", help="machine-readable report")
    sub.add_argument("--max-states", type=_bound, default=DEFAULT_MAX_STATES, help="solver state cap")


def _add_narrowing(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--depth", type=_bound, default=2)
    sub.add_argument("--fixpoint-depth", type=_bound, default=1)
    sub.add_argument("--max-unifiers", type=_bound, default=50)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    """The `nomc` parser and its command parsers by name, built on first use
    and then shared: `parse_args` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="nomc",
        description="Nominal rewriting and narrowing modulo commutativity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a freshness or =ac judgement")
    _add_common(p)
    p.add_argument("judgement", help='e.g. "a # f(b)" or "s =ac t"')

    p = sub.add_parser("unify", help="solve l =ac? s")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("match", help="match a pattern against a protected subject")
    _add_common(p)
    p.add_argument("pattern")
    p.add_argument("subject")

    p = sub.add_parser("rewrite", help="all one-step rewrites")
    _add_common(p)
    p.add_argument("term")

    p = sub.add_parser("normalize", help="rewrite to normal form")
    _add_common(p)
    p.add_argument("term")
    p.add_argument("--max-steps", type=_bound, default=1000)

    p = sub.add_parser("coherence", help="probe the coherence diagram on a sample pair")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-steps", type=_bound, default=10)

    p = sub.add_parser("narrow", help="bounded narrowing tree")
    _add_common(p)
    p.add_argument("term")
    _add_narrowing(p)

    p = sub.add_parser("lift-forward", help="instantiate a narrowing path into rewriting")
    _add_common(p)
    p.add_argument("term")
    p.add_argument("--rho", default="", help='substitution, e.g. "X -> a, Y -> f(b)"')
    p.add_argument("--target-context", default="", help="context the instance lives under")
    _add_narrowing(p)
    p.add_argument("--path", default="", help='child indices per level, e.g. "0,1"')

    p = sub.add_parser("lift-backward", help="rebuild narrowing above a rewrite trace")
    _add_common(p)
    p.add_argument("term")
    p.add_argument("--rho", default="", help="normalised instantiation of the term")
    p.add_argument("--target-context", default="", help="context the instance lives under")
    p.add_argument("--max-steps", type=_bound, default=1000)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The `nomc` parser, built once per process."""
    return _parsers()[0]


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with a request that starts with a
    command handed straight to that command's parser, which is what the full
    parser would delegate to. Anything the command's parser leaves over goes
    back to the full parser, which reports it as before."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def run_command(argv: list[str]) -> int:
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, with its
        # usage message already on stderr; here 2 means a bound was hit.
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    truncation = None  # an error's own record; a result may carry one
    try:
        system = None
        if args.system:
            system = load_system_file(args.system).system
        elif args.command in _NEEDS_SYSTEM:
            raise UserError("this command needs --system FILE")
        sig = system.signature if system is not None else Signature()
        ctx = parse_context(args.context, sig)
        payload, text = _COMMANDS[args.command](args, system, sig, ctx)
        result = payload() if args.json else text()
        code = 0
    except (UserError, ValueError) as exc:  # ParseError is a ValueError
        result = {"error": str(exc)} if args.json else f"error: {exc}"
        truncation = getattr(exc, "truncation", None)
        code = 1
    except (StepLimitExceeded, SearchSpaceExceeded) as exc:
        result = {"error": str(exc), "bound_exhausted": True} if args.json else f"bound exhausted: {exc}"
        code = 2
    except RecursionError:
        # The parser, the printer and the judgements recurse once per
        # nesting level.
        message = "term is nested too deeply"
        result = {"error": message} if args.json else f"error: {message}"
        code = 1
    elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    if args.json:
        report = {
            "command": args.command,
            "result": result,
            "truncation": result.get("truncation", truncation),
            "timing_ms": elapsed_ms,
        }
        result = json.dumps(report, sort_keys=True)
    try:
        print(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`nomc ... | head`). Point stdout
        # at devnull so that the interpreter's flush at exit does not raise
        # again, and keep the command's own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
