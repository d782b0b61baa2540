"""Outside-in tracing of nomc's layers.

`Tracer.install()` replaces each traced public function at every place its
name is bound: its defining module, every nomc module that imported it with
`from .x import y`, and the package namespace. Recursive calls re-enter
through the wrapped global, so every entry is counted while a direct
re-entry opens no new span: a span covers one outermost entry.

A span records its function, start, end, parent span and problem id. Spans
stay in typed arrays and are written out once, at the end of the run. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

import nomc
from nomc.narrowing import NotFound
from nomc.rewriting import StepLimitExceeded
from nomc.unify import FAIL, SearchSpaceExceeded

# Every traced function, by module, in the order metrics are reported.
LAYERS = {
    "terms": ("term_vars", "term_atoms", "subterms_with_positions", "permute_term", "apply_subst"),
    "alpha": ("derive_alpha_c", "derive_freshness", "freshness_context_nf"),
    "unify": ("match", "simplify_step", "solve", "check_solution", "enumerate_fixpoint_solutions"),
    "rewriting": (
        "primary_rewrite_steps", "c_class_enumerate", "alpha_variants", "normal_form_equal_check",
        "coherence_check", "normalize", "one_step_rewrites",
    ),
    "narrowing": ("narrow_search", "narrowing_to_rewriting", "lifting_backward_construct", "lifting_forward_check"),
    "parsing": ("parse_system", "parse_term"),
    "cli": ("load_system_file", "run_command"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)

# Outcome tallies kept per function besides calls and self time.
_OUTCOMES = {
    "alpha.derive_alpha_c": ("true", "nodes"),
    "unify.match": ("hit",),
    "unify.simplify_step": ("branch", "fail"),
    "unify.solve": ("hit",),
    "unify.check_solution": ("reject",),
    "unify.enumerate_fixpoint_solutions": ("solutions",),
    "rewriting.primary_rewrite_steps": ("steps", "empty"),
    "rewriting.c_class_enumerate": ("members",),
    "rewriting.alpha_variants": ("members",),
    "rewriting.normalize": ("trace_steps", "enumerated"),
    "narrowing.narrow_search": ("edges", "fixpoint_edges", "nodes_truncated"),
    "narrowing.lifting_backward_construct": ("not_found",),
}

# Bound exceptions, escapes and exit codes, counted where they leave the
# named layer.
EVENTS = ("unify.search_exceeded", "rewriting.step_limit_exceeded", "cli.exit_1", "cli.exit_2", "cli.escaped")

_RATIOS = {
    "true_ratio": "true", "hit_ratio": "hit", "branch_ratio": "branch", "fail_ratio": "fail",
    "reject_ratio": "reject", "empty_ratio": "empty",
}

# The reported per-layer metrics: <module>.<function>.<stat>, or an event.
PER_LAYER = (
    "terms.term_vars.calls", "terms.term_vars.self_s",
    "terms.term_atoms.calls", "terms.term_atoms.self_s",
    "terms.subterms_with_positions.calls", "terms.subterms_with_positions.self_s",
    "terms.permute_term.calls", "terms.permute_term.self_s",
    "terms.apply_subst.self_s",
    "alpha.derive_alpha_c.calls", "alpha.derive_alpha_c.nodes", "alpha.derive_alpha_c.self_s",
    "alpha.derive_alpha_c.true_ratio",
    "alpha.derive_freshness.calls", "alpha.derive_freshness.self_s",
    "alpha.freshness_context_nf.calls",
    "unify.match.calls", "unify.match.self_s", "unify.match.hit_ratio",
    "unify.simplify_step.calls", "unify.simplify_step.self_s",
    "unify.simplify_step.branch_ratio", "unify.simplify_step.fail_ratio",
    "unify.solve.calls", "unify.solve.self_s", "unify.solve.hit_ratio",
    "unify.check_solution.calls", "unify.check_solution.self_s", "unify.check_solution.reject_ratio",
    "unify.enumerate_fixpoint_solutions.calls", "unify.enumerate_fixpoint_solutions.solutions",
    "unify.enumerate_fixpoint_solutions.self_s",
    "rewriting.primary_rewrite_steps.calls", "rewriting.primary_rewrite_steps.steps",
    "rewriting.primary_rewrite_steps.empty_ratio", "rewriting.primary_rewrite_steps.self_s",
    "rewriting.c_class_enumerate.members", "rewriting.c_class_enumerate.self_s",
    "rewriting.alpha_variants.members", "rewriting.alpha_variants.self_s",
    "rewriting.normal_form_equal_check.calls", "rewriting.normal_form_equal_check.self_s",
    "rewriting.coherence_check.calls", "rewriting.coherence_check.self_s",
    "rewriting.normalize.calls", "rewriting.normalize.trace_steps", "rewriting.normalize.used_ratio",
    "rewriting.normalize.self_s",
    "rewriting.one_step_rewrites.calls", "rewriting.one_step_rewrites.self_s",
    "narrowing.narrow_search.calls", "narrowing.narrow_search.edges", "narrowing.narrow_search.fixpoint_edges",
    "narrowing.narrow_search.nodes_truncated", "narrowing.narrow_search.self_s",
    "narrowing.narrowing_to_rewriting.calls", "narrowing.narrowing_to_rewriting.self_s",
    "narrowing.lifting_backward_construct.calls", "narrowing.lifting_backward_construct.not_found",
    "narrowing.lifting_backward_construct.self_s",
    "narrowing.lifting_forward_check.calls", "narrowing.lifting_forward_check.self_s",
    "parsing.parse_system.calls", "parsing.parse_system.self_s",
    "parsing.parse_term.calls", "parsing.parse_term.self_s",
    "cli.load_system_file.calls", "cli.load_system_file.self_s",
    "cli.run_command.calls", "cli.run_command.self_s",
) + EVENTS


def _size(term) -> int:
    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        n += 1
        body = getattr(t, "body", None)
        if body is not None:
            stack.append(body)
        else:
            stack.extend(getattr(t, "args", ()))
    return n


class Tracer:
    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.outcomes = {name: dict.fromkeys(keys, 0) for name, keys in _OUTCOMES.items()}
        self.events = dict.fromkeys(EVENTS, 0)
        self.problem = -1
        # Per problem: (members, alpha variants) of the first oracle class.
        self.oracle_class: dict[int, list[int]] = {}
        self._class_pending = 0
        self._stack: list[list] = []  # frames: [func index, start, child time, span id]
        self.span_func = array("H")
        self.span_parent = array("l")
        self.span_problem = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._saved: list[tuple[dict, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "nomc" or name.startswith("nomc.")]
        for index, name in enumerate(NAMES):
            module, fn = name.split(".")
            original = getattr(getattr(nomc, module), fn)
            wrapper = self._wrap(original, index, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((vars(mod), attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            namespace[attr] = value
        self._saved.clear()

    def _wrap(self, fn, index: int, name: str):
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter
        observe = self._observer(name)
        span_func, span_parent = self.span_func, self.span_parent
        span_problem, span_start, span_end = self.span_problem, self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            calls[index] += 1
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            span = len(span_start)
            parent = stack[-1][3] if stack else -1
            frame = [index, 0.0, 0.0, span]
            span_func.append(index)
            span_parent.append(parent)
            span_problem.append(self.problem)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, clock())
                self._on_raise(name, exc)
                raise
            self._close(frame, clock())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _close(self, frame, end: float) -> None:
        index, start, child, span = frame
        self._stack.pop()
        duration = end - start
        self.self_s[index] += duration - child
        self.span_start[span] = start
        self.span_end[span] = end
        if self._stack:
            self._stack[-1][2] += duration

    def _on_raise(self, name: str, exc: BaseException) -> None:
        if getattr(exc, "_perfbench_seen", False):
            return
        if isinstance(exc, SearchSpaceExceeded) and name == "unify.solve":
            self.events["unify.search_exceeded"] += 1
        elif isinstance(exc, StepLimitExceeded) and name.startswith("rewriting."):
            self.events["rewriting.step_limit_exceeded"] += 1
        elif name == "cli.run_command":
            self.events["cli.escaped"] += 1
        else:
            return
        try:
            exc._perfbench_seen = True
        except AttributeError:
            pass

    # -- outcome observers (outermost entries only) -------------------------

    def _observer(self, name: str):
        if name == "cli.run_command":
            events = self.events

            def observe(args, kwargs, result):
                if result in (1, 2):
                    events[f"cli.exit_{result}"] += 1

            return observe
        tally = self.outcomes.get(name)
        if tally is None:
            return None
        if name == "alpha.derive_alpha_c":
            def observe(args, kwargs, result):
                tally["true"] += bool(result)
                tally["nodes"] += _size(args[1])
        elif name in ("unify.match", "unify.solve"):
            def observe(args, kwargs, result):
                tally["hit"] += bool(result)
        elif name == "unify.simplify_step":
            def observe(args, kwargs, result):
                tally["fail"] += result is FAIL
                tally["branch"] += isinstance(result, tuple) and len(result) > 1
        elif name == "unify.check_solution":
            def observe(args, kwargs, result):
                tally["reject"] += not result
        elif name == "unify.enumerate_fixpoint_solutions":
            def observe(args, kwargs, result):
                tally["solutions"] += len(result)
        elif name == "rewriting.primary_rewrite_steps":
            normalize_index = NAMES.index("rewriting.normalize")
            within = self.outcomes["rewriting.normalize"]

            def observe(args, kwargs, result):
                tally["steps"] += len(result)
                tally["empty"] += not result
                if self._stack and self._stack[-1][0] == normalize_index:
                    within["enumerated"] += len(result)
        elif name == "rewriting.c_class_enumerate":
            def observe(args, kwargs, result):
                tally["members"] += len(result)
                if self.problem not in self.oracle_class:
                    self.oracle_class[self.problem] = [len(result), 0]
                    self._class_pending = len(result)
        elif name == "rewriting.alpha_variants":
            def observe(args, kwargs, result):
                tally["members"] += len(result)
                if self._class_pending:
                    self._class_pending -= 1
                    self.oracle_class[self.problem][1] += len(result)
        elif name == "rewriting.normalize":
            def observe(args, kwargs, result):
                tally["trace_steps"] += len(result[1])
        elif name == "narrowing.narrow_search":
            def observe(args, kwargs, result):
                tally["edges"] += len(result.edges)
                tally["fixpoint_edges"] += sum(e.used_fixpoint_enumeration for e in result.edges)
                tally["nodes_truncated"] += result.truncation.nodes_truncated
        elif name == "narrowing.lifting_backward_construct":
            def observe(args, kwargs, result):
                tally["not_found"] += isinstance(result, NotFound)
        return observe

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict:
        """Deterministic counts: equal for equal inputs, whatever the timing."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(NAMES)}
        for name, tally in self.outcomes.items():
            out.update({f"{name}.{key}": value for key, value in tally.items()})
        out.update(self.events)
        return out

    def metrics(self) -> dict:
        """The PER_LAYER metrics, each as (value, unit). A ratio's base is
        the function's outermost calls; normalize's used_ratio is steps
        taken over steps its primary_rewrite_steps calls enumerated."""
        counted = self.counters()
        outermost = self._outermost()
        self_s = dict(zip(NAMES, self.self_s))
        out = {}
        for metric in PER_LAYER:
            function, _, stat = metric.rpartition(".")
            if stat == "self_s":
                out[metric] = (self_s[function], "s")
            elif stat == "used_ratio":
                enumerated = counted[f"{function}.enumerated"]
                out[metric] = (counted[f"{function}.trace_steps"] / enumerated if enumerated else 0.0, "ratio")
            elif stat in _RATIOS:
                base = outermost[function]
                out[metric] = (counted[f"{function}.{_RATIOS[stat]}"] / base if base else 0.0, "ratio")
            else:
                out[metric] = (counted[metric], "count")
        return out

    def _outermost(self) -> dict:
        counts = [0] * len(NAMES)
        for index in self.span_func:
            counts[index] += 1
        return dict(zip(NAMES, counts))

    def write_spans(self, path: Path) -> None:
        """Spans as parallel binary arrays plus a JSON header naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "func": self.span_func,
            "parent": self.span_parent,
            "problem": self.span_problem,
            "start": self.span_start,
            "end": self.span_end,
        }
        header = {
            "functions": list(NAMES),
            "spans": len(self.span_start),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns.items()],
        }
        with open(path, "wb") as out:
            blob = json.dumps(header).encode()
            out.write(len(blob).to_bytes(4, "little"))
            out.write(blob)
            for col in columns.values():
                col.tofile(out)
