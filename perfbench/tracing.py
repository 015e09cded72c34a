"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``loopinv`` modules at the
attribute their caller looks up (``loopinv.engine.simplify``,
``loopinv.solver.eval_expr``, ``loopinv.cli.holds``, ...), so loopinv's
code is unchanged and an untraced pass runs the original functions.

Spans are kept in memory: name, start, end, parent span and program.  A
span's self time is its duration minus the time its direct child spans
cover.  The evaluator entry points are called millions of times in a
deep search, so they are counted but get no span.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter, defaultdict

# (module the caller lives in, attribute, span name).  wlp recurses
# through its own module attribute, so nested wlp calls are spans too.
SPANS = [
    ("cli", "solve", "solver.solve"),
    ("solver", "collect_trajectories", "solver.collect_trajectories"),
    ("solver", "check_requirements", "solver.check_requirements"),
    ("solver", "exec_stmt", "evaluator.exec_stmt"),
    ("engine", "find_invariant", "engine.find_invariant"),
    ("engine", "simplify", "simplifier.simplify"),
    ("simplifier", "refuted", "simplifier.refuted"),
    ("engine", "wlp", "wlp.wlp"),
    ("cli", "wlp", "wlp.wlp"),
    ("wlp", "wlp", "wlp.wlp"),
    ("engine", "coupled", "embedding.coupled"),
    ("engine", "msg", "embedding.msg"),
    ("embedding", "msg", "embedding.msg"),
    ("cli", "parse_program", "parser.parse_program"),
]

# (module the caller lives in, attribute, counter name)
COUNTS = [
    ("solver", "eval_expr", "evaluator.eval_expr.calls.solver"),
    ("simplifier", "eval_expr", "evaluator.eval_expr.calls.simplifier"),
    ("solver", "holds", "evaluator.holds.calls.solver"),
    ("cli", "holds", "evaluator.holds.calls.cli"),
]

RULES = ("R1", "R2", "R3", "R4", "R5", "R6")
STEP_KINDS = ("WLPStep", "GeneraliseStep")


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, program]
        self._stack: list[int] = []
        self.program: str | None = None
        self.counts: Counter[str] = Counter()
        self._calls: dict[str, itertools.count] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.program])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if after is not None:
                    after(None, err)
                raise
            finally:
                self.close(index)
            if after is not None:
                after(result, None)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self._calls[name] = itertools.count()

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read what a layer returned ------------------------------

    def simplify_logged(self, name: str, fn):
        """simplify with a RewriteEvent log, so rule fires can be counted
        even when the caller passed none; the log changes no result."""

        def logged(context, p, cfg=None, log=None):
            events = [] if log is None else log
            start = len(events)
            out = fn(context, p, cfg, events)
            self.counts.update(f"simplifier.fires.{ev.rule}" for ev in events[start:])
            return out

        return self.spanned(name, logged)

    def _count_steps(self, result, err) -> None:
        trace = result[2] if result is not None else getattr(err, "trace", None)
        if trace is not None:
            self.counts.update(f"engine.steps.{s.kind}" for s in trace.steps)

    # -- install / remove ------------------------------------------------------

    def install(self) -> list[tuple[object, str, object]]:
        """Patch the wrappers into the imported loopinv modules; returns
        what `restore` needs to undo it."""
        saved = []

        def module_of(name: str):
            # loopinv.wlp the package attribute is the function; the module
            # is only reachable through sys.modules.
            return sys.modules[f"loopinv.{name}"]

        def patch(module: str, attr: str, wrapper) -> None:
            mod = module_of(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

        for module, attr, name in SPANS:
            fn = getattr(module_of(module), attr)
            if name == "simplifier.simplify":
                patch(module, attr, self.simplify_logged(name, fn))
            elif name == "engine.find_invariant":
                patch(module, attr, self.spanned(name, fn, self._count_steps))
            else:
                patch(module, attr, self.spanned(name, fn))
        for module, attr, name in COUNTS:
            patch(module, attr, self.counted(name, getattr(module_of(module), attr)))
        return saved

    @staticmethod
    def restore(saved: list[tuple[object, str, object]]) -> None:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """calls, total seconds and self seconds per span name, plus the
        counters."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered[i]
        for name, calls in self._calls.items():
            out[name] += next(calls)  # the count's next value is the number of calls so far
        for name, n in self.counts.items():
            out[name] += n
        return out
