"""Spans around the public entry points of each hypercause module.

The tracer replaces each target function with a wrapper in every loaded
``hypercause`` module that bound it, since several modules import
functions by name (``eval_hyper`` is bound in ``semantics``, ``causality``,
``oracle`` and ``checker``).  A method is replaced on its class.  A target
that no longer exists is reported as absent, not as an error.

A span's self time is its duration minus the durations of the spans it
directly encloses.  The ``eval_hyper`` wrapper also counts the distinct
worlds (``Counterexample`` values) each operation evaluates, and which
layer asked for the evaluation.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = (
    "cli.main",
    "parser.parse_hyperltl",
    "machine.load_machine",
    "checker.find_counterexample",
    "satcore.candidate_cause",
    "counterfactual.CounterfactualAutomaton.__init__",
    "counterfactual.CounterfactualAutomaton.run",
    "semantics.eval_hyper",
    "alternating.accepts_lasso",
    "causality.check_cf",
    "causality.compute_contingency",
    "causality.verify_actual_cause",
    "causality.actual_cause",
    "causality.all_minimal_causes",
    "oracle.brute_force_causes",
    "reports.report_to_json",
)

#: layers an eval_hyper call is attributed to, by module of the nearest
#: enclosing span
EVAL_CALLERS = ("checker", "causality", "oracle")

EVAL_TARGET = "semantics.eval_hyper"


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.total = dict.fromkeys(TARGETS, 0.0)
        self.self_time = dict.fromkeys(TARGETS, 0.0)
        self.under = dict.fromkeys(EVAL_CALLERS, 0)
        self.distinct_worlds = 0
        self.absent: list[str] = []
        self._worlds: set = set()
        self._stack: list[list] = []  # [target, seconds spent in child spans]
        self._restore: list[tuple[object, str, object]] = []

    def end_operation(self) -> None:
        """Close the distinct-world count of one operation."""
        self.distinct_worlds += len(self._worlds)
        self._worlds.clear()

    def _wrap(self, target: str, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack = self._stack
        is_eval = target == EVAL_TARGET

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_eval:
                self._count_world(args[0] if args else kwargs["cex"])
            frame = [target, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                calls[target] += 1
                total[target] += elapsed
                self_time[target] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _count_world(self, cex) -> None:
        self._worlds.add(cex)
        for target, _ in reversed(self._stack):
            layer = target.split(".", 1)[0]
            if layer in EVAL_CALLERS:
                self.under[layer] += 1
                return

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hypercause" or name.startswith("hypercause.")]
        for target in TARGETS:
            module_name, *path = target.split(".")
            owner = sys.modules.get(f"hypercause.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if len(path) > 1:  # a method: replace it on its class
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
