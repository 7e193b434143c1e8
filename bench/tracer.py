"""Outside-in tracer: wraps public oment functions without changing oment.

Modules bind each other's functions with ``from … import``, so replacing
``oment.lyapunov.solve_lyapunov`` alone would miss the call that
``oment.sweep`` makes through its own binding.  :meth:`Tracer.install`
therefore replaces the original function object under every name in every
loaded ``oment`` module that is bound to it, and :meth:`Tracer.uninstall`
puts the originals back.

Each call opens a span with an id, its parent span and the current item id.
A span's self time is its duration minus the durations of its child spans;
calls are single-threaded and strictly nested, so the children never overlap.
A hook whose function no longer exists is listed in :attr:`Tracer.absent`; a
hook that is installed but never called reports zero calls.  Neither fails.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

HOOKS = (
    "params.derive",
    "steadystate.from_effective_detuning",
    "steadystate.from_bare_detuning",
    "linmodel.assess_stability",
    "linmodel.build_drift",
    "linmodel.build_diffusion",
    "lyapunov.solve_lyapunov",
    "gaussian.log_negativity",
    "sweep.evaluate_point",
    "sweep.run_sweep",
    "sweep.emit",
    "sweep.nth_entanglement_threshold",
    "cli.main",
)


@dataclass
class HookStats:
    calls: int = 0
    self_s: float = 0.0
    # inclusive seconds and calls per item label, e.g. per figure preset
    by_label: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class Solves:
    """Diagnostics read from the CovarianceMatrix each solve returns."""

    max_residual: float = 0.0
    max_condition: float = 0.0
    ill_conditioned: int = 0

    def observe(self, covariance: Any) -> None:
        residual = getattr(covariance, "residual", None)
        condition = getattr(covariance, "condition", None)
        if residual is not None and math.isfinite(residual):
            self.max_residual = max(self.max_residual, float(residual))
        if condition is not None and math.isfinite(condition):
            self.max_condition = max(self.max_condition, float(condition))
        if getattr(covariance, "ill_conditioned", False):
            self.ill_conditioned += 1


class Tracer:
    """Span recorder for the functions named in :data:`HOOKS`.

    ``keep_spans`` bounds how many spans are kept in memory for writing out;
    the per-hook counts and times cover every call regardless.
    """

    def __init__(self, keep_spans: int = 0) -> None:
        self.stats = {name: HookStats() for name in HOOKS}
        self.solves = Solves()
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.item_id = 0
        self.item_label = ""
        self._stack: list[list] = []
        self._next_span = 0
        self._patched: list[tuple[dict, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "oment" or n.startswith("oment.")]
        self.absent = []
        for hook in HOOKS:
            module_name, func_name = hook.split(".")
            try:
                module = importlib.import_module(f"oment.{module_name}")
            except ImportError:
                self.absent.append(hook)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(hook)
                continue
            observe = self.solves.observe if hook == "lyapunov.solve_lyapunov" else None
            wrapper = self._wrap(hook, original, observe)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self._patched.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # --------------------------------------------------------------- spans

    def _wrap(self, hook: str, original: Callable, observe: Callable | None) -> Callable:
        stats = self.stats[hook]
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = stack[-1][1] if stack else -1
            # [start, span id, child seconds]
            frame = [perf_counter(), span_id, 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                stats.calls += 1
                stats.self_s += duration - frame[2]
                label = stats.by_label.setdefault(self.item_label, [0.0, 0])
                label[0] += duration
                label[1] += 1
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < self.keep_spans:
                    self.spans.append(
                        (span_id, parent, self.item_id, hook, frame[0], end)
                    )
            if observe is not None:
                observe(result)
            return result

        return functools.update_wrapper(wrapper, original)
