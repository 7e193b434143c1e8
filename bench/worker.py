"""One benchmark process: set up, run timed passes, check outputs.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1.
It writes JSON lines to stdout: ``{"ready": ...}`` once oment is imported,
the inputs are generated and one warm-up item has run, then, unless
``--seconds 0``, ``{"result": ...}``.

A pass runs every item of the workload once, in one caller, each item after
the previous one returned (closed loop).  Passes repeat until ``--seconds``
have elapsed.  Item outputs are checked after the timed passes.  With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured under the same machine conditions.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oment  # noqa: E402

if not Path(oment.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"oment imported from {oment.__file__}, not from {ROOT / 'src'}")

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402

MAX_SPANS = 20_000
# The machine's speed flips on time scales up to seconds (see calibrate.py).
CALIBRATE_EVERY_S = 0.25
MAX_ERRORS = 5


def _emit(kind: str, value) -> None:
    print(json.dumps({kind: value}), flush=True)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method, of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Pass:
    """Time of one pass, raw and scaled to reference speed."""

    def __init__(self, raw: list[float], scaled: list[float], traced: bool) -> None:
        self.traced = traced
        self.raw_s = sum(raw)
        self.wall_s = sum(scaled)
        self.factor = self.wall_s / self.raw_s


class Scaler:
    """Scales latencies to reference speed (see ``calibrate.py``).

    The kernel runs at least every ``CALIBRATE_EVERY_S`` and at the end of
    each pass; the latencies in between are scaled by the mean of the kernel
    times on either side of them.
    """

    def __init__(self) -> None:
        self.last = calibrate.kernel_seconds()
        self.since = perf_counter()
        self.pending: list[tuple[list[float], int]] = []

    def add(self, values: list[float], index: int) -> None:
        self.pending.append((values, index))
        if perf_counter() - self.since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = calibrate.kernel_seconds()
        factor = calibrate.REFERENCE_S / ((self.last + now) / 2.0)
        for values, index in self.pending:
            values[index] *= factor
        self.pending.clear()
        self.last = now
        self.since = perf_counter()


def _snapshot(tracer: Tracer) -> dict[str, tuple]:
    return {
        hook: (s.calls, s.self_s, {k: tuple(v) for k, v in s.by_label.items()})
        for hook, s in tracer.stats.items()
    }


class Layers:
    """Per-layer totals over the traced passes, scaled to reference speed."""

    def __init__(self) -> None:
        self.calls = {hook: 0 for hook in HOOKS}
        self.self_s = {hook: 0.0 for hook in HOOKS}
        self.sweep_s: dict[str, list[float]] = {}  # preset -> [seconds, calls]

    def add(self, before: dict, after: dict, factor: float) -> None:
        for hook in HOOKS:
            calls0, self0, labels0 = before[hook]
            calls1, self1, labels1 = after[hook]
            self.calls[hook] += calls1 - calls0
            self.self_s[hook] += (self1 - self0) * factor
            if hook == "sweep.run_sweep":
                for label, (seconds, calls) in labels1.items():
                    old_seconds, old_calls = labels0.get(label, (0.0, 0))
                    total = self.sweep_s.setdefault(label, [0.0, 0])
                    total[0] += (seconds - old_seconds) * factor
                    total[1] += calls - old_calls


def run(args: argparse.Namespace) -> None:
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
    try:
        wl = workloads.make(args.workload, args.seed, reference, out_dir, tiny=args.tiny)
        wl.run(wl.warmup)
        _emit("ready", {"items": len(wl.items)})
        if args.seconds > 0:
            _emit("result", _measure(wl, args))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _measure(wl: workloads.Workload, args: argparse.Namespace) -> dict:
    tracer = Tracer(keep_spans=MAX_SPANS if args.trace else 0)
    layers = Layers()
    passes: list[Pass] = []
    first: dict[int, object] = {}  # output of each item's first good run
    good_runs = [0] * len(wl.items)
    item_scaled_s = [0.0] * len(wl.items)  # summed over untraced passes
    differs: set[int] = set()
    errors: list[str] = []
    attempted = failed = 0
    item_id = 0

    scaler = Scaler()
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
            before = _snapshot(tracer)
        raw_latencies: list[float] = []
        scaled: list[float] = []
        for index in range(len(wl.items)):
            tracer.item_id = item_id
            tracer.item_label = wl.labels[index]
            item_id += 1
            attempted += 1
            t0 = perf_counter()
            try:
                raw = wl.run(wl.items[index])
            except Exception as exc:  # an item that raises counts as failed
                raw = exc
            latency = perf_counter() - t0
            raw_latencies.append(latency)
            scaled.append(latency)
            if isinstance(raw, Exception):
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(f"item {index}: {raw!r}")
                    traceback.print_exception(raw)
            else:
                output = wl.finish(wl.items[index], raw)
                good_runs[index] += 1
                if index not in first:
                    first[index] = output
                elif output != first[index]:
                    differs.add(index)
            scaler.add(scaled, len(scaled) - 1)
        if traced:
            after = _snapshot(tracer)
            tracer.uninstall()
        scaler.flush()
        passes.append(Pass(raw_latencies, scaled, traced))
        if not traced:
            for index, latency in enumerate(scaled):
                item_scaled_s[index] += latency
        if traced:
            layers.add(before, after, passes[-1].factor)
        n_traced = sum(p.traced for p in passes)
        if perf_counter() - start >= args.seconds and (not args.trace or n_traced >= 1):
            break

    # Output checks, outside the timed region.  A wrong output, or one that
    # changes between passes, fails every run of that item that returned.
    for index, output in sorted(first.items()):
        try:
            if index in differs:
                raise workloads.CheckFailure(f"item {index}: output differs between passes")
            wl.check(index, output)
        except Exception as exc:  # a check that cannot run fails the item too
            failed += good_runs[index]
            if len(errors) < MAX_ERRORS:
                errors.append(str(exc))

    untraced = [p for p in passes if not p.traced]
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": len(passes),
        "items_per_pass": len(wl.items),
        "speed_factor_median": statistics.median(p.factor for p in passes),
        "raw_wall_s": statistics.median(p.raw_s for p in untraced),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "item_p50_ms": 1e3 * _quantile(item_scaled_s, 50) / len(untraced),
        "item_p90_ms": 1e3 * _quantile(item_scaled_s, 90) / len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        result["layers"] = _layer_metrics(wl, tracer, layers, traced_passes, untraced)
        result["absent_hooks"] = tracer.absent
        _write_spans(tracer, Path(args.out_dir) / f"spans-{wl.name}-seed{args.seed}.jsonl")
    return result


def _layer_metrics(wl, tracer: Tracer, layers: Layers, traced: list, untraced: list) -> dict:
    """Per-layer metrics as name -> (value, unit); counts and times per pass."""
    n = len(traced)
    calls = layers.calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for hook in HOOKS:
        metrics[f"{hook}.calls"] = (calls[hook] / n, "calls/pass")
        metrics[f"{hook}.self_s"] = (layers.self_s[hook] / n, "s/pass")
    for preset in workloads.FIGURES:
        seconds, count = layers.sweep_s.get(preset, (0.0, 0))
        metrics[f"sweep.run_sweep.{preset}_s"] = (ratio(seconds, count), "s/call")
    metrics["sweep.evals_per_item"] = (
        ratio(calls["sweep.evaluate_point"], n * len(wl.items)), "evals/item"
    )
    metrics["linmodel.gate_pass_ratio"] = (
        ratio(calls["lyapunov.solve_lyapunov"], calls["linmodel.assess_stability"]), "ratio"
    )
    metrics["gaussian.calls_per_solve"] = (
        ratio(calls["gaussian.log_negativity"], calls["lyapunov.solve_lyapunov"]), "calls/solve"
    )
    metrics["lyapunov.max_residual"] = (tracer.solves.max_residual, "rel")
    metrics["lyapunov.max_condition"] = (tracer.solves.max_condition, "ratio")
    metrics["lyapunov.ill_conditioned"] = (tracer.solves.ill_conditioned / n, "solves/pass")
    overhead = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced)
        - 1.0
    )
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return metrics


def _write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w") as handle:
        for span_id, parent, item, hook, start, end in tracer.spans:
            handle.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "item": item, "name": hook,
                     "start": start, "end": end},
                    separators=(",", ":"),
                )
                + "\n"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", required=True)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
