"""Seeded benchmark workloads: inputs, one item's work, and output checks.

Every call into oment goes through a module attribute looked up at call time
(``cli.main``, ``sweep.evaluate_point``, ...), never through a name bound at
import, so the tracer's wrappers see the benchmark's own calls too.

The three workloads load different layers:

* ``figures`` runs the five paper presets through the CLI; the Lyapunov solve
  and the entanglement report dominate.
* ``threshold`` runs ``nth_entanglement_threshold`` at seeded operating
  points; each item is a chain of dependent scalar evaluations, so it shows
  any per-call cost that a batched path adds to a batch of one.
* ``bistable`` solves the bare-detuning cubic at seeded samples and evaluates
  every physical branch; most branches are unstable, so the stability gate and
  the cubic do most of the work and the covariance solve little.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

from oment import cli, params as oparams, steadystate, sweep

WORKLOADS = ("figures", "threshold", "bistable")
DEFAULT_SEED = 1
# Never run while the benchmark or a change is being tuned; claims are
# re-checked on it.
HELD_OUT_SEED = 7919

FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3")
FIGURES_TINY = ("fig1a", "fig2b")
# Enough items that the p90 of item latency has tens of items beyond it.
THRESHOLD_ITEMS = 300
BISTABLE_ITEMS = 1200
TINY_ITEMS = 4

# nth_entanglement_threshold's default bisection tolerance, which the
# threshold checks use; the benchmark passes no tolerance of its own.
THRESHOLD_REL_TOL = 1e-3
VALUE_REL_TOL = 1e-9
VALID_STATUSES = frozenset({"ok", "unstable", "marginal"})


class CheckFailure(Exception):
    """An item's output disagrees with its reference or breaks an invariant."""


@dataclass
class Workload:
    """Items of one workload and how to run and check them.

    ``run`` is the timed work of one item.  ``finish`` turns what ``run``
    returned into the comparable output and runs outside the timed region.
    ``check(index, output)`` raises :class:`CheckFailure` for a wrong output.
    """

    name: str
    items: list[Any]
    labels: list[str]
    warmup: Any
    run: Callable[[Any], Any]
    finish: Callable[[Any, Any], Any]
    check: Callable[[int, Any], None]


def _rel_close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


# ---------------------------------------------------------------- figures


def _figures(tiny: bool, reference: dict, out_dir: Path) -> Workload:
    names = list(FIGURES_TINY if tiny else FIGURES)
    digests = reference["figures"]

    def run(name: str) -> int:
        return cli.main(["figure", "--name", name, "--out", str(out_dir / f"{name}.csv")])

    def finish(name: str, code: int) -> tuple[int, str]:
        path = out_dir / f"{name}.csv"
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if code == 0 else ""
        return code, digest

    def check(index: int, output: tuple[int, str]) -> None:
        code, digest = output
        name = names[index]
        if code != 0:
            raise CheckFailure(f"{name}: exit code {code}")
        if digest != digests[name]:
            raise CheckFailure(f"{name}: CSV sha256 {digest} != {digests[name]}")

    return Workload("figures", names, names, "fig1a", run, finish, check)


# -------------------------------------------------------------- threshold


def _stratified(seed: int, count: int, ranges: list[tuple[float, float]]) -> list[tuple]:
    """Latin hypercube sample: each range is cut into ``count`` strata and
    every stratum is used once, in a seeded order, at a seeded offset.

    Every seed then covers each range evenly, so the mix of cheap and
    expensive items, and with it each latency percentile, moves little
    between seeds.
    """
    rng = random.Random(seed)
    columns = []
    for low, high in ranges:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([low + (high - low) * (s + rng.random()) / count for s in strata])
    return list(zip(*columns))


def threshold_inputs(seed: int, count: int) -> list[tuple]:
    """(power in mW, beta, effective delta/omega_m) per operating point."""
    return _stratified(seed, count, [(1.0, 10.0), (0.0, 0.6), (-1.2, -0.3)])


def _threshold(seed: int, tiny: bool, reference: dict | None) -> Workload:
    base = oparams.default_params()
    raw = threshold_inputs(seed, THRESHOLD_ITEMS)[: TINY_ITEMS if tiny else None]
    items = [(replace(base, power=p * 1e-3, beta=b), d) for p, b, d in raw]
    expected = reference["threshold"] if reference is not None else None

    def run(item) -> float:
        point_params, delta_norm = item
        return sweep.nth_entanglement_threshold(point_params, delta_norm)

    def entangled(point_params, delta_norm: float, n_th: float) -> bool:
        point = sweep.evaluate_point(point_params, delta_norm, n_th)
        if point.status not in VALID_STATUSES:
            raise CheckFailure(f"status {point.status!r} at n_th={n_th!r}")
        return point.status == "ok" and point.report.log_negativity > 0.0

    def check(index: int, threshold: float) -> None:
        if not (math.isfinite(threshold) and threshold >= 0.0):
            raise CheckFailure(f"item {index}: threshold {threshold!r}")
        if expected is not None:
            want = expected[index]
            if not abs(threshold - want) <= THRESHOLD_REL_TOL * max(want, 1.0):
                raise CheckFailure(f"item {index}: threshold {threshold!r} != {want!r}")
        point_params, delta_norm = items[index]
        if threshold == 0.0:
            if entangled(point_params, delta_norm, 0.0):
                raise CheckFailure(f"item {index}: threshold 0 but entangled at n_th=0")
            return
        width = THRESHOLD_REL_TOL * max(threshold, 1.0)
        if not entangled(point_params, delta_norm, max(threshold - width, 0.0)):
            raise CheckFailure(f"item {index}: not entangled below threshold {threshold!r}")
        if entangled(point_params, delta_norm, threshold + width):
            raise CheckFailure(f"item {index}: still entangled above threshold {threshold!r}")

    labels = ["threshold"] * len(items)
    return Workload("threshold", items, labels, items[0], run, _identity, check)


# --------------------------------------------------------------- bistable


def bistable_inputs(seed: int, count: int) -> list[tuple]:
    """(power in mW, beta, bare delta/omega_m, n_th) per sample."""
    return _stratified(seed, count, [(0.7, 30.0), (0.0, 0.6), (-2.5, 0.5), (0.0, 3000.0)])


def _bistable(seed: int, tiny: bool, reference: dict | None) -> Workload:
    base = oparams.default_params()
    raw = bistable_inputs(seed, BISTABLE_ITEMS)[: TINY_ITEMS if tiny else None]
    items = [(replace(base, power=p * 1e-3, beta=b), d, n) for p, b, d, n in raw]
    expected = reference["bistable"] if reference is not None else None

    def run(item) -> list[tuple[str, float | None, float | None]]:
        sample_params, bare_norm, n_th = item
        omega_m = sample_params.omega_m
        branches = []
        for state in steadystate.from_bare_detuning(bare_norm * omega_m, sample_params):
            point = sweep.evaluate_point(sample_params, state.delta_eff / omega_m, n_th)
            report = point.report
            branches.append(
                (
                    point.status,
                    None if report is None else report.eta,
                    None if report is None else report.log_negativity,
                )
            )
        return branches

    def check(index: int, branches) -> None:
        if not branches:
            raise CheckFailure(f"item {index}: no physical branch")
        for status, eta, log_neg in branches:
            if status not in VALID_STATUSES:
                raise CheckFailure(f"item {index}: status {status!r}")
            if status == "ok" and not (
                math.isfinite(eta) and eta > 0.0 and math.isfinite(log_neg) and log_neg >= 0.0
            ):
                raise CheckFailure(f"item {index}: eta {eta!r}, E_N {log_neg!r}")
        if expected is None:
            return
        want = expected[index]
        if len(branches) != len(want):
            raise CheckFailure(f"item {index}: {len(branches)} branches, expected {len(want)}")
        for (status, eta, log_neg), (w_status, w_eta, w_log_neg) in zip(branches, want):
            if status != w_status:
                raise CheckFailure(f"item {index}: status {status!r} != {w_status!r}")
            if status == "ok" and not (
                _rel_close(eta, w_eta, VALUE_REL_TOL)
                and _rel_close(log_neg, w_log_neg, VALUE_REL_TOL)
            ):
                raise CheckFailure(
                    f"item {index}: eta/E_N {eta!r}/{log_neg!r} != {w_eta!r}/{w_log_neg!r}"
                )

    labels = ["bistable"] * len(items)
    return Workload("bistable", items, labels, items[0], run, _identity, check)


def _identity(_item, output):
    return output


def make(
    name: str, seed: int, reference: dict, out_dir: Path, tiny: bool = False
) -> Workload:
    """Build a workload.  Per-item references apply only to the default seed;
    other seeds are checked by invariants.  Figure digests apply to every seed."""
    seeded_reference = reference if seed == DEFAULT_SEED else None
    if name == "figures":
        return _figures(tiny, reference, out_dir)
    if name == "threshold":
        return _threshold(seed, tiny, seeded_reference)
    if name == "bistable":
        return _bistable(seed, tiny, seeded_reference)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
