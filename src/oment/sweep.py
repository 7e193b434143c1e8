"""Parameter sweeps with stability gating, figure presets and flat-file output.

A sweep evaluates its whole grid as array stacks in one pass through the
pipeline; a single point is a stack of one through the same code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian
from .gaussian import EntanglementReport
from .linmodel import StabilityReport, diffusion_matrix, stability_scalar, stability_stack
from .lyapunov import CovarianceMatrix, residual, solve_stack
from .params import (
    ConfigError,
    PhysicalParams,
    default_params,
    drive_amplitude,
    require_finite,
    thermal_occupation,
)
from .steadystate import SteadyState, steady_states

__all__ = [
    "SweepSpec",
    "SweepRecord",
    "PointResult",
    "evaluate_point",
    "run_sweep",
    "figure_preset",
    "emit",
    "nth_entanglement_threshold",
    "CSV_HEADER",
    "FIGURE_NAMES",
]

AXES = ("delta_norm", "beta", "n_th", "power")
STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_MARGINAL = "marginal"
STATUS_ERROR = "error"

RESIDUAL_LIMIT = 1e-8
# Bisection levels of the thermal threshold decided per stacked evaluation.
THRESHOLD_LEVELS = 3
_EPS = float(np.finfo(float).eps)

CSV_HEADER = "axis,curve,n_s,g_eff,s1,s2,routh_stable,spectral_stable,eta,log_negativity,status"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a uniform grid on `axis`, optionally one curve per value of
    a second parameter.

    ``delta_norm`` fixes the operating detuning (in units of omega_m) when the
    axis is not the detuning itself; ``curve_delta_norms`` optionally
    overrides it per curve.  ``n_th`` overrides the bath occupation derived
    from the temperature (used by n_th sweeps).
    """

    axis: str
    start: float
    stop: float
    count: int
    fixed: PhysicalParams
    delta_norm: float = -1.0
    n_th: float | None = None
    curve_param: str = "beta"
    curves: tuple[float, ...] | None = None
    curve_delta_norms: tuple[float, ...] | None = None

    def validate(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.start < self.stop:
            raise ConfigError("start must be < stop")
        if self.count < 2:
            raise ConfigError("count must be >= 2")
        if self.curves is not None:
            if self.curve_param == self.axis:
                raise ConfigError("swept axis duplicated in curves")
            if self.curve_param not in AXES:
                raise ConfigError(f"curve parameter must be one of {AXES}")
            if self.curve_delta_norms is not None and len(self.curve_delta_norms) != len(
                self.curves
            ):
                raise ConfigError("curve_delta_norms must match curves in length")
        for name in ("start", "stop", "delta_norm", "n_th", "curves", "curve_delta_norms"):
            for value in np.ravel(getattr(self, name) or 0.0):  # None: not set
                require_finite(**{name: value})
        ranges = {self.axis: (self.start, self.stop)}
        if self.curves is not None:
            ranges[self.curve_param] = self.curves
        if self.n_th is not None:
            ranges.setdefault("n_th", (self.n_th,))
        for name, values in ranges.items():
            if name == "beta" and max(values) >= 1.0:
                raise ConfigError("beta values must stay below 1")
            if name in ("n_th", "power") and min(values) < 0:
                raise ConfigError(f"{name} values must be >= 0")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepRecord:
    """One row of figure data; `eta`/`log_negativity` present iff status ok."""

    axis_value: float
    curve_value: float | None
    n_s: float
    g_eff: float
    s1: float
    s2: float
    routh_stable: bool
    spectral_stable: bool
    eta: float | None
    log_negativity: float | None
    status: str


@dataclass(frozen=True)
class PointResult:
    """Full evaluation of one operating point."""

    params: PhysicalParams
    delta_norm: float
    n_th: float
    steady: SteadyState
    stability: StabilityReport
    covariance: CovarianceMatrix | None
    report: EntanglementReport | None
    report_raw: EntanglementReport | None
    status: str


@dataclass(frozen=True)
class _Stack:
    """Every stage of the pipeline over a stack of points.

    ``status`` has one entry per point.  The covariance arrays cover the
    points listed in ``solved``, the entanglement arrays those in
    ``reported``: the points whose status is ok.
    """

    stability: StabilityReport
    status: np.ndarray
    solved: np.ndarray
    v: np.ndarray
    residual: np.ndarray
    condition: np.ndarray
    ill: np.ndarray
    reported: np.ndarray
    sigma: np.ndarray
    det_v: np.ndarray
    eta: np.ndarray


# Gate outcome by number of passed checks: none, stable, stable and marginal.
_GATE_STATUS = np.array([STATUS_UNSTABLE, STATUS_OK, STATUS_MARGINAL])
# Covariance and entanglement arrays of a stack in which no point is solved.
_UNSOLVED = (
    np.empty((0, 4, 4)),
    *(np.empty(0, dtype) for dtype in (float, float, bool, int, float, float, float)),
)


def _evaluate(params: PhysicalParams, steady: SteadyState, n_th) -> _Stack:
    """Stability gate -> covariance -> entanglement at every point of `steady`.

    `steady` and `n_th` hold 1-d arrays, or scalars for a single point;
    `params` supplies everything that does not vary between points.
    Unstable and marginal points skip the solve, points whose drift matrix
    is not finite, whose residual exceeds :data:`RESIDUAL_LIMIT` or whose CM
    is non-physical get status ``error``.
    """
    a, stability = stability_stack(steady, params)
    gate = np.add(stability.spectral_stable, stability.marginal, dtype=np.intp).reshape(-1)
    status = _GATE_STATUS[gate]
    status[np.isnan(stability.spectral_abscissa).reshape(-1)] = STATUS_ERROR
    solved = np.nonzero(gate == 1)[0]
    if not solved.size:
        return _Stack(stability, status, solved, *_UNSOLVED)

    d = diffusion_matrix(params.gamma_m, params.kappa, np.reshape(n_th, -1)[solved])
    v, res, condition, ill = solve_stack(a.reshape(-1, 4, 4)[solved], d)
    status[solved[res > RESIDUAL_LIMIT]] = STATUS_ERROR
    keep = status[solved] == STATUS_OK
    sig, det_v, eta, physical = gaussian.eta_stack(gaussian.CM_SCALE * v[keep])
    reported = solved[keep]
    status[reported[~physical]] = STATUS_ERROR
    reports = (x[physical] for x in (reported, sig, det_v, eta))
    return _Stack(stability, status, solved, v, res, condition, ill, *reports)


def evaluate_point(
    params: PhysicalParams,
    delta_norm: float,
    n_th: float | None = None,
) -> PointResult:
    """Steady state -> stability -> covariance -> entanglement at one point.

    Unstable and marginal points carry a status instead of a report.  The
    `report` uses the standard-convention rescaling (:data:`gaussian.CM_SCALE`)
    with the configured eta factor; `report_raw` applies f = 2 to the
    unrescaled covariance matrix for comparison with the raw composition, and
    is derived from `report` rather than evaluated again.  The point runs
    through the same stacked pipeline as :func:`run_sweep`.
    """
    if n_th is None:
        n_th = thermal_occupation(params.temperature, params.omega_m)
    require_finite(delta_norm=delta_norm, n_th=n_th)
    if n_th < 0:
        raise ConfigError("n_th must be >= 0")
    e0 = drive_amplitude(params.power, params.kappa, params.omega_laser)
    steady = steady_states(delta_norm * params.omega_m, e0, params.beta, params)
    stack = _evaluate(params, steady, n_th)
    covariance = report = report_raw = None
    if stack.solved.size:
        covariance = CovarianceMatrix(
            v=stack.v[0],
            residual=float(stack.residual[0]),
            condition=float(stack.condition[0]),
            ill_conditioned=bool(stack.ill[0]),
        )
    if stack.reported.size:
        sig, det_v, eta = stack.sigma[0], stack.det_v[0], stack.eta[0]
        report = gaussian.entanglement_report(sig, det_v, eta, params.convention_eta_factor)
        # the raw CM is 2V: sigma scales by 4, det V by 16 and eta by 2
        report_raw = gaussian.entanglement_report(4.0 * sig, 16.0 * det_v, 2.0 * eta, 2.0)
    return PointResult(
        params=params,
        delta_norm=delta_norm,
        n_th=float(n_th),
        steady=steady,
        stability=stability_scalar(stack.stability, params.beta),
        covariance=covariance,
        report=report,
        report_raw=report_raw,
        status=str(stack.status[0]),
    )


def _grid_values(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Per-point values of the four axes, shape (curves, grid), curves outer.

    A curve's ``curve_delta_norms`` entry sets its detuning, the curve value
    then sets `curve_param` and the grid value sets `axis`, in that order.
    """
    fixed = spec.fixed
    n_th = spec.n_th
    if n_th is None:
        n_th = thermal_occupation(fixed.temperature, fixed.omega_m)
    base = {"delta_norm": spec.delta_norm, "beta": fixed.beta, "n_th": n_th, "power": fixed.power}
    rows = len(spec.curves) if spec.curves is not None else 1
    values = {name: np.full((rows, spec.count), float(value)) for name, value in base.items()}
    if spec.curves is not None:
        if spec.curve_delta_norms is not None:
            values["delta_norm"][:] = np.array(spec.curve_delta_norms)[:, None]
        values[spec.curve_param][:] = np.array(spec.curves)[:, None]
    values[spec.axis][:] = spec.grid()
    return {name: value.ravel() for name, value in values.items()}


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the full grid, curves outer, axis inner.

    All points go through the pipeline as one stack; a point's record does
    not depend on the other points of the grid.
    """
    spec.validate()
    values = _grid_values(spec)
    params = spec.fixed
    e0 = drive_amplitude(values["power"], params.kappa, params.omega_laser)
    steady = steady_states(values["delta_norm"] * params.omega_m, e0, values["beta"], params)
    stack = _evaluate(params, steady, values["n_th"])

    ok = (stack.status == STATUS_OK).tolist()
    eta = np.full(len(ok), np.nan)
    eta[stack.reported] = stack.eta
    log_neg = gaussian.log_negativity_of(eta, params.convention_eta_factor)

    def where_ok(values: np.ndarray) -> list[float | None]:
        return [value if is_ok else None for value, is_ok in zip(values.tolist(), ok)]

    curves = spec.curves if spec.curves is not None else (None,)
    columns = (
        spec.grid().tolist() * len(curves),
        [None if c is None else float(c) for c in curves for _ in range(spec.count)],
        steady.n_s.tolist(),
        steady.g_eff.tolist(),
        stack.stability.s1.tolist(),
        stack.stability.s2.tolist(),
        stack.stability.routh_stable.tolist(),
        stack.stability.spectral_stable.tolist(),
        where_ok(eta),
        where_ok(log_neg),
        stack.status.tolist(),
    )
    return [SweepRecord(*row) for row in zip(*columns)]


FIGURE_NAMES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3")


def figure_preset(name: str, base: PhysicalParams | None = None) -> SweepSpec:
    """Sweep specification reproducing one of the reference figures.

    fig1a/fig1b: detuning sweeps at 0.7 mW / 10 mW in the linear regime;
    fig2a: detuning sweep at 10 mW with nonlinearity curves; fig2b:
    nonlinearity sweep at the enhanced detuning -0.5; fig3: bath-occupation
    sweep at 10 mW, the linear curve at its optimum -1 and the nonlinear
    curves at theirs, -0.5.
    """
    params = base if base is not None else default_params()
    if name == "fig1a":
        return SweepSpec(
            axis="delta_norm",
            start=-2.0,
            stop=0.0,
            count=201,
            fixed=replace(params, power=0.7e-3, beta=0.0),
        )
    if name == "fig1b":
        return SweepSpec(
            axis="delta_norm",
            start=-2.0,
            stop=0.0,
            count=201,
            fixed=replace(params, power=10e-3, beta=0.0),
        )
    if name == "fig2a":
        return SweepSpec(
            axis="delta_norm",
            start=-2.0,
            stop=0.0,
            count=201,
            fixed=replace(params, power=10e-3),
            curves=(0.0, 0.2, 0.4, 0.6),
        )
    if name == "fig2b":
        return SweepSpec(
            axis="beta",
            start=0.0,
            stop=0.6,
            count=201,
            fixed=replace(params, power=10e-3),
            delta_norm=-0.5,
        )
    if name == "fig3":
        return SweepSpec(
            axis="n_th",
            start=0.0,
            stop=3000.0,
            count=201,
            fixed=replace(params, power=10e-3),
            curves=(0.0, 0.2, 0.4, 0.6),
            curve_delta_norms=(-1.0, -0.5, -0.5, -0.5),
        )
    raise ConfigError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")


def _format_float(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


def emit(records: list[SweepRecord], fmt: str = "csv") -> bytes:
    """Serialize records to CSV or JSONL bytes.

    Floats carry 17 significant digits and round-trip exactly; identical
    inputs produce byte-identical output.
    """
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(
                ",".join(
                    (
                        _format_float(r.axis_value),
                        _format_float(r.curve_value),
                        _format_float(r.n_s),
                        _format_float(r.g_eff),
                        _format_float(r.s1),
                        _format_float(r.s2),
                        _format_bool(r.routh_stable),
                        _format_bool(r.spectral_stable),
                        _format_float(r.eta),
                        _format_float(r.log_negativity),
                        r.status,
                    )
                )
            )
        return ("\n".join(lines) + "\n").encode()
    if fmt == "jsonl":
        lines = []
        for r in records:
            lines.append(
                json.dumps(
                    {
                        "axis": r.axis_value,
                        "curve": r.curve_value,
                        "n_s": r.n_s,
                        "g_eff": r.g_eff,
                        "s1": r.s1,
                        "s2": r.s2,
                        "routh_stable": r.routh_stable,
                        "spectral_stable": r.spectral_stable,
                        "eta": r.eta,
                        "log_negativity": r.log_negativity,
                        "status": r.status,
                    },
                    separators=(",", ":"),
                )
            )
        return ("\n".join(lines) + "\n").encode() if lines else b""
    raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'jsonl'")


def _midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint that the next `levels` steps of bisecting [lo, hi] can visit."""
    if not levels:
        return []
    mid = (lo + hi) / 2.0
    return [mid, *_midpoints(lo, mid, levels - 1), *_midpoints(mid, hi, levels - 1)]


def nth_entanglement_threshold(
    params: PhysicalParams,
    delta_norm: float,
    n_hi: float = 8000.0,
    rel_tol: float = 1e-3,
) -> float:
    """Bath occupation where the log-negativity crosses zero, by bisection.

    Requires entanglement at n_th = 0 and none at `n_hi`; the threshold is
    located to relative axis precision `rel_tol`.  Only the diffusion depends
    on n_th and A V + V A^T = -D is linear in D, so one stability gate and one
    solve give V(n_th) = V0 + n_th * V1.  Whenever the bisection reaches a
    midpoint not yet decided, the checks of :func:`evaluate_point` run on the
    midpoints of its next :data:`THRESHOLD_LEVELS` levels as one stack.
    """
    require_finite(delta_norm=delta_norm, n_hi=n_hi, rel_tol=rel_tol)
    if not n_hi > 0.0:
        raise ConfigError(f"n_hi must be > 0, got {n_hi!r}")
    if not rel_tol >= _EPS:  # below it the interval stops shrinking
        raise ConfigError(f"rel_tol must be >= {_EPS!r}, got {rel_tol!r}")
    e0 = drive_amplitude(params.power, params.kappa, params.omega_laser)
    steady = steady_states(delta_norm * params.omega_m, e0, params.beta, params)
    a, stability = stability_stack(steady, params)
    if not stability.spectral_stable or stability.marginal:
        return 0.0
    gamma_m, kappa = params.gamma_m, params.kappa
    step = np.zeros((4, 4))
    step[1, 1] = 2.0 * gamma_m  # D(n_th + 1) - D(n_th)
    (v0, v1), _, _, _ = solve_stack(a, np.stack([diffusion_matrix(gamma_m, kappa, 0.0), step]))

    def entangled(n_th: list[float]) -> list[bool]:
        n = np.array(n_th)
        v = v0 + n[:, None, None] * v1
        ok = residual(a, v, diffusion_matrix(gamma_m, kappa, n)) <= RESIDUAL_LIMIT
        _, _, eta, physical = gaussian.eta_stack(gaussian.CM_SCALE * v[ok])
        ok[ok] = physical & (gaussian.log_negativity_of(eta, params.convention_eta_factor) > 0)
        return ok.tolist()

    at_zero, at_hi = entangled([0.0, n_hi])
    if not at_zero:
        return 0.0
    if at_hi:
        raise ConfigError(f"still entangled at n_th = {n_hi}; raise n_hi")
    lo, hi, verdicts = 0.0, n_hi, {}
    while hi - lo > rel_tol * max(lo, 1.0):
        mid = (lo + hi) / 2.0
        if mid not in verdicts:
            mids = _midpoints(lo, hi, THRESHOLD_LEVELS)
            verdicts = dict(zip(mids, entangled(mids)))
        if verdicts[mid]:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
