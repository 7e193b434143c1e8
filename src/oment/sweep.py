"""Parameter sweeps with stability gating, figure presets and flat-file output.

A sweep evaluates its whole grid as array stacks in one pass through the
pipeline; a single point is a stack of one through the same code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from . import gaussian
from .gaussian import EntanglementReport
from .linmodel import StabilityReport, diffusion_matrix, stability_stack
from .lyapunov import CovarianceMatrix, residual, solve_stack
from .params import ConfigError, PhysicalParams, default_params, require_finite, thermal_occupation
from .steadystate import SteadyState, steady_states

__all__ = [
    "SweepSpec",
    "Sweep",
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
_EPS = float(np.finfo(float).eps)



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
class Sweep:
    """Figure data as columns, one entry per grid point, curves outer.

    The fields are the output columns of :func:`emit`, in order.  ``curve``
    is NaN without curves; ``eta`` and ``log_negativity`` are NaN exactly
    where the status is not ok (an ok point has passed the residual check,
    so neither is NaN there).
    """

    axis: np.ndarray
    curve: np.ndarray
    n_s: np.ndarray
    g_eff: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    routh_stable: np.ndarray
    spectral_stable: np.ndarray
    eta: np.ndarray
    log_negativity: np.ndarray
    status: np.ndarray


@dataclass(frozen=True)
class PointResult:
    """Full evaluation of one operating point."""

    steady: SteadyState
    stability: StabilityReport
    covariance: CovarianceMatrix | None
    report: EntanglementReport | None
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
    ok, sig, det_v, eta = _checked_eta(res, v)
    status[solved[~ok]] = STATUS_ERROR
    return _Stack(stability, status, solved, v, res, condition, ill, solved[ok], sig, det_v, eta)


def _checked_eta(res: np.ndarray, v: np.ndarray):
    """The checks after a solve, in order: residual, then a physical CM.

    `res` holds the Lyapunov residual of each covariance matrix of the stack
    `v`.  Returns ``ok``, False where the residual exceeds
    :data:`RESIDUAL_LIMIT` or the rescaled CM is non-physical, and sigma,
    det V and eta of the ok matrices (see :func:`gaussian.eta_stack`).
    """
    ok = res <= RESIDUAL_LIMIT
    sig, det_v, eta, physical = gaussian.eta_stack(gaussian.CM_SCALE * v[ok])
    ok[ok] = physical
    return ok, sig[physical], det_v[physical], eta[physical]


def evaluate_point(
    params: PhysicalParams,
    delta_norm: float,
    n_th: float | None = None,
) -> PointResult:
    """Steady state -> stability -> covariance -> entanglement at one point.

    Unstable and marginal points carry a status instead of a report.  The
    `report` uses the standard-convention rescaling (:data:`gaussian.CM_SCALE`)
    with the configured eta factor.  The point runs through the same stacked
    pipeline as :func:`run_sweep`.
    """
    if n_th is None:
        n_th = thermal_occupation(params.temperature, params.omega_m)
    require_finite(delta_norm=delta_norm, n_th=n_th)
    if n_th < 0:
        raise ConfigError("n_th must be >= 0")
    steady = steady_states(delta_norm * params.omega_m, params.power, params.beta, params)
    stack = _evaluate(params, steady, n_th)
    covariance = report = None
    if stack.solved.size:
        covariance = CovarianceMatrix(
            v=stack.v[0],
            residual=float(stack.residual[0]),
            condition=float(stack.condition[0]),
            ill_conditioned=bool(stack.ill[0]),
        )
    if stack.reported.size:
        report = gaussian.entanglement_report(
            stack.sigma[0], stack.det_v[0], stack.eta[0], params.convention_eta_factor
        )
    return PointResult(
        steady=steady,
        stability=StabilityReport(
            **{name: np.asarray(value).item() for name, value in vars(stack.stability).items()}
        ),
        covariance=covariance,
        report=report,
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


def run_sweep(spec: SweepSpec) -> Sweep:
    """Evaluate the full grid, curves outer, axis inner.

    All points go through the pipeline as one stack; a point's row does not
    depend on the other points of the grid.
    """
    spec.validate()
    values = _grid_values(spec)
    params = spec.fixed
    delta_eff = values["delta_norm"] * params.omega_m
    steady = steady_states(delta_eff, values["power"], values["beta"], params)
    stack = _evaluate(params, steady, values["n_th"])

    eta, log_neg = np.full((2, stack.status.size), np.nan)
    eta[stack.reported] = stack.eta
    log_neg[stack.reported] = gaussian.log_negativity_of(stack.eta, params.convention_eta_factor)
    curves = np.array(spec.curves if spec.curves is not None else [np.nan], dtype=float)
    return Sweep(
        axis=np.tile(spec.grid(), len(curves)),
        curve=np.repeat(curves, spec.count),
        n_s=steady.n_s,
        g_eff=steady.g_eff,
        s1=stack.stability.s1,
        s2=stack.stability.s2,
        routh_stable=stack.stability.routh_stable,
        spectral_stable=stack.stability.spectral_stable,
        eta=eta,
        log_negativity=log_neg,
        status=stack.status,
    )


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


_format_float = "{:.17g}".format


def _format_optional(value: float | None) -> str:
    return "" if value is None else _format_float(value)


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


_COLUMNS = tuple(column.name for column in fields(Sweep))
# CSV formatter of each column that does not hold plain floats
_FORMATS = dict(curve=_format_optional, eta=_format_optional, log_negativity=_format_optional,
                routh_stable=_format_bool, spectral_stable=_format_bool, status=str)
CSV_HEADER = ",".join(_COLUMNS)
# json.dumps with separators builds a new encoder per call; one serves every line
_JSON = json.JSONEncoder(separators=(",", ":"))


def _column(sweep: Sweep, name: str) -> list:
    """One column as Python values; NaN in an optional column becomes None."""
    values = getattr(sweep, name).tolist()
    if _FORMATS.get(name) is _format_optional:
        return [None if value != value else value for value in values]
    return values


def emit(sweep: Sweep, fmt: str = "csv") -> bytes:
    """Serialize a sweep to CSV or JSONL bytes, with the columns of :data:`CSV_HEADER`.

    Floats carry 17 significant digits and round-trip exactly; an absent
    value is an empty CSV cell or a JSON null.  Identical inputs produce
    byte-identical output.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'jsonl'")
    if fmt == "csv":
        cells = [list(map(_FORMATS.get(n, _format_float), _column(sweep, n))) for n in _COLUMNS]
        return ("\n".join([CSV_HEADER, *map(",".join, zip(*cells))]) + "\n").encode()
    columns = [_column(sweep, name) for name in _COLUMNS]
    lines = [_JSON.encode(dict(zip(_COLUMNS, row))) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode() if lines else b""


# Fractions of n_hi at which Simon's quartic is sampled, and the inverse
# Vandermonde matrix that maps the five samples to its coefficients.
_NODES = np.linspace(0.0, 1.0, 5)
_FIT = np.linalg.inv(np.vander(_NODES, increasing=True))


def _predicted_path(quartic: list[float], n_hi: float, lo: float, hi: float, rel_tol: float):
    """The midpoints that bisecting [lo, hi] visits if the sign of `quartic` decides each.

    `quartic` holds c0..c4 in t = n_th/n_hi of Simon's P = det W - sigma(W)/f^2
    + 1/f^4 = (eta^2 - 1/f^2)(eta_+^2 - 1/f^2) for W = CM_SCALE * V(n_th), so
    P < 0 where f * eta < 1 < f * eta_+ (Simon, PRL 84, 2726 (2000)).
    """
    c0, c1, c2, c3, c4 = quartic
    path = []
    while hi - lo > rel_tol * max(lo, 1.0):
        mid = (lo + hi) / 2.0
        path.append(mid)
        t = mid / n_hi
        if c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))) < 0.0:
            lo = mid
        else:
            hi = mid
    return path


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
    solve give V(n_th) = V0 + n_th * V1.  Simon's quartic in n_th predicts
    the bisection's path, and the checks of :func:`evaluate_point` decide 0,
    `n_hi` and every predicted midpoint as one stack; a midpoint off the
    path starts a new prediction from there, checked as one more stack.
    """
    require_finite(delta_norm=delta_norm, n_hi=n_hi, rel_tol=rel_tol)
    if not n_hi > 0.0:
        raise ConfigError(f"n_hi must be > 0, got {n_hi!r}")
    if not rel_tol >= _EPS:  # below it the interval stops shrinking
        raise ConfigError(f"rel_tol must be >= {_EPS!r}, got {rel_tol!r}")
    steady = steady_states(delta_norm * params.omega_m, params.power, params.beta, params)
    a, stability = stability_stack(steady, params)
    if not stability.spectral_stable or stability.marginal:
        return 0.0
    gamma_m, kappa, f = params.gamma_m, params.kappa, params.convention_eta_factor
    step = np.zeros((4, 4))
    step[1, 1] = 2.0 * gamma_m  # D(n_th + 1) - D(n_th)
    (v0, v1), _, _, _ = solve_stack(a, np.stack([diffusion_matrix(gamma_m, kappa, 0.0), step]))
    # V(n_th) is affine in n_th, so Simon's P is a quartic: fit it to five samples
    w = gaussian.CM_SCALE * (v0 + (n_hi * _NODES)[:, None, None] * v1)
    simon = np.linalg.det(w) - gaussian.sigma(w) / f**2 + f**-4
    quartic = (_FIT @ simon).tolist()

    def entangled(n_th: list[float]) -> dict[float, bool]:
        n = np.array(n_th)
        v = v0 + n[:, None, None] * v1
        ok, _, _, eta = _checked_eta(residual(a, v, diffusion_matrix(gamma_m, kappa, n)), v)
        ok[ok] = gaussian.log_negativity_of(eta, f) > 0
        return dict(zip(n_th, ok.tolist()))

    lo, hi = 0.0, n_hi
    verdicts = entangled([lo, hi, *_predicted_path(quartic, n_hi, lo, hi, rel_tol)])
    if not verdicts[lo]:
        return 0.0
    if verdicts[hi]:
        raise ConfigError(f"still entangled at n_th = {n_hi}; raise n_hi")
    while hi - lo > rel_tol * max(lo, 1.0):
        mid = (lo + hi) / 2.0
        if mid not in verdicts:
            verdicts.update(entangled(_predicted_path(quartic, n_hi, lo, hi, rel_tol)))
        if verdicts[mid]:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
