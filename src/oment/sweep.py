"""Parameter sweeps with stability gating, figure presets and flat-file output.

A sweep evaluates its whole grid as array stacks in one pass through the
pipeline; a single point calls the same stages itself, 0-d, on its own 4x4
matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from . import _lapack, gaussian
from .gaussian import EntanglementReport
from .linmodel import StabilityReport, _diffusion_matrix, _drift_matrix, _routh_conditions
from .linmodel import _stability_stack
from .lyapunov import CovarianceMatrix, _residual, _solve_stack
from .params import ConfigError, PhysicalParams, check_range, default_params
from .params import require_finite, thermal_occupation
from .steadystate import SteadyState, _steady_states

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
THRESHOLD_REL_TOL = 1e-3  # the threshold bisection stops at a width <= this * max(lo, 1)


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
        numbers = dict(
            start=(self.start,),
            stop=(self.stop,),
            delta_norm=(self.delta_norm,),
            n_th=() if self.n_th is None else (self.n_th,),
            curves=() if self.curves is None else self.curves,
            curve_delta_norms=() if self.curve_delta_norms is None else self.curve_delta_norms,
        )
        for name, values in numbers.items():
            for value in values:
                require_finite(**{name: value})
        if not self.start < self.stop:
            raise ConfigError("start must be < stop")
        span = float(self.stop) - float(self.start)
        if not math.isfinite(span):  # np.linspace steps by it
            raise ConfigError(f"stop - start must be finite, got {span!r}")
        if not isinstance(self.count, (int, np.integer)):
            raise ConfigError(f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ConfigError("count must be >= 2")
        if self.curves is not None:
            if not len(self.curves):
                raise ConfigError("curves must not be empty")
            if self.curve_param == self.axis:
                raise ConfigError("swept axis duplicated in curves")
            if self.curve_param not in AXES:
                raise ConfigError(f"curve parameter must be one of {AXES}")
            if self.curve_delta_norms is not None and len(self.curve_delta_norms) != len(
                self.curves
            ):
                raise ConfigError("curve_delta_norms must match curves in length")
        elif self.curve_delta_norms is not None:
            raise ConfigError("curve_delta_norms must come with curves")
        ranges = {self.axis: (self.start, self.stop)}
        if self.curves is not None:
            ranges[self.curve_param] = self.curves
        if self.n_th is not None:
            ranges.setdefault("n_th", self.n_th)
        ranges.pop("delta_norm", None)  # any finite detuning is in range
        check_range(**ranges)

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class Sweep:
    """Figure data as columns, one entry per grid point, curves outer.

    The fields are the output columns of :func:`emit`, in order.
    ``spectral_stable`` is the quartic gate's verdict, beta included, and
    ``routh_stable`` the beta = 0 closed form of s1, s2, which the gate does
    not read.  ``curve`` is NaN without curves; ``eta`` and ``log_negativity``
    are NaN exactly where the status is not ok (an ok point has passed the
    residual check, so neither is NaN there).
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


@dataclass(slots=True)
class PointResult:
    """Full evaluation of one operating point."""

    steady: SteadyState
    stability: StabilityReport
    covariance: CovarianceMatrix | None
    report: EntanglementReport | None
    status: str


@dataclass(frozen=True)
class _Stack:
    """Every stage of the pipeline over a grid of points.

    ``stability`` has one entry per operating point, ``status`` one per grid
    point, flattened.  ``v``, ``residual``, the entanglement arrays and
    ``ok``, which marks those whose status is ok, cover the grid points listed
    in ``solved``; ``condition`` and ``ill`` cover their operating points.
    """

    stability: StabilityReport
    status: np.ndarray
    solved: np.ndarray
    v: np.ndarray
    residual: np.ndarray
    condition: np.ndarray
    ill: np.ndarray
    ok: np.ndarray
    sigma: np.ndarray
    det_v: np.ndarray
    eta: np.ndarray


# Gate outcome by 3 * undecided + stable + marginal; an undecided point is
# neither stable nor marginal, so each of the four outcomes has its own index.
# Only outcome 1, stable and not marginal, is solved.
_GATE_STATUS = np.array([STATUS_UNSTABLE, STATUS_OK, STATUS_MARGINAL, STATUS_ERROR])


def _gate(report: StabilityReport):
    """Gate outcome of each operating point of `report`, and its status."""
    # the int first: numpy adds two bool arrays as a logical or
    gate = 3 * report.undecided + report.spectral_stable + report.marginal
    return gate, _GATE_STATUS[gate]


def _drift(params: PhysicalParams, delta_eff, g_eff, beta) -> np.ndarray:
    """Drift matrices of the points that pass the gate, elementwise."""
    return _drift_matrix(params.omega_m, params.gamma_m, params.kappa, delta_eff, g_eff, beta)


def _operating_groups(op_shape: tuple, shape: tuple) -> np.ndarray:
    """Flat grid indices by operating point: row i holds the grid points of
    operating point i, in grid order.

    The grid has `shape`; the operating points, of `op_shape`, broadcast to
    it, so each repeats along the axes where `op_shape` is 1 (n_th values).
    """
    n = math.prod(op_shape)
    owner = np.broadcast_to(np.arange(n).reshape(op_shape), shape).reshape(-1)
    return np.argsort(owner, kind="stable").reshape(n, -1)


def _evaluate(params: PhysicalParams, steady: SteadyState, n_th) -> _Stack:
    """Stability gate -> covariance -> entanglement at every point of a grid.

    The fields of `steady` hold one operating point each and broadcast
    against `n_th` to the grid; `params` supplies the rest.  Only the
    diffusion depends on n_th, so the gate and the Lyapunov systems run once
    per operating point and the solve once per grid point, each (drift,
    diffusion) pair on its own.  Only the operating points that pass the gate
    get a drift matrix and a solve; undecided points, and points whose
    residual exceeds :data:`RESIDUAL_LIMIT` or whose CM is non-physical, get
    status ``error``.  It runs under its entry point's error state.
    """
    stability = _stability_stack(steady, params)
    gate, status = _gate(stability)
    # an n_th axis or n_th curves: an operating point spans several grid points
    shape = np.broadcast(gate, n_th).shape
    status = np.broadcast_to(status, shape).flatten()
    solved = np.flatnonzero(gate == 1)
    a = _drift(params, *(
        np.broadcast_to(x, gate.shape).reshape(-1)[solved]
        for x in (steady.delta_eff, steady.g_eff, steady.beta)
    ))
    if shape != gate.shape:  # each drift matrix meets the diffusion matrices of its grid points
        a, solved = a[:, None], _operating_groups(gate.shape, shape)[solved]
    n_th = np.full(shape, n_th).reshape(-1)[solved]
    d = _diffusion_matrix(params.gamma_m, params.kappa, n_th)
    v, condition, ill = _solve_stack(a, d)
    ok, res, sig, det_v, eta = (x.reshape(-1) for x in _checked_eta(a, v, d))
    solved = solved.reshape(-1)
    status[solved[~ok]] = STATUS_ERROR
    return _Stack(
        stability, status, solved, v.reshape(-1, 4, 4), res, condition.reshape(-1),
        ill.reshape(-1), ok, sig, det_v, eta,
    )


def _checked_eta(a: np.ndarray, v: np.ndarray, d: np.ndarray):
    """The one check step after a solve: residual, then a physical CM.

    `a`, `v` and `d` are the solve's stacks.  Returns ``(ok, residual,
    sigma, det V, eta)`` of every matrix of `v`, ``ok`` False where the
    residual exceeds :data:`RESIDUAL_LIMIT` or the rescaled CM is
    non-physical (see :func:`gaussian.eta_stack`); each is checked alone.
    """
    res = _residual(a, v, d)
    sig, det_v, eta, physical = gaussian._eta_stack(gaussian.CM_SCALE * v)
    return (res <= RESIDUAL_LIMIT) & physical, res, sig, det_v, eta


def evaluate_point(
    params: PhysicalParams, delta_norm: float, n_th: float | None = None
) -> PointResult:
    """Steady state -> stability -> covariance -> entanglement at one point.

    Unstable and marginal points carry a status instead of a report, which
    uses :data:`gaussian.CM_SCALE` and :data:`gaussian.ETA_FACTOR`.  The point
    calls the stages and checks of :func:`run_sweep` itself, on Python scalars
    wherever a stage's result is 0-d.  `params` is checked by
    :class:`~oment.params.PhysicalParams`, `delta_norm` and `n_th` here, and
    no stage checks them again.  Only a point that passes the gate, which
    runs on Python floats, enters an error state.
    """
    if n_th is None:
        n_th = thermal_occupation(params.temperature, params.omega_m)
    require_finite(delta_norm=delta_norm, n_th=n_th)
    delta_norm, n_th = float(delta_norm), float(n_th)  # so the report holds Python scalars
    if not n_th >= 0.0:  # check_range's rule, compared inline on the hot path
        check_range(n_th=n_th)
    steady = _steady_states(delta_norm * params.omega_m, params.power, params.beta, params)
    stability = _stability_stack(steady, params)
    gate, status = _gate(stability)
    if gate == 1:
        return _solved_point(params, steady, stability, n_th)
    return PointResult(steady, stability, None, None, str(status))


@np.errstate(all="ignore")
def _solved_point(params, steady, stability, n_th: float) -> PointResult:
    """The rest of :func:`evaluate_point` where the gate passes: drift, solve, check step."""
    a = _drift(params, steady.delta_eff, steady.g_eff, steady.beta)
    d = _diffusion_matrix(params.gamma_m, params.kappa, n_th)
    v, condition, ill = _solve_stack(a, d)
    ok, res, sig, det_v, eta = _checked_eta(a, v, d)
    report = gaussian.entanglement_report(sig, det_v, eta) if ok else None
    covariance = CovarianceMatrix(v, res, condition, ill)
    return PointResult(steady, stability, covariance, report, STATUS_OK if ok else STATUS_ERROR)


def _grid_values(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Values of the four axes on the grid of shape (curves, count), curves outer.

    Each value has the broadcast shape of what it varies with: (1, count)
    for the axis, (curves, 1) for the curve parameter and a curve's detuning,
    (1, 1) for a fixed value.  A curve's ``curve_delta_norms`` entry sets its
    detuning, the curve value then sets `curve_param` and the grid value sets
    `axis`, in that order.
    """
    fixed = spec.fixed
    n_th = spec.n_th
    if n_th is None:
        n_th = thermal_occupation(fixed.temperature, fixed.omega_m)
    base = {"delta_norm": spec.delta_norm, "beta": fixed.beta, "n_th": n_th, "power": fixed.power}
    values = {name: np.full((1, 1), float(value)) for name, value in base.items()}
    if spec.curves is not None:
        if spec.curve_delta_norms is not None:
            values["delta_norm"] = np.array(spec.curve_delta_norms, dtype=float)[:, None]
        values[spec.curve_param] = np.array(spec.curves, dtype=float)[:, None]
    values[spec.axis] = spec.grid()[None, :]
    return values


@np.errstate(all="ignore")
def run_sweep(spec: SweepSpec) -> Sweep:
    """Evaluate the full grid, curves outer, axis inner.

    The grid goes through the pipeline as one stack: every stage that does
    not depend on n_th runs once per operating point, and a point's row does
    not depend on the other points of the grid.  :meth:`SweepSpec.validate`
    checks every grid value.
    """
    spec.validate()
    values = _grid_values(spec)
    params = spec.fixed
    delta_eff = values["delta_norm"] * params.omega_m
    steady = _steady_states(delta_eff, values["power"], values["beta"], params)
    stack = _evaluate(params, steady, values["n_th"])

    eta, log_neg = np.full((2, stack.status.size), np.nan)
    reported = stack.solved[stack.ok]
    eta[reported] = stack.eta[stack.ok]
    log_neg[reported] = gaussian.log_negativity_of(eta[reported])
    curves = np.array(spec.curves if spec.curves is not None else [np.nan], dtype=float)
    s1, s2 = _routh_conditions(
        params.omega_m, params.gamma_m, params.kappa, steady.delta_eff, steady.g_eff
    )
    # steady-state and Routh columns vary with fewer parameters than the grid
    columns = np.broadcast_arrays(
        steady.n_s, steady.g_eff, s1, s2, (s1 > 0) & (s2 > 0),
        stack.stability.spectral_stable, stack.status.reshape(len(curves), spec.count),
    )
    n_s, g_eff, s1, s2, routh_stable, spectral_stable, status = (c.reshape(-1) for c in columns)
    return Sweep(
        axis=np.tile(spec.grid(), len(curves)), curve=np.repeat(curves, spec.count), n_s=n_s,
        g_eff=g_eff, s1=s1, s2=s2, routh_stable=routh_stable, spectral_stable=spectral_stable,
        eta=eta, log_negativity=log_neg, status=status,
    )


_BETAS = (0.0, 0.2, 0.4, 0.6)
# Each preset's SweepSpec fields that differ from a 201-point detuning sweep on
# [-2, 0], and the base parameters that it replaces.
_PRESETS = {
    "fig1a": ({}, dict(power=0.7e-3, beta=0.0)),
    "fig1b": ({}, dict(power=10e-3, beta=0.0)),
    "fig2a": (dict(curves=_BETAS), dict(power=10e-3)),
    "fig2b": (dict(axis="beta", start=0.0, stop=0.6, delta_norm=-0.5), dict(power=10e-3)),
    "fig3": (
        dict(axis="n_th", start=0.0, stop=3000.0, curves=_BETAS,
             curve_delta_norms=(-1.0, -0.5, -0.5, -0.5)),
        dict(power=10e-3),
    ),
}
FIGURE_NAMES = tuple(_PRESETS)


def figure_preset(name: str, base: PhysicalParams | None = None) -> SweepSpec:
    """Sweep specification reproducing one of the reference figures.

    fig1a/fig1b: detuning sweeps at 0.7 mW / 10 mW in the linear regime;
    fig2a: detuning sweep at 10 mW with nonlinearity curves; fig2b:
    nonlinearity sweep at the enhanced detuning -0.5; fig3: bath-occupation
    sweep at 10 mW, the linear curve at its optimum -1 and the nonlinear
    curves at theirs, -0.5.
    """
    if name not in FIGURE_NAMES:
        raise ConfigError(f"unknown figure preset {name!r}; expected one of {FIGURE_NAMES}")
    sweep_fields, param_fields = _PRESETS[name]
    params = base if base is not None else default_params()
    sweep_fields = dict(axis="delta_norm", start=-2.0, stop=0.0, count=201) | sweep_fields
    return SweepSpec(**sweep_fields, fixed=replace(params, **param_fields))


_COLUMNS = tuple(column.name for column in fields(Sweep))
CSV_HEADER = ",".join(_COLUMNS)
# columns in which NaN marks an absent value: an empty CSV cell, a JSON null
_OPTIONAL = frozenset({"curve", "eta", "log_negativity"})
_FLAGS = frozenset({"routh_stable", "spectral_stable"})
# json.dumps with separators builds a new encoder per call; one serves every column
_JSON = json.JSONEncoder(separators=(",", ":"))


def _distinct(keys: np.ndarray):
    """The distinct keys of each row of the 2-d array `keys`, row after row.

    Returns them, the end of each row's share of them, and for every entry
    of `keys` the index of its key among them.
    """
    order = keys.argsort(axis=1)
    order += keys.shape[1] * np.arange(len(keys))[:, None]  # flat positions
    ordered = keys.ravel()[order]
    first = np.ones(keys.shape, bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    inverse = np.empty(keys.size, np.intp)
    inverse[order.ravel()] = first.cumsum() - 1
    return ordered[first], first.sum(axis=1).cumsum().tolist(), inverse.reshape(keys.shape)


def _flag_text(values: np.ndarray) -> list[str]:
    return ["true" if value else "false" for value in values.tolist()]


def _mark_absent(name: str, values: np.ndarray, text: list[str], absent: str) -> list[str]:
    """`text` of `values`, with `absent` for NaN in an optional column."""
    if name in _OPTIONAL:
        for index in np.flatnonzero(np.isnan(values)).tolist():
            text[index] = absent
    return text


def _csv_cells(name: str, values: np.ndarray) -> list[str]:
    """CSV text of the distinct values of column `name`."""
    if name == "status":
        return values.tolist()
    if name in _FLAGS:
        return _flag_text(values)
    # float.__format__ is "{:.17g}".format without parsing the template per value
    text = list(map(float.__format__, values.tolist(), repeat(".17g")))
    return _mark_absent(name, values, text, "")


def _jsonl_cells(name: str, values: np.ndarray) -> list[str]:
    """JSON members ``"name":value`` for the distinct values of column `name`."""
    if name == "status":
        text = list(map(_JSON.encode, values.tolist()))
    elif name in _FLAGS:
        text = _flag_text(values)
    else:  # one encoder call for the column: no encoded number holds a comma
        text = _JSON.encode(values.tolist())[1:-1].split(",") if values.size else []
        for index in np.flatnonzero(~np.isfinite(values)).tolist():  # JSON has no inf, NaN
            text[index] = f'"{values[index]:.17g}"'
        text = _mark_absent(name, values, text, "null")
    key = f'"{name}":'
    return [key + value for value in text]


def emit(sweep: Sweep, fmt: str = "csv") -> bytes:
    """Serialize a sweep to CSV or JSONL bytes, with the columns of :data:`CSV_HEADER`.

    Floats carry 17 significant digits and round-trip exactly; an absent
    value is an empty CSV cell or a JSON null, and any other infinite or NaN
    number a JSON string of its CSV text.  Each column's distinct values are
    encoded once and mapped back to its rows, and both formats join a row's
    cells with commas: only the cell encoder differs between them.
    Identical inputs produce byte-identical output.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'jsonl'")
    encode = _csv_cells if fmt == "csv" else _jsonl_cells
    # Every column but the last, status, holds numbers: they are told apart by
    # the bits of their float value, so that 0.0 and -0.0, and every NaN,
    # keep their own text.  A status word is told apart by its rank.
    words, ranks = np.unique(sweep.status, return_inverse=True)
    columns = np.array([*(getattr(sweep, name) for name in _COLUMNS[:-1]), ranks], dtype=float)
    distinct, ends, inverse = _distinct(columns.view(np.uint64))
    text = []
    for name, start, end in zip(_COLUMNS, [0, *ends], ends):
        values = distinct[start:end].view(float)
        text += encode(name, words[values.astype(np.intp)] if name == "status" else values)
    lines = list(map(",".join, zip(*np.fromiter(text, object, len(text))[inverse].tolist())))
    if fmt == "csv":
        return ("\n".join([CSV_HEADER, *lines]) + "\n").encode()
    return ("{" + "}\n{".join(lines) + "}\n").encode() if lines else b""


# Fractions of n_hi at which Simon's quartic is sampled, and the inverse
# Vandermonde matrix that maps the five samples to its coefficients.
_NODES = np.linspace(0.0, 1.0, 5)
_FIT = np.linalg.inv(np.vander(_NODES, increasing=True))


def _predicted_path(quartic: list[float], n_hi: float, lo: float, hi: float):
    """The midpoints that bisecting [lo, hi] visits if the sign of `quartic` decides each.

    `quartic` holds c0..c4 in t = n_th/n_hi of Simon's P = det W - sigma(W)/f^2
    + 1/f^4 = (eta^2 - 1/f^2)(eta_+^2 - 1/f^2) for W = CM_SCALE * V(n_th), so
    P < 0 where f * eta < 1 < f * eta_+ (Simon, PRL 84, 2726 (2000)).
    """
    c0, c1, c2, c3, c4 = quartic
    path = []
    while hi - lo > THRESHOLD_REL_TOL * max(lo, 1.0):
        mid = lo / 2.0 + hi / 2.0  # (lo + hi) / 2.0 without overflowing
        path.append(mid)
        t = mid / n_hi
        if c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))) < 0.0:
            lo = mid
        else:
            hi = mid
    return path


@np.errstate(all="ignore")
def nth_entanglement_threshold(
    params: PhysicalParams,
    delta_norm: float,
    n_hi: float = 8000.0,
) -> float:
    """Bath occupation where the log-negativity crosses zero, by bisection.

    Requires entanglement at n_th = 0 and none at `n_hi`; the threshold is
    located to relative axis precision :data:`THRESHOLD_REL_TOL`.  Only the
    diffusion depends on n_th and A V + V A^T = -D is linear in D, so one
    stability gate and one solve give V(n_th) = V0 + n_th * V1.  Simon's quartic in n_th predicts
    the bisection's path, and the checks of :func:`evaluate_point` decide 0,
    `n_hi` and every predicted midpoint as one stack; a midpoint off the
    path starts a new prediction from there, checked as one more stack.
    `params` is checked by :class:`~oment.params.PhysicalParams` and the
    other arguments here.
    """
    require_finite(delta_norm=delta_norm, n_hi=n_hi)
    check_range(n_hi=n_hi)
    steady = _steady_states(delta_norm * params.omega_m, params.power, params.beta, params)
    if _gate(_stability_stack(steady, params))[0] != 1:
        return 0.0
    a = _drift(params, steady.delta_eff, steady.g_eff, steady.beta)
    gamma_m, kappa, f = params.gamma_m, params.kappa, gaussian.ETA_FACTOR
    step = np.zeros((4, 4))
    step[1, 1] = 2.0 * gamma_m  # D(n_th + 1) - D(n_th)
    (v0, v1), *_ = _solve_stack(a, np.array([_diffusion_matrix(gamma_m, kappa, 0.0), step]))
    # V(n_th) is affine in n_th, so Simon's P is a quartic: fit it to five samples
    w = gaussian.CM_SCALE * (v0 + (n_hi * _NODES)[:, None, None] * v1)
    simon = _lapack.det(w) - gaussian._sigma(w) / f**2 + f**-4
    quartic = (_FIT @ simon).tolist()

    def entangled(n_th: list[float]) -> dict[float, bool]:
        n = np.array(n_th)
        v = v0 + n[:, None, None] * v1
        ok, *_, eta = _checked_eta(a, v, _diffusion_matrix(gamma_m, kappa, n))
        ok &= f * eta < 1.0  # entangled, by the rule of gaussian.entanglement_report
        return dict(zip(n_th, ok.tolist()))

    lo, hi = 0.0, n_hi
    verdicts = entangled([lo, hi, *_predicted_path(quartic, n_hi, lo, hi)])
    if not verdicts[lo]:
        return 0.0
    if verdicts[hi]:
        raise ConfigError(f"still entangled at n_th = {n_hi}; raise n_hi")
    while hi - lo > THRESHOLD_REL_TOL * max(lo, 1.0):
        mid = lo / 2.0 + hi / 2.0
        if mid not in verdicts:
            verdicts.update(entangled(_predicted_path(quartic, n_hi, lo, hi)))
        if verdicts[mid]:
            lo = mid
        else:
            hi = mid
    return lo / 2.0 + hi / 2.0
