"""Reference implementations the library is checked against.

* :func:`records_point_by_point` is the per-point sweep loop that the stacked
  sweep replaced, over the points of :func:`grid_points`; a sweep must
  reproduce its columns byte for byte.
* :func:`emit_cell_by_cell` is the serializer that formatted every cell on
  its own; :func:`oment.emit` must write the same bytes.
* :func:`nth_threshold_point_by_point` is the thermal-threshold bisection
  that evaluated one midpoint per :func:`oment.evaluate_point` call; the
  stacked search must return the same float.
* :func:`lyapunov_system_loop` builds the 10x10 Lyapunov system column by
  column, as the solver did before it used a coefficient tensor.
* :func:`lyapunov_exact` solves A V + V A^T = -D and :func:`eta_exact` takes
  eta in exact rational arithmetic on the float inputs, sharing no code with
  :func:`oment.solve_stack` or :func:`oment.eta_stack`;
  :func:`relative_error` measures a float matrix against an exact one, and
  :func:`drift_and_diffusion` gives a solve's inputs at a steady state.
* :func:`eta_spectrum` takes eta from a general ``eigvals`` of Omega V~, the
  spectral route that :func:`oment.eta_stack` cross-checked against before it
  used a Cholesky factor; it shares no code with either library route.
* :func:`sigma_three_dets` and :func:`residual_by_norm` are sigma with one
  ``np.linalg.det`` per block and the Lyapunov residual through
  ``np.linalg.norm``, as the library computed them before it took one
  stacked ``det`` and plain sums; the library must give the same bits.
* :func:`blue_threshold_closed_form` and :func:`red_threshold_closed_form`
  are the coupling thresholds with the Routh-Hurwitz brackets written out, as
  the library computed them before it took them from
  :func:`oment.routh_conditions`; the library must give the same bits.
* :func:`threshold_in_fractions` is a coupling threshold in exact rational
  arithmetic, rounded at the end, where a float square of a rate overflows
  or underflows.
* :func:`bare_states_array_path` is the photon numbers and effective
  detunings of :func:`oment.from_bare_detuning`, selected and sorted on numpy
  arrays as the library did before it kept the roots as Python floats; the
  library must give the same bits.  Its roots are those of
  :func:`real_roots_array_path`: every root polished, a complex pair too,
  and then filtered, as the library did before it dropped a pair clear of
  the real axis unpolished.
* :func:`cubic_roots_array_polish` is every root of the cubic, the companion
  matrix's ``np.linalg.eigvals`` each with one Newton step on numpy arrays,
  all-real roots too, as the library polished them before it took Python
  floats there and kept only the real roots; those must have the same bits.
  :func:`newton_step_array` is that polish of a given root array.
  :func:`real_roots_array_filter` keeps the near-real roots of a complex
  root array on numpy arrays, as :func:`oment.from_bare_detuning` did before
  it filtered Python complexes; the library must keep the same floats.
* :func:`characteristic_quartic` is the drift's characteristic quartic with
  the nonlinearity beta in it, which :func:`oment.routh_conditions` (written
  for beta = 0) leaves out, and :func:`hurwitz_determinants` its Routh-Hurwitz
  test; :func:`hurwitz_with_beta` adds the scale of each determinant and
  :func:`hurwitz_in_fractions` takes them in exact rational arithmetic on the
  same float inputs.
* :func:`routh_agrees_with_spectral` compares the beta = 0 Routh-Hurwitz
  verdict with the spectral one at the :func:`rates` of a point drawn from
  :data:`RATE_RANGES`.
* :func:`spectral_verdict` and :func:`gate_by_eigvals` are the stability gate
  as the library took it before it tested the quartic: the spectral
  abscissa of the drift matrix from ``eigvals``, the oracle the quartic gate
  is checked against.  :func:`gate_exact` is the gate's exact verdict.
* :func:`report_of` is the entanglement report of one covariance matrix,
  through the stacked :func:`oment.eta_stack`, for a matrix that must be
  physical.
* :func:`two_mode_squeezed_cm` and :func:`inverse_thermal_occupation` are
  closed forms that the tests build inputs and expected values from, and
  :func:`matrix_stack` builds random matrix stacks in several memory layouts.
* :func:`record_gufunc_calls` records the calls that reach numpy's LAPACK
  gufuncs, which the library calls without the ``np.linalg`` wrappers, and
  :func:`run_pipeline` runs every entry point of the pipeline once.
"""

import decimal
import json
import math
import operator
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from oment import (
    MARGINAL_ABSCISSA_FACTOR,
    Sweep,
    drive_amplitude,
    drift_matrix,
    entanglement_report,
    eta_stack,
    evaluate_point,
    figure_preset,
    diffusion_matrix,
    from_bare_detuning,
    nth_entanglement_threshold,
    routh_conditions,
    run_sweep,
    spectral_abscissa,
    thermal_occupation,
)
from oment._elementwise import square
from oment.constants import HBAR, K_B


def grid_points(spec):
    """``(axis value, curve, params, delta_norm, n_th)`` of every grid point of
    `spec`, curves outer, with `n_th` None where the spec leaves it to the
    bath temperature."""
    spec.validate()
    curves = spec.curves if spec.curves is not None else (None,)
    for index, curve in enumerate(curves):
        for axis_value in spec.grid():
            values = {
                "delta_norm": spec.delta_norm,
                "beta": spec.fixed.beta,
                "power": spec.fixed.power,
                "n_th": spec.n_th,
            }
            if curve is not None:
                if spec.curve_delta_norms is not None:
                    values["delta_norm"] = spec.curve_delta_norms[index]
                values[spec.curve_param] = curve
            values[spec.axis] = axis_value
            params = replace(spec.fixed, beta=values["beta"], power=values["power"])
            yield axis_value, curve, params, values["delta_norm"], values["n_th"]


def records_point_by_point(spec):
    """The :class:`oment.Sweep` of `spec`, one `evaluate_point` call per grid point.

    This is the per-point loop that the stacked sweep replaced, kept as the
    reference the sweep must reproduce byte for byte.
    """
    rows = []
    for axis_value, curve, params, delta_norm, n_th in grid_points(spec):
        point = evaluate_point(params, delta_norm, n_th)
        ok = point.status == "ok"
        rows.append(
            (
                axis_value,
                math.nan if curve is None else curve,
                point.steady.n_s,
                point.steady.g_eff,
                point.stability.s1,
                point.stability.s2,
                point.stability.routh_stable,
                point.stability.spectral_stable,
                point.report.eta if ok else math.nan,
                point.report.log_negativity if ok else math.nan,
                point.status,
            )
        )
    return Sweep(*map(np.array, zip(*rows)))


_COLUMNS = tuple(column.name for column in fields(Sweep))
_format_float = "{:.17g}".format


def _format_optional(value):
    return "" if value is None else _format_float(value)


def _format_bool(value):
    return "true" if value else "false"


# CSV formatter of each column that does not hold plain floats
_FORMATS = dict(curve=_format_optional, eta=_format_optional, log_negativity=_format_optional,
                routh_stable=_format_bool, spectral_stable=_format_bool, status=str)
_JSON = json.JSONEncoder(separators=(",", ":"))


def _column(sweep, name):
    """One column as Python values; NaN in an optional column becomes None."""
    values = getattr(sweep, name).tolist()
    if _FORMATS.get(name) is _format_optional:
        return [None if value != value else value for value in values]
    return values


def emit_cell_by_cell(sweep, fmt="csv"):
    """The CSV or JSONL bytes of `sweep`, every cell formatted on its own.

    CSV cells are ``.17g`` floats, empty for NaN in ``curve``, ``eta`` and
    ``log_negativity``, ``true``/``false`` and the status word; JSONL lines
    are one ``json`` object per row, with null for those NaN.
    """
    if fmt == "csv":
        cells = [list(map(_FORMATS.get(n, _format_float), _column(sweep, n))) for n in _COLUMNS]
        header = ",".join(_COLUMNS)
        return ("\n".join([header, *map(",".join, zip(*cells))]) + "\n").encode()
    columns = [_column(sweep, name) for name in _COLUMNS]
    lines = [_JSON.encode(dict(zip(_COLUMNS, row))) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode() if lines else b""


def nth_threshold_point_by_point(params, delta_norm, n_hi=8000.0, rel_tol=1e-3):
    """Bath occupation where E_N crosses zero, one `evaluate_point` per midpoint."""

    def entangled_at(n_th):
        point = evaluate_point(params, delta_norm, n_th)
        return point.status == "ok" and point.report.log_negativity > 0.0

    if not entangled_at(0.0):
        return 0.0
    if entangled_at(n_hi):
        raise ValueError(f"still entangled at n_th = {n_hi}")
    lo, hi = 0.0, n_hi
    while hi - lo > rel_tol * max(lo, 1.0):
        mid = (lo + hi) / 2.0
        if entangled_at(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def lyapunov_system_loop(a: np.ndarray) -> np.ndarray:
    """10x10 system of A V + V A^T on the upper-triangle unknowns of V."""
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    system = np.empty((10, 10))
    for col, (i, j) in enumerate(upper):
        basis = np.zeros((4, 4))
        basis[i, j] = 1.0
        basis[j, i] = 1.0
        image = a @ basis + basis @ a.T
        system[:, col] = [image[r, c] for r, c in upper]
    return system


# The unknowns V_ij, i <= j, of the symmetric Lyapunov equation; V_ij and V_ji
# are the same unknown.
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]
_UNKNOWN = {pair: k for k, (i, j) in enumerate(_UPPER) for pair in ((i, j), (j, i))}


def lyapunov_exact(a, d):
    """V of A V + V A^T = -D in exact rational arithmetic on the float inputs,
    as a 4x4 nested list of Fractions.  The system must be regular (a stable
    drift's is).

    Row (r, c), r <= c, of the 10x10 system is sum_k A_rk V_kc + V_rk A_ck =
    -D_rc, written from the equation rather than taken from the library's
    coefficient tensor.  Scaled to integers, it is solved by fraction-free
    Gauss-Jordan elimination, whose divisions are exact, and the solution is
    checked to satisfy every equation exactly.
    """
    a, d = ([[Fraction(x) for x in row] for row in m] for m in (a, d))
    system = []
    for r, c in _UPPER:
        row = [Fraction(0)] * 10 + [-d[r][c]]
        for k in range(4):
            row[_UNKNOWN[k, c]] += a[r][k]
            row[_UNKNOWN[r, k]] += a[c][k]
        system.append(row)
    # the denominator of a float is a power of 2, so the largest is a multiple of all
    scale = max(x.denominator for row in system for x in row)
    system = [[int(x * scale) for x in row] for row in system]
    rows, pivot = list(system), 1
    for p in range(10):
        k = next(i for i in range(p, 10) if rows[i][p])
        rows[p], rows[k] = rows[k], rows[p]
        lead = rows[p]
        rows = [
            row if row is lead else [(lead[p] * x - row[p] * y) // pivot for x, y in zip(row, lead)]
            for row in rows
        ]
        pivot = lead[p]
    # every diagonal entry is now the pivot, so unknown k is rows[k][10] / pivot
    numerators = [row[10] for row in rows]
    assert all(sum(map(operator.mul, row, numerators)) == row[10] * pivot for row in system)
    return [[Fraction(numerators[_UNKNOWN[i, j]], pivot) for j in range(4)] for i in range(4)]


def _det(m):
    """Determinant by cofactor expansion along the first row; exact on Fractions."""
    if len(m) == 1:
        return m[0][0]
    minors = ([row[:j] + row[j + 1 :] for row in m[1:]] for j in range(len(m)))
    return sum((-1) ** j * x * _det(minor) for j, (x, minor) in enumerate(zip(m[0], minors)))


def eta_exact(v):
    """eta of the CM `v`, a 4x4 of floats or Fractions that must be physical:
    sigma and det V exact, the square roots to 80 digits, rounded once to a float.

    eta^2 = (sigma - sqrt(sigma^2 - 4 det V))/2 is taken as
    2 det V / (sigma + sqrt(sigma^2 - 4 det V)), which cancels no digits.
    """
    v = [[Fraction(x) for x in row] for row in v]
    corners = ((0, 0), (2, 2), (0, 2))  # of the blocks V_m, V_cav and V_corr
    m, cav, corr = (_det([row[c : c + 2] for row in v[r : r + 2]]) for r, c in corners)
    sig, det_v = m + cav - 2 * corr, _det(v)
    with decimal.localcontext(prec=80):
        sig, det_v, radicand = (
            decimal.Decimal(q.numerator) / q.denominator
            for q in (sig, det_v, sig * sig - 4 * det_v)
        )
        return float((2 * det_v / (sig + radicand.sqrt())).sqrt())


def relative_error(v, exact):
    """Largest entry error of the float matrix `v` over the largest entry of
    the Fraction matrix `exact`, taken exactly and rounded once."""
    pairs = [(Fraction(x), e) for row, exact_row in zip(v, exact) for x, e in zip(row, exact_row)]
    return float(max(abs(x - e) for x, e in pairs) / max(abs(e) for _, e in pairs))


def drift_and_diffusion(params, steady, n_th=None):
    """The drift and diffusion matrices that the points of `steady` are solved
    from, with `n_th` None taken from the bath temperature of `params`."""
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    if n_th is None:
        n_th = thermal_occupation(params.temperature, omega_m)
    drift = drift_matrix(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff, steady.beta)
    return drift, diffusion_matrix(gamma_m, kappa, n_th)


# Symplectic form for two modes in (x1, p1, x2, p2) ordering.
_OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
# Partial transpose of the second mode flips its momentum.
_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])


def eta_spectrum(v):
    """Lowest symplectic eigenvalue of the partial transpose of each CM of a
    stack, from the spectrum of Omega V~ (eigenvalues +-i nu_1, +-i nu_2)."""
    flipped = _FLIP @ v @ _FLIP
    eigenvalues = np.linalg.eigvals(_OMEGA @ flipped)
    return np.min(np.abs(eigenvalues), axis=-1)


def sigma_three_dets(v):
    """sigma(V) = det V_m + det V_cav - 2 det V_corr, one ``det`` per block."""
    det = np.linalg.det
    return det(v[..., :2, :2]) + det(v[..., 2:, 2:]) - 2.0 * det(v[..., :2, 2:])


def residual_by_norm(a, v, d):
    """||A V + V A^T + D||_F / max(||D||_F, tiny) through ``np.linalg.norm``."""
    a, v, d = (np.asarray(m, dtype=float) for m in (a, v, d))
    num = np.linalg.norm(a @ v + v @ a.swapaxes(-1, -2) + d, axis=(-2, -1))
    return num / np.maximum(np.linalg.norm(d, axis=(-2, -1)), np.finfo(float).tiny)


MATRIX_LAYOUTS = ("contiguous", "strided", "transposed", "broadcast")
STACK_SHAPES = ((), (1,), (5,), (1, 1), (2, 3), (4, 1), (1, 4))


def matrix_stack(seed, shape: tuple, layout: str) -> np.ndarray:
    """A ``(*shape, 4, 4)`` stack of random matrices, each scaled by a factor
    from 1e-4 to 1e4, in one of :data:`MATRIX_LAYOUTS`: C order, every other
    row and column of 8x8 matrices, each matrix column-major, or one matrix
    repeated with stride 0 along the last stack axis."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(shape + (4, 4)) * 10.0 ** rng.uniform(-4.0, 4.0, shape + (1, 1))
    if layout == "strided":
        big = np.zeros(shape + (8, 8))
        big[..., ::2, ::2] = base
        return big[..., ::2, ::2]
    if layout == "transposed":
        return np.ascontiguousarray(base.swapaxes(-1, -2)).swapaxes(-1, -2)
    if layout == "broadcast" and shape:
        return np.broadcast_to(base[..., :1, :, :], base.shape)
    return base


def blue_threshold_closed_form(omega_m, kappa, delta):
    """Coupling where s2 crosses zero, sqrt(omega_m (delta^2 + kappa^2/4) / (-delta))."""
    return float(np.sqrt(omega_m * (delta**2 + kappa**2 / 4.0) / (-delta)))


def red_threshold_closed_form(omega_m, gamma_m, kappa, delta):
    """Coupling where s1 crosses zero, with the quartic Hurwitz bracket of s1."""
    hk2 = kappa**2 / 4.0
    bracket = (hk2 + (omega_m - delta) ** 2) * (hk2 + (omega_m + delta) ** 2) + gamma_m * (
        (gamma_m + kappa) * (hk2 + delta**2) + kappa * omega_m**2
    )
    return float(
        np.sqrt(gamma_m * kappa * bracket / (delta * omega_m * (gamma_m + kappa) ** 2))
    )


def threshold_in_fractions(omega_m, gamma_m, kappa, delta):
    """The blue (delta < 0) or red (delta > 0) coupling threshold with every
    step exact: G^2 as a fraction, its square root to 60 digits, then rounded
    once to a float.  No step makes a float of G^2, which can lie beyond the
    float range where G does not."""
    w, g, k, d = map(Fraction, (omega_m, gamma_m, kappa, delta))
    hk2 = k * k / 4
    if d < 0:
        g_sq = w * (d * d + hk2) / -d
    else:
        bracket = (hk2 + (w - d) ** 2) * (hk2 + (w + d) ** 2) + g * (
            (g + k) * (hk2 + d * d) + k * w * w
        )
        g_sq = g * k * bracket / (d * w * (g + k) ** 2)
    with decimal.localcontext(prec=60):
        return float((decimal.Decimal(g_sq.numerator) / g_sq.denominator).sqrt())


@np.errstate(all="ignore")  # the monic coefficients may overflow, as in the library
def bare_states_array_path(delta_bare, params):
    """(n_s, delta_eff) of every physical root of the bare-detuning cubic,
    ascending: the non-negative real roots sorted as an array, each
    effective detuning from the root as a numpy float."""
    e0_sq = square(drive_amplitude(params.power, params.kappa, params.omega_laser))
    shift = 2.0 * square(params.g_m) / params.omega_m
    shift_sq = square(shift)
    balance = square(float(delta_bare)) + square(params.kappa) / 4.0
    a2 = a1 = a0 = math.inf
    if shift_sq:
        a2, a1, a0 = 2.0 * delta_bare / shift, balance / shift_sq, -e0_sq / shift_sq
    if math.isfinite(a2) and math.isfinite(a1) and math.isfinite(a0):
        roots = real_roots_array_path(a2, a1, a0)
        candidates = np.sort(roots[roots >= 0.0])
    else:
        candidates = np.array([e0_sq / balance])
    return [(float(n_s), delta_bare + shift * n_s) for n_s in candidates]


def real_roots_array_path(a2, a1, a0):
    """The real roots of x^3 + a2 x^2 + a1 x + a0 as an array, in the order
    of the eigenvalues: every root polished on arrays, a complex pair too, and
    the near-real ones of a cubic with a pair kept by
    :func:`real_roots_array_filter`."""
    roots = cubic_roots_array_polish(a2, a1, a0)
    return real_roots_array_filter(roots) if roots.dtype.kind == "c" else roots


def cubic_roots_array_polish(a2, a1, a0):
    """Roots of x^3 + a2 x^2 + a1 x + a0: the companion matrix's eigvals,
    real where all are real, each with one Newton step on arrays where the
    step is finite."""
    companion = np.array([[0.0, 0.0, -a0], [1.0, 0.0, -a1], [0.0, 1.0, -a2]])
    return newton_step_array(np.linalg.eigvals(companion), a2, a1, a0)


def newton_step_array(roots, a2, a1, a0):
    """The array `roots` after one Newton step on x^3 + a2 x^2 + a1 x + a0
    each, where the step is finite."""
    with np.errstate(all="ignore"):
        poly = ((roots + a2) * roots + a1) * roots + a0
        step = poly / ((3.0 * roots + 2.0 * a2) * roots + a1)
        return np.where(np.isfinite(step), roots - step, roots)


def real_roots_array_filter(roots):
    """Real parts of the entries of the complex array `roots` within relative
    1e-8 of the real axis, selected and taken on arrays."""
    scale = np.abs(roots).max() + 1.0
    return roots[np.abs(roots.imag) <= 1e-8 * (np.abs(roots.real) + scale)].real


def _shifted_factors(omega_m, gamma_m, kappa, delta, beta, shift):
    """b1, b0, c1, c0 of q(z) = p(z - shift) = (z^2 + b1 z + b0)(z^2 + c1 z + c0)
    + omega_m delta g^2.  Integer constants only, so Fractions stay exact."""
    b1 = gamma_m - 2 * shift
    b0 = omega_m**2 * (1 - beta) + shift * (shift - gamma_m)
    c1 = kappa - 2 * shift
    c0 = (kappa / 2 - shift) ** 2 + delta**2
    return b1, b0, c1, c0


def characteristic_quartic(omega_m, gamma_m, kappa, delta, g, beta, shift=0):
    """Coefficients a1..a4 of the drift's characteristic polynomial s^4 + a1 s^3 + ... + a4,

    p(s) = (s^2 + gamma_m s + omega_m^2 (1 - beta)) ((s + kappa/2)^2 + delta^2)
    + omega_m delta g^2: only the mechanical omega_m^2 takes the factor
    (1 - beta), the coupling term keeps omega_m.  With `shift`, those of
    p(z - shift), which is Hurwitz iff every root of p has a real part below
    -shift.  Elementwise, on floats, arrays or Fractions.
    """
    b1, b0, c1, c0 = _shifted_factors(omega_m, gamma_m, kappa, delta, beta, shift)
    return b1 + c1, b0 + c0 + b1 * c1, b1 * c0 + b0 * c1, b0 * c0 + omega_m * delta * g**2


def hurwitz_determinants(omega_m, gamma_m, kappa, delta, g, beta, shift=0):
    """[h1, h2, h3, h4] of :func:`characteristic_quartic`: h1 = a1,
    h2 = a1 a2 - a3, h3 = a3 h2 - a1^2 a4 and h4 = a4.  The polynomial is
    Hurwitz iff all four are positive."""
    a1, a2, a3, a4 = characteristic_quartic(omega_m, gamma_m, kappa, delta, g, beta, shift)
    h2 = a1 * a2 - a3
    return [a1, h2, a3 * h2 - a1**2 * a4, a4]


def hurwitz_in_fractions(omega_m, gamma_m, kappa, delta, g, beta, shift=0):
    """:func:`hurwitz_determinants` in exact rational arithmetic on the float
    inputs, as Fractions: their signs are the exact verdict."""
    return hurwitz_determinants(*map(Fraction, (omega_m, gamma_m, kappa, delta, g, beta, shift)))


def hurwitz_with_beta(omega_m, gamma_m, kappa, delta, g, beta, shift=0):
    """The Hurwitz determinants [h1, h2, h3, h4] of :func:`characteristic_quartic`
    and their scales, as arrays of the broadcast shape of the inputs.

    The drift is stable iff all four are positive (see
    :func:`hurwitz_determinants`).  A scale is the sum of the magnitudes of
    the terms of its determinant, so ``abs(h) < 1e-6 * scale`` marks a point
    too close to the boundary to tell.
    """
    h = hurwitz_determinants(omega_m, gamma_m, kappa, delta, g, beta, shift)
    a1, a2, a3, _ = characteristic_quartic(omega_m, gamma_m, kappa, delta, g, beta, shift)
    b1, b0, c1, c0 = _shifted_factors(omega_m, gamma_m, kappa, delta, beta, shift)
    h2_scale = abs(a1 * a2) + abs(a3)
    a4_scale = abs(b0 * c0) + omega_m * abs(delta) * g**2
    h3_scale = abs(a3) * h2_scale + a1**2 * a4_scale
    scales = np.broadcast_arrays(abs(h[0]), h2_scale, h3_scale, a4_scale)
    return np.broadcast_arrays(*h), scales


# The ranges of a random point of :func:`rates`
RATE_RANGES = ((6, 10), (-6, -1), (-3, 0.3), (-2.0, 2.0), (-4, 0.3))


def rates(log_omega, log_gamma, log_kappa, delta_norm, log_g):
    """(omega_m, gamma_m, kappa, delta, g) of a point given as log10 of omega_m,
    log10 of gamma_m, kappa and g in units of omega_m, and delta in units of
    omega_m."""
    omega = 10.0**log_omega
    gamma, kappa, g = omega * 10.0**log_gamma, omega * 10.0**log_kappa, omega * 10.0**log_g
    return omega, gamma, kappa, delta_norm * omega, g


def routh_agrees_with_spectral(*point):
    """Routh-Hurwitz and spectral verdict at beta = 0 at the :func:`rates` of
    `point`, or None near the boundary: a point whose s1 or s2 is within 1e-6
    of its own scale is too close to the boundary to tell."""
    omega, gamma, kappa, delta, g = rates(*point)
    s1, s2 = routh_conditions(omega, gamma, kappa, delta, g)
    hk2 = kappa**2 / 4
    s1_scale = gamma * kappa * (
        (hk2 + (omega - delta) ** 2) * (hk2 + (omega + delta) ** 2)
        + gamma * ((gamma + kappa) * (hk2 + delta**2) + kappa * omega**2)
    ) + abs(delta) * omega * g**2 * (gamma + kappa) ** 2
    s2_scale = omega * (delta**2 + hk2) + g**2 * abs(delta)
    if abs(s1) < 1e-6 * s1_scale or abs(s2) < 1e-6 * s2_scale:
        return None
    a = drift_matrix(omega, gamma, kappa, delta, g, 0.0)
    return (s1 > 0 and s2 > 0) == (spectral_abscissa(a) < 0)


def spectral_verdict(abscissa, marginal_tol: float = 0.0):
    """(stable, marginal), elementwise: stable iff the abscissa is < 0, marginal
    iff stable with abscissa > -marginal_tol."""
    stable = abscissa < 0.0
    return stable, stable & (abscissa > -marginal_tol)


def gate_by_eigvals(params, steady):
    """Gate outcome of each point of `steady` by the spectral abscissa of its
    drift matrix, as ``sweep._gate`` numbers it: 0 unstable, 1 ok,
    2 marginal, 3 error (a NaN abscissa)."""
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    a = drift_matrix(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff, steady.beta)
    abscissa = spectral_abscissa(a)
    stable, marginal = spectral_verdict(abscissa, MARGINAL_ABSCISSA_FACTOR * kappa)
    return 3 * np.isnan(abscissa) + stable + marginal


def gate_exact(params, steady):
    """Gate outcome of one point of `steady`, numbered as :func:`gate_by_eigvals`
    numbers it, from the signs of :func:`hurwitz_in_fractions`: the exact
    verdict on the same float inputs."""
    rates = (params.omega_m, params.gamma_m, params.kappa)
    args = (*rates, steady.delta_eff, steady.g_eff, steady.beta)
    stable, clear = (
        all(h > 0 for h in hurwitz_in_fractions(*args, shift))
        for shift in (0, MARGINAL_ABSCISSA_FACTOR * params.kappa)
    )
    return stable + (stable and not clear)


def report_of(v):
    """:class:`oment.EntanglementReport` of one CM, which must be physical."""
    sig, det_v, eta, physical = eta_stack(v)
    assert physical, "not a physical covariance matrix"
    return entanglement_report(sig, det_v, eta)


def two_mode_squeezed_cm(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum CM in the standard (vacuum = 1/2) convention.

    Diagonal blocks cosh(2r)/2 * I, correlations sinh(2r)/2 * diag(1, -1);
    eta = exp(-2r)/2 and E_N = 2r in closed form.  r = 0 gives the vacuum.
    """
    c = np.cosh(2.0 * r) / 2.0
    s = np.sinh(2.0 * r) / 2.0
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def inverse_thermal_occupation(n_th: float, omega_m: float) -> float:
    """Bath temperature reproducing a given occupation, T = hbar*omega_m/(k_B*log1p(1/n_th))."""
    if not n_th > 0:
        raise ValueError("n_th must be > 0")
    if not omega_m > 0:
        raise ValueError("omega_m must be > 0")
    return HBAR * omega_m / (K_B * math.log1p(1.0 / n_th))


def record_gufunc_calls(monkeypatch, names):
    """Patch each gufunc `names` of ``numpy.linalg._umath_linalg`` to record its calls.

    Returns ``{name: [(args, kwargs), ...]}``, every call in order.  The
    ``np.linalg`` wrappers call the same gufuncs, so their calls are recorded
    too.
    """
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(_umath_linalg, name)

        def recorded(*args, name=name, original=original, **kwargs):
            calls[name].append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, name, recorded)
    return calls


def run_pipeline(params):
    """evaluate_point, a preset run_sweep, nth_entanglement_threshold and
    from_bare_detuning, at points that reach every gufunc."""
    p10 = replace(params, power=10e-3)
    point = evaluate_point(p10, -1.0)
    sweep = run_sweep(figure_preset("fig2b"))
    threshold = nth_entanglement_threshold(p10, -1.0)
    states = from_bare_detuning(-5.0 * params.kappa, replace(params, power=5e-3))
    return (
        point.status, point.report, point.covariance.v.tobytes(),
        sweep.log_negativity.tobytes(), sweep.status.tolist(), threshold, states,
    )
