"""Reference implementations the library is checked against.

* :func:`records_point_by_point` is the per-point sweep loop that the stacked
  sweep replaced; a sweep must reproduce its columns byte for byte.
* :func:`nth_threshold_point_by_point` is the thermal-threshold bisection
  that evaluated one midpoint per :func:`oment.evaluate_point` call; the
  stacked search must return the same float.
* :func:`lyapunov_system_loop` builds the 10x10 Lyapunov system column by
  column, as the solver did before it used a coefficient tensor.
* :func:`lyapunov_oracle` integrates V = int_0^inf exp(A s) D exp(A^T s) ds by
  adaptive Simpson quadrature with an explicit tail bound, so it shares no
  code path with the linear solve of :func:`oment.solve_lyapunov`.
* :func:`two_mode_squeezed_cm` and :func:`inverse_thermal_occupation` are
  closed forms that the tests build inputs and expected values from.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from oment import Sweep, UnstableDriftError, evaluate_point, residual, spectral_abscissa
from oment.constants import HBAR, K_B

_MIN_HORIZON_DECAY = 10.0  # horizon must cover at least 10 decay times


class HorizonTooShortError(ValueError):
    """The quadrature horizon leaves a tail estimate above tolerance."""


@dataclass
class Quadrature:
    """Covariance matrix from the oracle, its residual and its tail bound."""

    v: np.ndarray
    residual: float
    tail_bound: float


def records_point_by_point(spec):
    """The :class:`oment.Sweep` of `spec`, one `evaluate_point` call per grid point.

    This is the per-point loop that the stacked sweep replaced, kept as the
    reference the sweep must reproduce byte for byte.
    """
    spec.validate()
    curves = spec.curves if spec.curves is not None else (None,)
    rows = []
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
            point = evaluate_point(params, values["delta_norm"], values["n_th"])
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


# Scaling-and-squaring matrix exponential with a fixed [13/13] Pade
# approximant (theta_13 = 5.372), kept self-contained so the oracle shares
# nothing with the linear-solve route.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with the order-13 Pade approximant."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > _THETA13 else 0
    scaled = m / (2.0**squarings)

    b = _PADE13_B
    eye = np.eye(m.shape[0])
    m2 = scaled @ scaled
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = scaled @ (
        m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
        + b[7] * m6
        + b[5] * m4
        + b[3] * m2
        + b[1] * eye
    )
    v = (
        m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
        + b[6] * m6
        + b[4] * m4
        + b[2] * m2
        + b[0] * eye
    )
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


def _decay_envelope(a: np.ndarray, abscissa: float, horizon: float) -> float:
    """Prefactor C with ||exp(A t)||_F <= C * exp(abscissa * t), fit on samples."""
    times = np.linspace(0.0, horizon, 9)
    c = 1.0
    for t in times:
        growth = np.linalg.norm(matrix_exponential(a * t)) * np.exp(-abscissa * t)
        c = max(c, float(growth))
    return c


def _tail_bound(c: float, d_norm: float, abscissa: float, horizon: float) -> float:
    """Bound on ||int_T^inf exp(A s) D exp(A^T s) ds||_F from the decay fit."""
    return c * c * d_norm * np.exp(2.0 * abscissa * horizon) / (2.0 * abs(abscissa))


def _adaptive_simpson(f, lo: float, hi: float, abs_tol: float, max_depth: int = 48) -> np.ndarray:
    """Matrix-valued adaptive Simpson with Frobenius-norm error control."""

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    total = np.zeros_like(f(lo))
    mid = (lo + hi) / 2.0
    stack = [(lo, mid, hi, f(lo), f(mid), f(hi), 0)]
    while stack:
        x0, x1, x2, f0, f1, f2, depth = stack.pop()
        width = x2 - x0
        coarse = simpson(f0, f1, f2, width)
        xl, xr = (x0 + x1) / 2.0, (x1 + x2) / 2.0
        fl, fr = f(xl), f(xr)
        fine = simpson(f0, fl, f1, width / 2.0) + simpson(f1, fr, f2, width / 2.0)
        err = np.linalg.norm(fine - coarse) / 15.0
        if err <= abs_tol * width / (hi - lo) or depth >= max_depth:
            if depth >= max_depth and err > abs_tol * width / (hi - lo):
                raise ArithmeticError("adaptive Simpson failed to converge")
            total = total + fine + (fine - coarse) / 15.0
        else:
            stack.append((x0, xl, x1, f0, fl, f1, depth + 1))
            stack.append((x1, xr, x2, f1, fr, f2, depth + 1))
    return total


def lyapunov_oracle(a, d, horizon: float | None = None, tol: float = 1e-8) -> Quadrature:
    """Stationary covariance by direct quadrature of exp(A s) D exp(A^T s).

    Parameters
    ----------
    a, d : array-like or wrapper
        Drift and diffusion matrices; A must be strictly stable.
    horizon : float, optional
        Upper integration limit (s).  Must cover at least 10 decay times of
        the slowest mode; when omitted it is extended automatically until the
        estimated truncation tail drops below `tol` relative to the result.
    tol : float
        Relative Frobenius tolerance for both quadrature and tail.

    Raises
    ------
    UnstableDriftError
        If the spectral abscissa of A is non-negative.
    HorizonTooShortError
        If an explicit horizon leaves the tail estimate above `tol`.
    """
    a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
    abscissa = spectral_abscissa(a)
    if abscissa >= 0.0:
        raise UnstableDriftError("drift matrix is not strictly stable")

    d_norm = float(np.linalg.norm(d))
    decay_time = 1.0 / abs(abscissa)
    min_horizon = _MIN_HORIZON_DECAY * decay_time
    auto = horizon is None
    if auto:
        envelope = _decay_envelope(a, abscissa, min_horizon)
        # size the horizon so the a-priori tail sits well under tolerance
        target = tol / 10.0 * d_norm * decay_time / 2.0
        horizon = max(
            min_horizon,
            float(np.log(max(_tail_bound(envelope, d_norm, abscissa, 0.0) / target, 1.0)))
            * decay_time
            / 2.0,
        )
    elif horizon < min_horizon:
        raise HorizonTooShortError(
            f"horizon {horizon:.3e} s is below {_MIN_HORIZON_DECAY} decay times "
            f"({min_horizon:.3e} s)"
        )
    else:
        envelope = _decay_envelope(a, abscissa, min_horizon)

    def integrand(t: float) -> np.ndarray:
        m = matrix_exponential(a * t)
        return m @ d @ m.T

    for attempt in range(4):
        # first a coarse pass to scale the absolute tolerance, then the real one
        rough = _adaptive_simpson(integrand, 0.0, horizon, 1e-3 * d_norm * decay_time)
        abs_tol = tol * max(float(np.linalg.norm(rough)), np.finfo(float).tiny)
        v = _adaptive_simpson(integrand, 0.0, horizon, abs_tol)
        v = (v + v.T) / 2.0
        v_norm = max(float(np.linalg.norm(v)), np.finfo(float).tiny)
        tail = _tail_bound(envelope, d_norm, abscissa, horizon)
        if tail <= tol * v_norm:
            break
        if not auto:
            raise HorizonTooShortError(
                f"tail estimate {tail:.3e} exceeds tol*||V|| = {tol * v_norm:.3e}"
            )
        horizon *= 2.0
    else:
        raise HorizonTooShortError("tail estimate did not converge under horizon doubling")

    return Quadrature(v=v, residual=float(residual(a, v, d)), tail_bound=float(tail))


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
