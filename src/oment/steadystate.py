"""Classical operating point of the driven cavity.

The steady state is fixed by the photon-number balance
``|E0|^2 = n_s * (Delta^2 + kappa^2/4)`` together with
``x_s = 2*(g_m/omega_m)*n_s`` (the mirror's mean momentum is zero) and the
radiation-pressure shift ``Delta = Delta0 + 2*(g_m^2/omega_m)*n_s`` relating
bare and effective detuning.  Sweeps are parameterized by the effective detuning
(:func:`steady_states`, elementwise, so one call yields the operating points
of a whole grid or of a single point); the bare detuning route
(:func:`from_bare_detuning`) solves the cubic and exposes bistability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._elementwise import sqrt, square
from .params import PhysicalParams, _checked_stage, _drive_amplitude, check_range, require_finite

__all__ = [
    "SteadyState",
    "DegenerateRootsWarning",
    "square",
    "steady_states",
    "from_bare_detuning",
    "nonlinearity_from_betaprime",
    "monic_cubic_roots",
]

_ROOT_RESIDUAL_TOL = 1e-9
_IMAG_TOL = 1e-8
# A complex pair z = x +- iy is dropped unpolished where one Newton step cannot
# bring it within the root filter's tolerance.  eigvals is backward stable, so
# z is off by about c eps scale^3 / |p'(z)|, scale the sum of the roots' moduli
# plus 1, |p'(z)| = 2 y |z - r| and r the real root: y^2 |z - r| > 1e-11 scale^3
# keeps that below 1% of y for c up to 1e3, and y over 150 times the tolerance.
# A cluster of three roots, scattered by eigvals by eps^(1/3) scale, is not clear.
_CLEAR_PAIR = 1e-11
_DEGENERATE_TOL = 1e-6


class DegenerateRootsWarning(UserWarning):
    """Two photon-number roots coincide within relative 1e-6 (fold point)."""


@dataclass(slots=True)
class SteadyState:
    """One classical operating point.

    ``n_s`` is the intracavity photon number, ``alpha_s = sqrt(n_s)`` the field
    amplitude, ``x_s`` the dimensionless mirror displacement,
    ``g_eff = g_m*alpha_s`` the linearized coupling and ``beta`` the
    dimensionless nonlinearity at this point.  From :func:`steady_states`
    the fields are arrays with one entry per grid point.
    """

    n_s: float
    alpha_s: float
    x_s: float
    delta_eff: float
    delta_bare: float
    g_eff: float
    beta: float


def _build(n_s, delta_eff, delta_bare, beta, params: PhysicalParams) -> SteadyState:
    alpha_s = sqrt(n_s)
    x_s = 2.0 * (params.g_m / params.omega_m) * n_s
    return SteadyState(n_s, alpha_s, x_s, delta_eff, delta_bare, params.g_m * alpha_s, beta)


@_checked_stage(lambda delta_eff, power, beta, params: check_range(power=power))
def steady_states(delta_eff, power, beta, params: PhysicalParams) -> SteadyState:
    """Operating points at prescribed effective detunings, elementwise.

    ``n_s = |E0|^2/(delta_eff^2 + kappa^2/4)`` with the drive amplitude of
    `power` (see :func:`~oment.params.drive_amplitude`), and the bare
    detuning is back-computed from the radiation-pressure shift.
    `delta_eff`, `power` and `beta` broadcast against each other; the
    remaining parameters come from `params`.  Raises ``ConfigError`` for a
    negative or NaN power.
    """
    e0 = _drive_amplitude(power, params.kappa, params.omega_laser)
    n_s = square(e0) / (square(delta_eff) + square(params.kappa) / 4.0)
    delta_bare = delta_eff - 2.0 * (square(params.g_m) / params.omega_m) * n_s
    return _build(n_s, delta_eff, delta_bare, beta, params)


# The unchecked body, which the pipeline runs under its entry point's errstate.
_steady_states = steady_states.__wrapped__


def _cubic_roots(a2: float, a1: float, a0: float, real_only: bool = False):
    """Roots of x^3 + a2*x^2 + a1*x + a0 as :func:`monic_cubic_roots` gives
    them, for finite coefficients: a list of Python floats where all are
    real, else numpy's complex array.  With `real_only`, the real roots as a
    list: a pair clear of the real axis (:data:`_CLEAR_PAIR`) is dropped
    unpolished, one near it polished and filtered by :func:`_real_roots`.
    Each root has the bits numpy's polish of the array gives it."""
    roots = _lapack.eigvals(np.array([[0.0, 0.0, -a0], [1.0, 0.0, -a1], [0.0, 1.0, -a2]]))
    real, imag = roots.real.tolist(), roots.imag.tolist()
    pair = any(imag)  # one real root and a complex pair
    if pair and real_only:  # a NaN is not clear
        (_, _), (_, r), (y, x) = sorted(zip(imag, real))  # x - iy, r, x + iy
        scale = abs(r) + 2.0 * math.hypot(x, y) + 1.0
        if y * y * math.hypot(x - r, y) > _CLEAR_PAIR * scale * scale * scale:
            return [_polished(r, a2, a1, a0, True)]
    if pair:  # complex products stay numpy's, which fuse multiply-adds
        poly = ((roots + a2) * roots + a1) * roots + a0
        step = poly / ((3.0 * roots + 2.0 * a2) * roots + a1)
        roots = np.where(np.isfinite(step), roots - step, roots)
        return _real_roots(roots) if real_only else roots
    # all real: the same steps on floats, without numpy's per-call cost
    return [_polished(x, a2, a1, a0, False) for x in real]


def _polished(x: float, a2: float, a1: float, a0: float, pair: bool) -> float:
    """`x` after one Newton step on the cubic, or `x` where the step is not
    finite, with the bits of numpy's polish of a real root array or, for
    `pair`, of a complex one (x + 0j; eigvals returns no -0.0 root)."""
    poly = ((x + a2) * x + a1) * x + a0
    slope = (3.0 * x + 2.0 * a2) * x + a1
    if not slope:
        return x  # numpy's x / 0 is not finite either
    # numpy divides a complex by multiplying with the reciprocal of a real divisor
    step = poly * (1.0 / slope) if pair else poly / slope
    return x - step if math.isfinite(step) else x


@np.errstate(all="ignore")
def monic_cubic_roots(a2: float, a1: float, a0: float) -> np.ndarray:
    """All roots of x^3 + a2*x^2 + a1*x + a0 via companion-matrix eigenvalues.

    Each eigenvalue is polished with one Newton step, which keeps residuals
    checkable even for nearly degenerate roots; a root whose step is not
    finite (a zero or subnormal derivative) stays unpolished.  As in
    ``np.linalg.eigvals``, a non-finite coefficient raises ``LinAlgError``
    and all-real roots are real.  No numpy ``RuntimeWarning`` escapes.
    """
    if not (math.isfinite(a2) and math.isfinite(a1) and math.isfinite(a0)):  # kept from LAPACK
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return np.asarray(_cubic_roots(a2, a1, a0))


def _real_roots(roots: np.ndarray) -> list[float]:
    """Real parts of the entries of the complex array `roots` that lie
    within relative 1e-8 of the real axis, as Python floats.

    The scale is taken on the array: numpy's complex ``abs`` is its own
    hypot, which differs from libm's ``hypot`` (a Python complex's ``abs``)
    in the last bit for about a third of complexes whose parts are of one size.
    """
    scale = np.abs(roots).max().item() + 1.0
    return [z.real for z in roots.tolist() if abs(z.imag) <= _IMAG_TOL * (abs(z.real) + scale)]


@np.errstate(all="ignore")
def from_bare_detuning(delta_bare: float, params: PhysicalParams) -> list[SteadyState]:
    """All physical operating points at a prescribed bare detuning.

    Solves the cubic ``|E0|^2 = n*((delta_bare + 2*(g_m^2/omega_m)*n)^2 +
    kappa^2/4)`` for the photon number.  Real non-negative roots are returned
    sorted ascending by ``n_s``; complex or negative roots are discarded, not
    clamped, and a complex pair clear of the real axis is not even polished.
    Each ``n_s`` is a Python float, and so is ``delta_eff`` for a float
    `delta_bare`.  Where the cubic cannot be made monic within the float range
    (a coupling too weak, or a detuning too large), its linear balance ``n =
    |E0|^2/(delta_bare^2 + kappa^2/4)`` is taken instead.  Two roots within
    relative 1e-6 issue a :class:`DegenerateRootsWarning`.  A `delta_bare`
    that is not finite raises :class:`~oment.params.ConfigError`, and a root
    that misses its residual tolerance, or whose residual is NaN (a square
    beyond the float range), raises ``ArithmeticError``.  No stage checks
    `params` again: :class:`~oment.params.PhysicalParams` has.
    """
    require_finite(delta_bare=delta_bare)
    e0_sq = square(_drive_amplitude(params.power, params.kappa, params.omega_laser))
    shift = 2.0 * square(params.g_m) / params.omega_m  # detuning shift per photon
    shift_sq = square(shift)
    half_kappa_sq = square(params.kappa) / 4.0
    balance = square(float(delta_bare)) + half_kappa_sq

    # shift^2 n^3 + 2 d0 shift n^2 + (d0^2 + kappa^2/4) n - E0^2 = 0, made monic
    a2 = a1 = a0 = math.inf  # where shift^2 is 0 there is no monic form
    if shift_sq:
        a2, a1, a0 = 2.0 * delta_bare / shift, balance / shift_sq, -e0_sq / shift_sq
    if math.isfinite(a2) and math.isfinite(a1) and math.isfinite(a0):
        candidates = sorted(x for x in _cubic_roots(a2, a1, a0, real_only=True) if x >= 0.0)
    else:  # no monic form within the float range: the linear balance
        candidates = [float(e0_sq / balance)]

    states = []
    for n_s in candidates:
        residual = abs(n_s * (square(delta_bare + shift * n_s) + half_kappa_sq) - e0_sq)
        if not residual <= _ROOT_RESIDUAL_TOL * max(e0_sq, 1.0):  # a NaN residual fails too
            raise ArithmeticError(
                f"cubic root residual {residual:.3e} exceeds tolerance at n_s={n_s!r}"
            )
        states.append(_build(n_s, delta_bare + shift * n_s, delta_bare, params.beta, params))

    for low, high in zip(states, states[1:]):
        if high.n_s - low.n_s <= _DEGENERATE_TOL * max(high.n_s, 1e-300):
            warnings.warn(
                f"degenerate photon-number roots near n_s={high.n_s:.6e}",
                DegenerateRootsWarning,
                stacklevel=3,  # the caller's line, past the np.errstate wrapper
            )
    return states


def nonlinearity_from_betaprime(beta_prime: float, x_s: float, omega_m: float) -> float:
    """Dimensionless nonlinearity beta = 3*beta_prime*x_s^2/omega_m^2."""
    check_range(omega_m=omega_m)
    return 3.0 * beta_prime * x_s**2 / omega_m**2
