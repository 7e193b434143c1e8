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
from .params import PhysicalParams, _drive_amplitude, check_range, require_finite

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
_DEGENERATE_TOL = 1e-6


def square(x):
    """x**2, rounded as libm ``pow`` rounds it, for scalars and arrays alike.

    Scalar ``x**2`` calls ``pow`` while numpy evaluates ``array**2`` as
    ``x*x``; the two differ in the last bit for about 0.1% of inputs, so
    every square on the pipeline goes through here to keep a point's value
    independent of the batch it is evaluated in.  A scalar square beyond the
    float range is ``inf``, as for an array, not a float's ``OverflowError``.
    """
    if not isinstance(x, float):
        return np.float_power(x, 2)
    try:
        return x**2
    except OverflowError:
        return math.inf


class DegenerateRootsWarning(UserWarning):
    """Two photon-number roots coincide within relative 1e-6 (fold point)."""


@dataclass(frozen=True)
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
    alpha_s = np.sqrt(n_s)
    return SteadyState(
        n_s=n_s,
        alpha_s=alpha_s,
        x_s=2.0 * (params.g_m / params.omega_m) * n_s,
        delta_eff=delta_eff,
        delta_bare=delta_bare,
        g_eff=params.g_m * alpha_s,
        beta=beta,
    )


@np.errstate(all="ignore")
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
    companion = np.array(
        [
            [0.0, 0.0, -a0],
            [1.0, 0.0, -a1],
            [0.0, 1.0, -a2],
        ]
    )
    roots = _lapack.eigvals(companion)
    if roots.imag.any():
        poly = ((roots + a2) * roots + a1) * roots + a0
        step = poly / ((3.0 * roots + 2.0 * a2) * roots + a1)
        return np.where(np.isfinite(step), roots - step, roots)
    polished = []  # all real: the same steps on floats, without numpy's per-call cost
    for x in roots.real.tolist():
        poly = ((x + a2) * x + a1) * x + a0
        slope = (3.0 * x + 2.0 * a2) * x + a1
        step = poly / slope if slope else math.nan  # numpy's x / 0 is not finite either
        polished.append(x - step if math.isfinite(step) else x)
    return np.array(polished)


# The undecorated bodies, which the pipeline runs under its entry point's errstate.
_steady_states = steady_states.__wrapped__
_monic_cubic_roots = monic_cubic_roots.__wrapped__


@np.errstate(all="ignore")
def from_bare_detuning(delta_bare: float, params: PhysicalParams) -> list[SteadyState]:
    """All physical operating points at a prescribed bare detuning.

    Solves the cubic ``|E0|^2 = n*((delta_bare + 2*(g_m^2/omega_m)*n)^2 +
    kappa^2/4)`` for the photon number.  Real non-negative roots are returned
    sorted ascending by ``n_s``; complex or negative roots are discarded, not
    clamped.  Each state's ``n_s`` is a Python float, and so is its
    ``delta_eff`` for a float `delta_bare`.  Where the cubic cannot be made
    monic within the float range (a coupling too weak, or a detuning too
    large), its linear balance ``n = |E0|^2/(delta_bare^2 + kappa^2/4)`` is
    taken instead.  A :class:`DegenerateRootsWarning` is issued when two
    roots coincide within relative 1e-6.  A `delta_bare` that is not finite
    raises :class:`~oment.params.ConfigError`, and a root that misses its
    residual tolerance, or whose residual is NaN (a square beyond the float
    range), raises ``ArithmeticError``.  It trusts `params`, which
    :class:`~oment.params.PhysicalParams` checks.
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
        roots = _monic_cubic_roots(a2, a1, a0)
        if roots.dtype.kind == "c":  # all-real roots come back as a real array
            scale = np.abs(roots).max() + 1.0
            roots = roots[np.abs(roots.imag) <= _IMAG_TOL * (np.abs(roots.real) + scale)].real
        candidates = sorted(x for x in roots.tolist() if x >= 0.0)
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
