"""Linearized fluctuation dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering is ``u = (dx_m, dp_m, dI, dphi)``.  Stability is decided
by two independent routes: the closed-form quartic Routh-Hurwitz conditions
``s1``/``s2`` (written for ``beta = 0``) and the spectral abscissa of the
actual drift matrix, which includes ``beta`` and is the gating check for the
covariance solve.  The builders and both routes are elementwise, so a whole
grid, or a single point, is gated by :func:`stability_stack` with one stack of
drift matrices and one batched eigvals from :mod:`oment._lapack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .params import PhysicalParams, check_range
from .steadystate import SteadyState, square

__all__ = [
    "StabilityReport",
    "MARGINAL_ABSCISSA_FACTOR",
    "drift_matrix",
    "diffusion_matrix",
    "routh_conditions",
    "spectral_abscissa",
    "spectral_verdict",
    "stability_stack",
    "coupling_threshold_blue",
    "coupling_threshold_red",
]

# Points with spectral abscissa in (-MARGINAL_ABSCISSA_FACTOR*kappa, 0) are
# flagged marginal and excluded from the covariance solve, where V diverges.
MARGINAL_ABSCISSA_FACTOR = 1e-6


@dataclass(frozen=True)
class StabilityReport:
    """Both stability verdicts, of one point or of a stack of points.

    ``routh_stable`` iff s1 > 0 and s2 > 0; ``spectral_stable`` iff the
    spectral abscissa is strictly negative; ``marginal`` marks stable points
    too close to the boundary for a reliable covariance solve.
    """

    s1: float
    s2: float
    routh_stable: bool
    spectral_abscissa: float
    spectral_stable: bool
    marginal: bool


def drift_matrix(omega_m: float, gamma_m: float, kappa: float, delta, g, beta=0.0) -> np.ndarray:
    """Raw 4x4 drift matrix for the quadrature ordering (dx_m, dp_m, dI, dphi).

    `delta`, `g` and `beta` broadcast against each other; array inputs give
    a stack of shape ``(..., 4, 4)``.  Raises ``ConfigError`` unless every beta
    is below 1.
    """
    check_range(beta=beta)
    # the sum carries the broadcast shape of the inputs; scalars have none
    a = np.zeros(getattr(delta + g + beta, "shape", ()) + (4, 4))
    a[..., 0, 1] = omega_m
    a[..., 1, 0] = omega_m * (beta - 1.0)
    a[..., 1, 1] = -gamma_m
    a[..., 1, 2] = g
    a[..., 2, 2] = -kappa / 2.0
    a[..., 2, 3] = -delta
    a[..., 3, 0] = g
    a[..., 3, 2] = delta
    a[..., 3, 3] = -kappa / 2.0
    return a


def diffusion_matrix(gamma_m: float, kappa: float, n_th) -> np.ndarray:
    """Diagonal diffusion matrix, a stack of shape ``(..., 4, 4)`` for array
    `n_th`.  Raises ``ConfigError`` for a negative or NaN n_th."""
    check_range(n_th=n_th)
    n_th = np.asarray(n_th)
    d = np.zeros(np.shape(n_th) + (4, 4))
    d[..., 1, 1] = gamma_m * (2.0 * n_th + 1.0)
    d[..., 2, 2] = kappa
    d[..., 3, 3] = kappa
    return d


# a huge coupling overflows s1, and a larger one s2, to +-inf (NaN at delta
# = 0): the Routh verdict reads unstable and the spectral gate sets the status
@np.errstate(all="ignore")
def routh_conditions(omega_m: float, gamma_m: float, kappa: float, delta, g):
    """The two nontrivial Routh-Hurwitz conditions (s1, s2) for beta = 0.

    Stability requires s1 > 0 and s2 > 0.  The bracket pairing
    [kappa^2/4 + (omega_m - delta)^2] * [kappa^2/4 + (omega_m + delta)^2]
    is the standard quartic Hurwitz form for this system.  Elementwise over
    arrays of `delta` and `g`.
    """
    hk2 = square(kappa) / 4.0
    g_sq = square(g)
    s1 = (
        gamma_m
        * kappa
        * (
            (hk2 + square(omega_m - delta)) * (hk2 + square(omega_m + delta))
            + gamma_m * ((gamma_m + kappa) * (hk2 + square(delta)) + kappa * square(omega_m))
        )
        - delta * omega_m * g_sq * square(gamma_m + kappa)
    )
    s2 = omega_m * (square(delta) + hk2) + g_sq * delta
    return s1, s2


@np.errstate(all="ignore")
def spectral_abscissa(a: np.ndarray):
    """Largest real part of the eigenvalues of A; one per matrix of a stack.

    A matrix with an infinite or NaN entry is kept from LAPACK and reads NaN;
    the others get the bits they get alone.
    """
    finite = np.isfinite(a)
    if np.count_nonzero(finite) != finite.size:
        a = np.asarray(a, dtype=float)
        finite = finite.all(axis=(-2, -1))
        abscissa = np.full(finite.shape, np.nan)
        abscissa[finite] = _spectral_abscissa(a[finite])
        return abscissa
    return _lapack.eigvals(a).real.max(axis=-1)


def spectral_verdict(abscissa, marginal_tol: float = 0.0):
    """(stable, marginal), elementwise: stable iff the abscissa is < 0, marginal
    iff stable with abscissa > -marginal_tol."""
    stable = abscissa < 0.0
    return stable, stable & (abscissa > -marginal_tol)


@np.errstate(all="ignore")
def stability_stack(steady: SteadyState, params: PhysicalParams):
    """Drift matrices and both stability routes at every point of `steady`.

    Returns the drift stack and a :class:`StabilityReport` of arrays.  The
    spectral route uses the full drift matrix including beta and gates the
    covariance solve; the Routh-Hurwitz numbers are reported verbatim.  One
    batched eigvals gates the stack (:func:`spectral_abscissa`).  A drift
    matrix with an infinite or NaN entry (an overflowed steady state) gets a
    NaN abscissa and is neither stable nor marginal; the others are gated as
    they are alone.  Raises ``ConfigError`` unless every beta is below 1.
    """
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    a = drift_matrix(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff, steady.beta)
    s1, s2 = _routh_conditions(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff)
    abscissa = _spectral_abscissa(a)
    stable, marginal = spectral_verdict(abscissa, MARGINAL_ABSCISSA_FACTOR * kappa)
    return a, StabilityReport(
        s1=s1,
        s2=s2,
        routh_stable=(s1 > 0) & (s2 > 0),
        spectral_abscissa=abscissa,
        spectral_stable=stable,
        marginal=marginal,
    )


# The undecorated bodies, which the pipeline runs under its entry point's errstate.
_routh_conditions = routh_conditions.__wrapped__
_spectral_abscissa = spectral_abscissa.__wrapped__
_stability_stack = stability_stack.__wrapped__


def _homogeneous(threshold, params: PhysicalParams) -> float:
    """`threshold`, a coupling of degree 1 in omega_m, gamma_m and kappa, at
    the rates of `params`; where that is not finite or is 0 (a square beyond
    the float range, or a product of tiny rates lost to underflow; positive
    rates have a positive threshold), at the rates divided by 2**e, the
    largest in [2**99, 2**100), times 2**e: a rate down to 1e-337 times the
    largest stays a normal float there.  The direct value stands where the
    scaled one is not finite or 0 as well (rates further apart than the float
    range).  Only there: libm's ``pow`` (:func:`~oment.steadystate.square`)
    is not exactly homogeneous, so a scaled square can differ in its last bit."""
    rates = (params.omega_m, params.gamma_m, params.kappa)
    g = threshold(*rates)
    if math.isfinite(g) and g != 0.0:
        return float(g)
    e = math.frexp(max(rates))[1] - 100
    scaled = float(np.ldexp(threshold(*(math.ldexp(rate, -e) for rate in rates)), e))
    return float(g) if math.isnan(scaled) else scaled


def _blue(omega_m, gamma_m, kappa):
    s2 = _routh_conditions(omega_m, gamma_m, kappa, -omega_m, 0.0)[1]
    return np.sqrt(np.float64(s2) / omega_m)


def _red(omega_m, gamma_m, kappa):
    s1 = np.float64(_routh_conditions(omega_m, gamma_m, kappa, omega_m, 0.0)[0])
    g = np.sqrt(s1 / (omega_m * omega_m * square(gamma_m + kappa)))
    # omega_m^2 underflows; a subnormal or lost s1 is left to the rescaling
    if not np.isfinite(g) and s1 >= np.finfo(float).tiny:
        g = np.sqrt(s1) / omega_m / (gamma_m + kappa)
    return g


@np.errstate(all="ignore")
def coupling_threshold_blue(params: PhysicalParams) -> float:
    """Coupling where s2 crosses zero at the blue sideband delta = -omega_m,
    G = sqrt(s2(G=0) / omega_m); s2 never crosses zero on the red side.
    Where a square of a rate overflows, or tiny rates make that read 0,
    taken at scaled rates (see :func:`_homogeneous`)."""
    return _homogeneous(_blue, params)


@np.errstate(all="ignore")
def coupling_threshold_red(params: PhysicalParams) -> float:
    """Coupling where s1 crosses zero at the red sideband delta = +omega_m,
    G = sqrt(s1(G=0) / (omega_m^2 (gamma_m+kappa)^2)).  Where that quotient
    is not finite (the denominator underflows to 0) and s1(G=0) is a normal
    float, G = sqrt(s1(G=0)) / omega_m / (gamma_m+kappa); where it is still
    not finite, or 0, taken at scaled rates (see :func:`_homogeneous`)."""
    return _homogeneous(_red, params)
