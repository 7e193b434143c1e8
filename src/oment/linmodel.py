"""Linearized fluctuation dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering is ``u = (dx_m, dp_m, dI, dphi)``.  The stability gate of
the covariance solve is the Routh-Hurwitz test (DeJesus & Kaufman, PRA 35,
5288 (1987)) of the drift's characteristic quartic, nonlinearity beta included,

    p(s) = (s^2 + gamma_m s + omega_m^2 (1 - beta)) ((s + kappa/2)^2 + Delta^2)
           + omega_m Delta G^2:

a point is stable where p is Hurwitz, and marginal where p(z - eps), with
eps = MARGINAL_ABSCISSA_FACTOR * kappa, is not (a root lies within eps of the
imaginary axis).  The test is elementwise arithmetic with no LAPACK call, so
:func:`stability_stack` gates a whole grid, or a single point on Python
floats, without building a drift matrix; the pipeline builds one only for a
point that passes.  The closed-form conditions ``s1``/``s2``, written for
``beta = 0``, are reported alongside.  :func:`spectral_abscissa`, the largest
real part of the drift's eigenvalues from one batched eigvals of
:mod:`oment._lapack`, is what ``oment stability`` prints.
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
    "stability_stack",
    "coupling_threshold_blue",
    "coupling_threshold_red",
]

# Stable points with a root of real part in [-MARGINAL_ABSCISSA_FACTOR*kappa, 0)
# are flagged marginal and excluded from the covariance solve, where V diverges.
MARGINAL_ABSCISSA_FACTOR = 1e-6


@dataclass(frozen=True)
class StabilityReport:
    """Stability of one point or of a stack of points.

    ``routh_stable`` iff s1 > 0 and s2 > 0, the closed form for beta = 0.
    ``spectral_stable`` is the quartic gate's verdict: every root of the
    drift's characteristic quartic, beta included, has a negative real part.
    ``marginal`` marks stable points with a root within
    ``MARGINAL_ABSCISSA_FACTOR * kappa`` of the imaginary axis, too close to
    the boundary for a reliable covariance solve.  ``undecided`` marks points
    where a quartic coefficient or Hurwitz determinant is not finite (a
    detuning beyond the float range); they are neither stable nor marginal.
    """

    s1: float
    s2: float
    routh_stable: bool
    spectral_stable: bool
    marginal: bool
    undecided: bool


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
# = 0): the Routh verdict reads unstable and the quartic gate sets the status
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
    the others get the bits they get alone.  The pipeline does not call it:
    the quartic gate of :func:`stability_stack` decides stability.
    """
    a = np.asarray(a, dtype=float)
    finite = np.isfinite(a).all(axis=(-2, -1))
    abscissa = np.full(finite.shape, np.nan)
    abscissa[finite] = _lapack.eigvals(a[finite]).real.max(axis=-1)
    return abscissa


def _hurwitz(omega_m, gamma_m, kappa, delta, g, beta, shift):
    """Whether q(z) = p(z - shift) is Hurwitz, and its determinant h3; elementwise.

    q(z) = (z^2 + b1 z + b0)(z^2 + c1 z + c0) + omega_m delta g^2 has the
    coefficients a1 = b1 + c1, a2 = b0 + c0 + b1 c1, a3 = b1 c0 + b0 c1 and
    a4 = b0 c0 + omega_m delta g^2, and is Hurwitz iff a1, h2 = a1 a2 - a3,
    h3 = a3 h2 - a1^2 a4 and a4 are all positive.  A coefficient or
    determinant that is not finite leaves h3 not finite, so h3 alone tells
    where the test is undecided.  Squares are products, so a point on floats
    gets the bits of its entry in an array.
    """
    b1 = gamma_m - 2.0 * shift
    b0 = shift * shift - gamma_m * shift + omega_m * omega_m * (1.0 - beta)
    c1 = kappa - 2.0 * shift
    half = kappa / 2.0 - shift
    c0 = half * half + delta * delta
    a1 = b1 + c1
    a2 = b0 + c0 + b1 * c1
    a3 = b1 * c0 + b0 * c1
    a4 = b0 * c0 + omega_m * delta * (g * g)
    h2 = a1 * a2 - a3
    h3 = a3 * h2 - a1 * a1 * a4
    return (a1 > 0.0) & (h2 > 0.0) & (h3 > 0.0) & (a4 > 0.0), h3


@np.errstate(all="ignore")
def stability_stack(steady: SteadyState, params: PhysicalParams) -> StabilityReport:
    """Both stability verdicts at every point of `steady`, as a :class:`StabilityReport`.

    The quartic gate (see the module docstring) decides ``spectral_stable``,
    ``marginal`` and ``undecided`` from the fields of `steady` and the rates
    of `params`, with no drift matrix and no LAPACK call; the Routh-Hurwitz
    numbers s1, s2 are reported verbatim.  Each point is decided alone, on
    the types it is given: Python floats give Python floats and bools.
    Raises ``ConfigError`` unless every beta is below 1.
    """
    check_range(beta=steady.beta)
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    delta, g, beta = steady.delta_eff, steady.g_eff, steady.beta
    s1, s2 = _routh_conditions(omega_m, gamma_m, kappa, delta, g)
    hurwitz, h3 = _hurwitz(omega_m, gamma_m, kappa, delta, g, beta, 0.0)
    clear, h3_clear = _hurwitz(
        omega_m, gamma_m, kappa, delta, g, beta, MARGINAL_ABSCISSA_FACTOR * kappa
    )
    decided = (abs(h3) < math.inf) & (abs(h3_clear) < math.inf)
    stable = hurwitz & decided
    # x ^ True is "not x" for a bool and an array alike (~True is -2)
    return StabilityReport(
        s1=s1,
        s2=s2,
        routh_stable=(s1 > 0) & (s2 > 0),
        spectral_stable=stable,
        marginal=stable & (clear ^ True),
        undecided=decided ^ True,
    )


# The undecorated bodies, which the pipeline runs under its entry point's errstate.
_routh_conditions = routh_conditions.__wrapped__
_stability_stack = stability_stack.__wrapped__


def coupling_threshold_blue(params: PhysicalParams) -> float:
    """Coupling where s2 crosses zero at the blue sideband delta = -omega_m,
    G = sqrt(s2(G=0) / omega_m); s2 never crosses zero on the red side."""
    omega_m = params.omega_m
    s2 = _routh_conditions(omega_m, params.gamma_m, params.kappa, -omega_m, 0.0)[1]
    return math.sqrt(s2 / omega_m)


def coupling_threshold_red(params: PhysicalParams) -> float:
    """Coupling where s1 crosses zero at the red sideband delta = +omega_m,
    G = sqrt(s1(G=0) / (omega_m^2 (gamma_m+kappa)^2))."""
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    s1 = _routh_conditions(omega_m, gamma_m, kappa, omega_m, 0.0)[0]
    return math.sqrt(s1 / (omega_m * omega_m * square(gamma_m + kappa)))
