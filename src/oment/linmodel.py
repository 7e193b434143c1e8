"""Linearized fluctuation dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering is ``u = (dx_m, dp_m, dI, dphi)``.  Stability is decided
by two independent routes: the closed-form quartic Routh-Hurwitz conditions
``s1``/``s2`` (written for ``beta = 0``) and the spectral abscissa of the
actual drift matrix, which includes ``beta`` and is the gating check for the
covariance solve.  The builders and both routes are elementwise, so a whole
grid, or a single point, is gated by :func:`stability_stack` with one stack of
drift matrices and one batched eigvals: numpy's LAPACK gufunc, called as
``np.linalg.eigvals`` calls it but without its wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
    return _drift_matrix(omega_m, gamma_m, kappa, delta, g, beta)


def _drift_matrix(omega_m, gamma_m, kappa, delta, g, beta):
    """:func:`drift_matrix` without its check: it trusts every beta < 1."""
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
    return _diffusion_matrix(gamma_m, kappa, np.asarray(n_th))


def _diffusion_matrix(gamma_m: float, kappa: float, n_th) -> np.ndarray:
    """:func:`diffusion_matrix` without its check: it trusts every n_th >= 0."""
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
    hk2 = kappa**2 / 4.0
    g_sq = square(g)
    s1 = (
        gamma_m
        * kappa
        * (
            (hk2 + square(omega_m - delta)) * (hk2 + square(omega_m + delta))
            + gamma_m * ((gamma_m + kappa) * (hk2 + square(delta)) + kappa * omega_m**2)
        )
        - delta * omega_m * g_sq * (gamma_m + kappa) ** 2
    )
    s2 = omega_m * (square(delta) + hk2) + g_sq * delta
    return s1, s2


@np.errstate(all="ignore")
def spectral_abscissa(a: np.ndarray):
    """Largest real part of the eigenvalues of A; one per matrix of a stack.

    A matrix with an infinite or NaN entry is kept from LAPACK and reads NaN;
    the others get the bits they get alone.
    """
    if not np.isfinite(a).all():
        a = np.asarray(a, dtype=float)
        finite = np.isfinite(a).all(axis=(-2, -1))
        abscissa = np.full(finite.shape, np.nan)
        abscissa[finite] = _spectral_abscissa(a[finite])
        return abscissa
    return _umath_linalg.eigvals(a, signature="d->D").real.max(axis=-1)


# The undecorated bodies, which the pipeline runs under its entry point's errstate.
_routh_conditions = routh_conditions.__wrapped__
_spectral_abscissa = spectral_abscissa.__wrapped__


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
    check_range(beta=steady.beta)
    return _stability_stack(steady, params)


def _stability_stack(steady: SteadyState, params: PhysicalParams):
    """:func:`stability_stack` without its check, under the caller's error
    state: it trusts every beta < 1 and a checked `params`."""
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    a = _drift_matrix(omega_m, gamma_m, kappa, steady.delta_eff, steady.g_eff, steady.beta)
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


def coupling_threshold_blue(params: PhysicalParams, delta: float | None = None) -> float:
    """Coupling where s2 crosses zero, G = sqrt(s2(G=0) / (-delta)).

    Defaults to the blue sideband delta = -omega_m.  Requires delta < 0; s2
    never crosses zero on the red side.
    """
    if delta is None:
        delta = -params.omega_m
    if not delta < 0:
        raise ValueError("s2 threshold exists only for delta < 0")
    s2 = routh_conditions(params.omega_m, params.gamma_m, params.kappa, delta, 0.0)[1]
    return float(np.sqrt(s2 / (-delta)))


def coupling_threshold_red(params: PhysicalParams, delta: float | None = None) -> float:
    """Coupling where s1 crosses zero, G = sqrt(s1(G=0) / (delta omega_m (gamma_m+kappa)^2)).

    Defaults to the red sideband delta = +omega_m.  Requires delta > 0.
    """
    if delta is None:
        delta = params.omega_m
    if not delta > 0:
        raise ValueError("s1 threshold exists only for delta > 0")
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    s1 = routh_conditions(omega_m, gamma_m, kappa, delta, 0.0)[0]
    return float(np.sqrt(s1 / (delta * omega_m * (gamma_m + kappa) ** 2)))
