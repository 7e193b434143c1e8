"""Entanglement measures of the bipartite Gaussian steady state.

All formulas act on a covariance matrix in the standard convention where the
vacuum has variance 1/2 per quadrature.  The covariance matrix solved from
the quantum Langevin diffusion uses vacuum variance 1, so the pipeline
rescales it by :data:`CM_SCALE` before calling into this module; the factor
f = :data:`ETA_FACTOR` in ``E_N = max(0, -ln(f*eta))`` then keeps its
textbook value 2 and the separability threshold reads ``eta < 1/2``.  The
block determinants, eta and its cross-check act on whole ``(..., 4, 4)``
stacks at once.

eta has two routes that share no code.  The closed form takes it from the
block determinants of V.  The cross-check factors the partial transpose
V~ = L L^T by Cholesky: M = L^T Omega L is antisymmetric with eigenvalues
+-i nu_1 and +-i nu_2, so nu_1^2 + nu_2^2 = ||M||_F^2 / 2 and
nu_1 nu_2 = |Pf M| = det L, the product of the diagonal of L.  A matrix that
has no Cholesky factor is not positive definite, so not a physical CM, and
one whose two routes disagree reads non-physical too.  The determinants and
factors come from :mod:`oment._lapack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._elementwise import isfinite, item, maximum, sqrt, where_positive

__all__ = [
    "EntanglementReport",
    "CM_SCALE",
    "ETA_FACTOR",
    "sigma",
    "eta_stack",
    "log_negativity_of",
    "entanglement_report",
]

# Rescaling applied to Langevin-convention covariance matrices (vacuum
# variance 1) to reach the standard convention (vacuum variance 1/2).
CM_SCALE = 0.5
# f in E_N = max(0, -ln(f*eta)) for a standard-convention CM.
ETA_FACTOR = 2.0

_RADICAND_TOL = 1e-10
_ROUTE_AGREEMENT_TOL = 1e-9
_TINY = float(np.finfo(float).tiny)
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# Symplectic form for two modes in (x1, p1, x2, p2) ordering.
_OMEGA = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
)
# Partial transpose of the second mode flips the sign of its momentum: the
# sign of V_tilde = F V F, F = diag(1, 1, 1, -1), entry by entry.
_FLIP = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
# Rows and columns of the blocks V_m, V_cav and V_corr: v[..., _ROWS, _COLS]
# is the (..., 3, 2, 2) stack of the three.
_ROWS = np.array([[0, 1], [2, 3], [0, 1]])[:, :, None]
_COLS = np.array([[0, 1], [2, 3], [2, 3]])[:, None, :]


@dataclass(slots=True)
class EntanglementReport:
    """Entanglement figures of one covariance matrix."""

    sigma_v: float
    det_v: float
    eta: float
    log_negativity: float
    entangled: bool


@np.errstate(all="ignore")
def sigma(v):
    """Block combination sigma(V) = det V_m + det V_cav - 2 det V_corr, per
    matrix of a stack; a Python float for a single matrix."""
    d = _lapack.det(v[..., _ROWS, _COLS])
    return item(d[..., 0]) + item(d[..., 1]) - 2.0 * item(d[..., 2])


def _eta_cholesky(v):
    """eta of every matrix of a stack from the Cholesky factor of its partial
    transpose, and whether the matrix is positive definite (and finite).

    One that is not has a NaN factor and so a NaN product p of its diagonal;
    the others are factored as they are alone.  Runs under the caller's errstate.
    """
    lower = _lapack.cholesky_lo(v * _FLIP)
    m = lower.swapaxes(-1, -2) @ (_OMEGA @ lower)
    s = 0.5 * item((m * m).sum(axis=(-2, -1)))
    p = item(lower.diagonal(0, -2, -1).prod(axis=-1))
    eta = sqrt((s - sqrt(maximum(s * s - 4.0 * p * p, 0.0))) / 2.0)
    return eta, isfinite(p)


# a NaN or inf entry, no Cholesky factor, overflowing determinants or disagreeing
# routes: the matrix reads non-physical, and numpy's warnings say nothing more
@np.errstate(all="ignore")
def eta_stack(v):
    """Closed-form eta of every matrix of a ``(..., 4, 4)`` stack.

    Evaluates eta = sqrt((sigma - sqrt(sigma^2 - 4 det V))/2) and returns
    ``(sigma, det V, eta, physical)``.  ``physical`` is False where the matrix
    is not positive definite or not finite, or where the radicand is not
    finite (sigma^2 or det V overflows) or lies below -1e-10 * max(1,
    sigma^2): a non-physical CM upstream.  Smaller negative
    radicands are clamped to zero.  eta is cross-checked against the Cholesky
    route of the module docstring, and ``physical`` is also False where the
    routes do not agree to 1e-9 relative (a NaN route never agrees).  Every
    failed check marks its own matrix and changes nothing for the others in
    the stack: nothing is raised, and no numpy warning escapes.  For a single
    ``(4, 4)`` matrix the four results are Python floats and a bool.
    """
    if not isinstance(v, np.ndarray):
        v = np.asarray(v, dtype=float)
    sig = _sigma(v)
    det_v = item(_lapack.det(v))
    sig_sq = sig * sig
    radicand = sig_sq - 4.0 * det_v
    inner = (sig - sqrt(maximum(radicand, 0.0))) / 2.0
    eta = sqrt(maximum(inner, 0.0))

    eta_alt, definite = _eta_cholesky(v)
    lowest = -_RADICAND_TOL * maximum(1.0, sig_sq)  # the most that rounding explains
    physical = definite & isfinite(radicand) & (radicand >= lowest)
    # the closed form carries an irreducible O(sqrt(eps)*sigma/eta) error when
    # the two symplectic eigenvalues are nearly degenerate (radicand ~ 0)
    floor = maximum(eta, _TINY)
    tolerance = _ROUTE_AGREEMENT_TOL * floor + _SQRT_EPS * abs(sig) / floor
    physical &= abs(eta - eta_alt) <= tolerance  # so a NaN from either route disagrees
    return sig, det_v, eta, physical


# The undecorated bodies, which the pipeline runs under its entry point's errstate.
_sigma = sigma.__wrapped__
_eta_stack = eta_stack.__wrapped__


def log_negativity_of(eta):
    """E_N = max(0, -ln(f*eta)) with f = :data:`ETA_FACTOR`, elementwise; a
    Python float for a float."""
    return where_positive(-item(np.log(ETA_FACTOR * eta)))


def entanglement_report(sig: float, det_v: float, eta: float) -> EntanglementReport:
    """Report of one CM from its sigma, det V and eta; entangled iff f*eta < 1."""
    return EntanglementReport(
        float(sig),
        float(det_v),
        float(eta),
        float(log_negativity_of(eta)),
        bool(ETA_FACTOR * eta < 1.0),
    )
