"""Entanglement measures of the bipartite Gaussian steady state.

All formulas act on a covariance matrix in the standard convention where the
vacuum has variance 1/2 per quadrature.  The covariance matrix solved from
the quantum Langevin diffusion uses vacuum variance 1, so the pipeline
rescales it by :data:`CM_SCALE` before calling into this module; the factor
``f`` in ``E_N = max(0, -ln(f*eta))`` then keeps its textbook value 2 and the
separability threshold reads ``eta < 1/2``.  The block determinants, eta and
its spectral cross-check act on whole ``(..., 4, 4)`` stacks at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NegativeRadicandError",
    "EntanglementReport",
    "CM_SCALE",
    "sigma",
    "eta_spectrum",
    "eta_stack",
    "log_negativity_of",
    "entanglement_report",
    "log_negativity",
]

# Rescaling applied to Langevin-convention covariance matrices (vacuum
# variance 1) to reach the standard convention (vacuum variance 1/2).
CM_SCALE = 0.5

_RADICAND_TOL = 1e-10
_ROUTE_AGREEMENT_TOL = 1e-9

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


class NegativeRadicandError(ArithmeticError):
    """sigma(V)^2 - 4 det V is negative beyond roundoff: non-physical CM upstream."""


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures of one covariance matrix."""

    sigma_v: float
    det_v: float
    eta: float
    log_negativity: float
    entangled: bool


def sigma(v):
    """Block combination sigma(V) = det V_m + det V_cav - 2 det V_corr, per matrix."""
    det = np.linalg.det
    return det(v[..., :2, :2]) + det(v[..., 2:, 2:]) - 2.0 * det(v[..., :2, 2:])


def eta_spectrum(v):
    """Lowest symplectic eigenvalue of the partial transpose, via the spectrum
    of Omega * V_tilde (independent of the closed-form route)."""
    flipped = _FLIP @ v @ _FLIP
    eigenvalues = np.linalg.eigvals(_OMEGA @ flipped)
    return np.min(np.abs(eigenvalues), axis=-1)


def eta_stack(v):
    """Closed-form eta of every matrix of a ``(..., 4, 4)`` stack.

    Evaluates eta = sqrt((sigma - sqrt(sigma^2 - 4 det V))/2) and returns
    ``(sigma, det V, eta, physical)``.  ``physical`` is False where the
    radicand lies below -1e-10 * max(1, sigma^2): a non-physical CM upstream.
    Smaller negative radicands are clamped to zero.  At physical points eta is
    cross-checked against :func:`eta_spectrum`; the routes must agree to 1e-9
    relative, or ArithmeticError is raised.
    """
    m = np.asarray(v, dtype=float)
    sig = sigma(m)
    det_v = np.linalg.det(m)
    radicand = sig * sig - 4.0 * det_v
    physical = ~(radicand < -_RADICAND_TOL * np.maximum(1.0, sig * sig))
    inner = (sig - np.sqrt(np.where(radicand < 0.0, 0.0, radicand))) / 2.0
    eta = np.sqrt(np.where(inner < 0.0, 0.0, inner))

    eta_alt = eta_spectrum(m)
    # the closed form carries an irreducible O(sqrt(eps)*sigma/eta) error when
    # the two symplectic eigenvalues are nearly degenerate (radicand ~ 0)
    tiny = np.finfo(float).tiny
    conditioning = np.sqrt(np.finfo(float).eps) * abs(sig) / np.maximum(eta, tiny)
    tolerance = _ROUTE_AGREEMENT_TOL * np.maximum(eta, tiny) + conditioning
    disagree = np.ravel(physical & (abs(eta - eta_alt) > tolerance))
    if disagree.any():
        first = np.argmax(disagree)
        raise ArithmeticError(
            "symplectic eigenvalue routes disagree: "
            f"{np.ravel(eta)[first]!r} vs {np.ravel(eta_alt)[first]!r}"
        )
    return sig, det_v, eta, physical


def log_negativity_of(eta, f: float):
    """E_N = max(0, -ln(f*eta)), elementwise."""
    value = -np.log(f * eta)
    return np.where(value > 0.0, value, 0.0)


def entanglement_report(sig: float, det_v: float, eta: float, f: float) -> EntanglementReport:
    """Report of one CM from its sigma, det V and eta; entangled iff f*eta < 1."""
    return EntanglementReport(
        sigma_v=float(sig),
        det_v=float(det_v),
        eta=float(eta),
        log_negativity=float(log_negativity_of(eta, f)),
        entangled=bool(f * eta < 1.0),
    )


def log_negativity(v, f: float = 2.0) -> EntanglementReport:
    """Full entanglement report of one CM, E_N = max(0, -ln(f*eta)).

    The state is entangled iff f*eta < 1 (for f = 2: eta < 1/2).  A radicand
    below roundoff (see :func:`eta_stack`) raises :class:`NegativeRadicandError`.
    """
    sig, det_v, eta, physical = eta_stack(v)
    if not physical:
        raise NegativeRadicandError(
            f"sigma^2 - 4 det V = {sig * sig - 4.0 * det_v:.3e} is negative beyond tolerance"
        )
    return entanglement_report(sig, det_v, eta, f)

