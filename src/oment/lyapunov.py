"""Stationary covariance matrix from A V + V A^T = -D.

The solver vectorizes the symmetric 4x4 problem into 10 unknowns and solves a
dense 10x10 linear system; exact, tiny and directly residual-checkable.  A
stack of drift matrices is turned into its stack of systems by one matrix
product with a constant coefficient tensor and solved in one batched call.
The test suite checks it against an independent quadrature oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linmodel import spectral_abscissa

__all__ = [
    "CovarianceMatrix",
    "UnstableDriftError",
    "IllConditionedWarning",
    "solve_lyapunov",
    "solve_stack",
    "residual",
]

CONDITION_LIMIT = 1e12


class UnstableDriftError(ValueError):
    """The drift matrix has a non-negative spectral abscissa."""


class IllConditionedWarning(RuntimeWarning):
    """The 10x10 Lyapunov system is ill conditioned; result returned, flagged."""


@dataclass
class CovarianceMatrix:
    """Symmetric 4x4 stationary covariance matrix with solver diagnostics."""

    v: np.ndarray
    residual: float | None = None
    condition: float | None = None
    ill_conditioned: bool = False

    @property
    def v_m(self) -> np.ndarray:
        """Mechanical 2x2 block."""
        return self.v[:2, :2]

    @property
    def v_cav(self) -> np.ndarray:
        """Optical 2x2 block."""
        return self.v[2:, 2:]

    @property
    def v_corr(self) -> np.ndarray:
        """Cross-correlation 2x2 block."""
        return self.v[:2, 2:]


# Upper-triangle index pairs of a symmetric 4x4 matrix: the 10 unknowns.
_UT = np.triu_indices(4)


def _system_coefficients() -> np.ndarray:
    """Constant (16, 100) tensor C with ``system.flat = a.flat @ C``.

    Entry (r, c) of the 10x10 system is upper-triangle entry r of
    ``A X_c + X_c A^T`` for the symmetric unit matrix X_c of unknown c; that
    image is linear in A, so its coefficients are read off the 16 unit
    matrices.  Every coefficient is 0, 1 or 2 and each entry sums at most two
    terms, so the product is exact and independent of summation order.
    """
    basis = np.zeros((10, 4, 4))
    basis[np.arange(10), _UT[0], _UT[1]] = 1.0
    basis[np.arange(10), _UT[1], _UT[0]] = 1.0
    units = np.eye(16).reshape(16, 1, 4, 4)
    image = units @ basis + basis @ units.swapaxes(-1, -2)  # [k, c, 4, 4]
    return image[..., _UT[0], _UT[1]].swapaxes(1, 2).reshape(16, 100)


_SYSTEM = _system_coefficients()


def solve_stack(a: np.ndarray, d: np.ndarray):
    """Solve A V + V A^T = -D for a stack of drift/diffusion pairs.

    `a` and `d` have shape ``(..., 4, 4)`` and broadcast against each other,
    so one drift matrix can take a stack of diffusion matrices; the drift
    matrices must already be known to be strictly stable.  Returns ``(v,
    residual, condition, ill_conditioned)``: `v` and `residual` per pair,
    `condition` and `ill_conditioned` per drift matrix.  Each system whose
    condition estimate exceeds 1e12 issues an :class:`IllConditionedWarning`;
    its result is flagged but still returned.
    """
    system = (a.reshape(-1, 16) @ _SYSTEM).reshape(a.shape[:-2] + (10, 10))
    condition = np.linalg.cond(system)
    solution = np.linalg.solve(system, -d[..., _UT[0], _UT[1], None])[..., 0]
    v = np.empty(solution.shape[:-1] + (4, 4))
    v[..., _UT[0], _UT[1]] = solution
    v[..., _UT[1], _UT[0]] = solution

    ill = condition > CONDITION_LIMIT
    for value in np.atleast_1d(condition)[np.atleast_1d(ill)]:
        warnings.warn(
            f"Lyapunov system condition estimate {value:.3e} exceeds {CONDITION_LIMIT:.0e}",
            IllConditionedWarning,
            stacklevel=2,
        )
    return v, residual(a, v, d), condition, ill


def solve_lyapunov(a, d) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for symmetric V.

    Raises :class:`UnstableDriftError` unless the spectral abscissa of A is
    strictly negative.  When the condition estimate of the 10x10 system
    exceeds 1e12 an :class:`IllConditionedWarning` is issued and the result is
    flagged but still returned (see :func:`solve_stack`).
    """
    a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
    if spectral_abscissa(a) >= 0.0:
        raise UnstableDriftError("drift matrix is not strictly stable")
    v, res, condition, ill = solve_stack(a, d)
    return CovarianceMatrix(
        v=v,
        residual=float(res),
        condition=float(condition),
        ill_conditioned=bool(ill),
    )


def residual(a, v, d):
    """Relative Lyapunov residual ||A V + V A^T + D||_F / max(||D||_F, tiny).

    One value per matrix of a stack; `v` may also be a :class:`CovarianceMatrix`.
    """
    if isinstance(v, CovarianceMatrix):
        v = v.v
    a, v, d = (np.asarray(m, dtype=float) for m in (a, v, d))
    num = np.linalg.norm(a @ v + v @ a.swapaxes(-1, -2) + d, axis=(-2, -1))
    return num / np.maximum(np.linalg.norm(d, axis=(-2, -1)), np.finfo(float).tiny)
