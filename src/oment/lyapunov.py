"""Stationary covariance matrix from A V + V A^T = -D.

The solver vectorizes the symmetric 4x4 problem into 10 unknowns and solves a
dense 10x10 linear system; exact, tiny and directly residual-checkable.  A
stack of drift matrices is turned into its stack of systems by one matrix
product with a constant coefficient tensor and solved in one batched call.
The condition diagnostic is the 1-norm condition ||S||_1 ||S^-1||_1 of each
system S from one batched inverse and the column sums of S and of its
inverse: within a factor of 10 of the 2-norm condition, and ``inf`` where it
is not finite (S singular, or the condition beyond the float range).  Solve
and inverse come from :mod:`oment._lapack`.  The pipeline's one check step
after the solve, ``sweep._checked_eta``, takes :func:`residual` of each solution.
The test suite checks the solve against an independent exact oracle: the same
equation solved in rational arithmetic on the float inputs.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack

__all__ = [
    "CovarianceMatrix",
    "IllConditionedWarning",
    "solve_stack",
    "residual",
]

CONDITION_LIMIT = 1e12
_TINY = np.finfo(float).tiny


class IllConditionedWarning(RuntimeWarning):
    """The 10x10 Lyapunov system is ill conditioned; result returned, flagged."""


@dataclass(slots=True)
class CovarianceMatrix:
    """Symmetric 4x4 stationary covariance matrix with solver diagnostics.

    `condition` is the 1-norm condition of the 10x10 system (``inf`` if it is
    singular or beyond the float range, NaN if the drift matrix has a NaN or
    inf entry, and then `v` and `residual` are NaN); `ill_conditioned` is True
    when it exceeds 1e12 or is NaN.
    """

    v: np.ndarray
    residual: float
    condition: float
    ill_conditioned: bool


# Upper-triangle index pairs of a symmetric 4x4 matrix: the 10 unknowns.
_UT = np.triu_indices(4)
# The unknown at each entry of the 4x4 matrix: solution[..., _SYM] is V.
_SYM = np.zeros((4, 4), np.intp)
_SYM[_UT] = _SYM.T[_UT] = np.arange(10)


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

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
# The code of the wrapper that ``@np.errstate(...)`` puts around a function.
_ERRSTATE_WRAPPER = np.errstate()(lambda: None).__code__


def _user_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by the caller of this
    function names the first frame outside the oment package and the
    ``np.errstate`` wrappers of its functions.

    Python before 3.12 has no ``skip_file_prefixes``; this walks the stack.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and (
        frame.f_code is _ERRSTATE_WRAPPER or frame.f_code.co_filename.startswith(_PACKAGE_DIR)
    ):
        frame, level = frame.f_back, level + 1
    return level


@np.errstate(all="ignore")  # a failing system reads NaN on its own
def solve_stack(a: np.ndarray, d: np.ndarray):
    """Solve A V + V A^T = -D for a stack of drift/diffusion pairs.

    `a` and `d` have shape ``(..., 4, 4)`` and broadcast against each other,
    so one drift matrix can take a stack of diffusion matrices; the drift
    matrices must already be known to be strictly stable.  Returns ``(v,
    condition, ill_conditioned)``: `v` per pair (``residual(a, v, d)`` checks
    it), `condition` (the 1-norm condition of the 10x10 system) and
    `ill_conditioned` per drift matrix, and each pair is solved on its own.
    Each system whose condition exceeds 1e12, or is NaN (a NaN or inf entry
    in its drift matrix), issues an :class:`IllConditionedWarning`,
    attributed to the first caller outside oment; its result is flagged but
    still returned.  A system whose condition is not finite has its `v` read
    NaN.  No numpy ``RuntimeWarning`` escapes.
    """
    system = (a.reshape(-1, 16) @ _SYSTEM).reshape(a.shape[:-2] + (10, 10))
    condition = _condition(system)
    rhs = -d[..., _UT[0], _UT[1], None]
    solution = _lapack.solve(system, rhs)[..., 0]

    ill = ~(condition <= CONDITION_LIMIT)  # NaN is ill conditioned too
    if ill.any():  # every condition that is not finite is ill, so only here is a v masked
        solution = np.where(np.isfinite(condition)[..., None], solution, np.nan)
        for value in np.atleast_1d(condition)[np.atleast_1d(ill)]:
            reason = "is not finite" if np.isnan(value) else f"exceeds {CONDITION_LIMIT:.0e}"
            warnings.warn(
                f"Lyapunov system condition estimate {value:.3e} {reason}",
                IllConditionedWarning,
                stacklevel=_user_stacklevel(),
            )
    return solution[..., _SYM], condition, ill


# The undecorated body, which the pipeline runs under its entry point's errstate.
_solve_stack = solve_stack.__wrapped__


def _condition(system):
    """1-norm condition ||S||_1 ||S^-1||_1 of each system of a stack, as
    ``np.linalg.cond(system, 1)`` gives it: ``inf`` for a singular system
    unless it has a NaN entry."""
    condition = _norm_1(system) * _norm_1(_lapack.inv(system))
    nan = np.isnan(condition)
    if nan.any():
        return np.where(nan & ~np.isnan(system).any(axis=(-2, -1)), np.inf, condition)
    return condition


def _norm_1(x):
    """Largest column sum of absolute values: ``np.linalg.norm(x, 1, axis=(-2, -1))``."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


@np.errstate(all="ignore")  # an inf or NaN entry reads a NaN residual on its own
def residual(a, v, d):
    """Relative Lyapunov residual ||A V + V A^T + D||_F / max(||D||_F, tiny),
    one value per matrix of a stack.  No numpy ``RuntimeWarning`` escapes."""
    a, v, d = (m if isinstance(m, np.ndarray) else np.asarray(m, dtype=float) for m in (a, v, d))
    num = _frobenius(a @ v + v @ a.swapaxes(-1, -2) + d)
    return num / np.maximum(_frobenius(d), _TINY)


# The undecorated body, which the pipeline runs under its entry point's errstate.
_residual = residual.__wrapped__


def _frobenius(x):
    return np.sqrt((x * x).sum(axis=(-2, -1)))
