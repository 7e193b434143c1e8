"""numpy's LAPACK gufuncs, called without their ``np.linalg`` wrappers.

The one module of oment that names numpy's private ``numpy.linalg._umath_linalg``,
so a numpy release that changes it has one place to mend.  Each function
passes the float64 signature that the public wrapper passes, so a call gets
the wrapper's bits, but a member of a stack that LAPACK fails on (singular,
not positive definite) reads NaN on its own instead of raising for the
stack.  The caller supplies ``np.errstate(all="ignore")``.  Each function
looks its gufunc up on numpy's module when it is called.
"""

from numpy.linalg import _umath_linalg


def det(a):
    """Determinant of each matrix of a stack, as ``np.linalg.det``."""
    return _umath_linalg.det(a, signature="d->d")


def eigvals(a):
    """Eigenvalues of each matrix of a stack, complex even where all are real."""
    return _umath_linalg.eigvals(a, signature="d->D")


def inv(a):
    """Inverse of each matrix of a stack, as ``np.linalg.inv``."""
    return _umath_linalg.inv(a, signature="d->d")


def solve(a, b):
    """Solution of each system ``a x = b`` of a stack, `b` with a column axis."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def cholesky_lo(a):
    """Lower Cholesky factor of each matrix of a stack, as ``np.linalg.cholesky``."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")
