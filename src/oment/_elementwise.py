"""Elementwise functions that take a Python scalar as readily as a numpy array.

A single point runs the pipeline on Python floats and bools: each 0-d result
of a LAPACK call or a matrix reduction becomes one at once (:func:`item`), and
the arithmetic after it goes through these functions.  Each applies ``math``
or an operator to a scalar and the numpy function that it names to an array,
and gives the scalar the bits of its entry in an array, so that a point's
value does not depend on the batch it is evaluated in; a scalar skips numpy's
per-call cost.  Where ``math`` raises (a square beyond the float range, the
square root of a negative number) a scalar gets numpy's value instead.
"""

from __future__ import annotations

import math

import numpy as np


def item(x):
    """A 0-d numpy result as a Python float or bool; an array as it is."""
    return x if x.ndim else x.item()


def square(x):
    """x**2, rounded as libm ``pow`` rounds it: ``np.float_power(x, 2)``.

    Scalar ``x**2`` calls ``pow`` while numpy evaluates ``array**2`` as
    ``x*x``; the two differ in the last bit for about 0.1% of inputs, so
    every square on the pipeline goes through here.  A scalar square beyond
    the float range is ``inf``, as for an array, not a float's
    ``OverflowError``.
    """
    if not isinstance(x, float):
        return np.float_power(x, 2)
    try:
        return x**2
    except OverflowError:
        return math.inf


def sqrt(x):
    """``np.sqrt(x)``: ``math.sqrt`` of a float, numpy's NaN below zero."""
    if not isinstance(x, float):
        return np.sqrt(x)
    return math.sqrt(x) if not x < 0.0 else np.sqrt(x).item()  # NaN and -0.0 pass


def maximum(x, y):
    """``np.maximum(x, y)``: a NaN of either, else the larger, `y` on a tie
    (so ``maximum(-0.0, 0.0)`` is ``0.0``).  Python's ``max`` keeps the first
    of a tie and, unlike this, depends on the order of a NaN."""
    if not (isinstance(x, float) and isinstance(y, float)):
        return np.maximum(x, y)
    return x if x > y or x != x else y


def isfinite(x):
    """``np.isfinite(x)``: neither infinite nor NaN."""
    return math.isfinite(x) if isinstance(x, float) else np.isfinite(x)


def where_positive(x):
    """``np.where(x > 0.0, x, 0.0)``: `x` where it is positive, else ``+0.0``
    (for -0.0 and NaN too)."""
    if not isinstance(x, float):
        return np.where(x > 0.0, x, 0.0)
    return x if x > 0.0 else 0.0


def any_true(x):
    """``x.any()`` of a bool array; a bool as it is."""
    return x if isinstance(x, bool) else x.any()
