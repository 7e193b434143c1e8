"""The elementwise helpers give a Python scalar the bits numpy gives its row.

A single point runs on Python floats and bools, and a grid on arrays; each
helper of ``oment._elementwise`` must give a float the bytes that its numpy
function gives the same value as a 0-d input and as an entry of an array,
NaN payload and sign, signed zeros, infinities, subnormals and values near
overflow included.  The plain Python spellings do not: ``math`` raises where
numpy warns, Python's ``max`` depends on the order of a NaN, and a float
divided by ``0.0`` raises.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oment import _elementwise, residual


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def signalling(x):
    return x != x and not struct.pack("<d", x)[6] & 0x08


def bits(x):
    """The bytes numpy stores `x` with: a float as a float64, a bool as a bool_."""
    return np.asarray(x).tobytes()


# NaNs with a payload, negative, and signalling; the largest float, the first
# value whose square overflows, and the smallest subnormal
EDGES = [
    from_bits(0x7FF8000000000001),
    from_bits(0xFFF8000000000000),
    from_bits(0x7FF0000000000001),
    from_bits(0xFFF4000000000123),
    0.0, -0.0, math.inf, -math.inf,
    1.7976931348623157e308, -1.7976931348623157e308,
    1.3407807929942597e154, 5e-324, -5e-324, 2.2250738585072014e-308,
]
FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(EDGES)
# the other entries of the array a drawn value sits in: long enough that numpy
# runs its vector loop and its tail, so a position can fall in either
BACKGROUND = EDGES + [1.5, -2.5, 1e-300, 3e300, -7.0, 0.25, 1e154, -1e-10] * 3
POSITIONS = st.integers(0, len(BACKGROUND))
# every floating helper with its numpy spelling, on float64 inputs
UNARY = {
    "square": lambda x: np.float_power(x, 2),
    "sqrt": np.sqrt,
    "isfinite": np.isfinite,
    "where_positive": lambda x: np.where(x > 0.0, x, 0.0),
}


def rows(x, position, background=BACKGROUND):
    """`x` at `position` among the values of `background`, as a float64 array."""
    values = list(background)
    values.insert(position, x)
    return np.array(values)


@pytest.mark.parametrize("name", UNARY)
@given(x=FLOATS, position=POSITIONS)
def test_a_unary_helper_gives_a_float_the_bits_of_its_row(name, x, position):
    # Python's ** hands a signalling NaN back as it is where numpy's pow quiets
    # it; no arithmetic makes one, and no NaN passes the input checks
    assume(not (name == "square" and signalling(x)))
    helper, reference = getattr(_elementwise, name), UNARY[name]
    array = rows(x, position)
    with np.errstate(all="ignore"):
        scalar = helper(x)
        zero_d = reference(np.float64(x))
        row = reference(array)
        assert bits(helper(array)) == bits(row)
    assert type(scalar) is (bool if name == "isfinite" else float)
    assert bits(scalar) == bits(zero_d) == bits(row[position])


@given(x=FLOATS, y=FLOATS, position=POSITIONS)
@example(x=-0.0, y=0.0, position=3)
@example(x=0.0, y=-0.0, position=3)
@example(x=math.nan, y=1.0, position=3)
@example(x=1.0, y=math.nan, position=3)
@example(x=EDGES[0], y=EDGES[1], position=3)
def test_maximum_gives_floats_the_bits_of_their_row(x, y, position):
    xs, ys = rows(x, position), rows(y, position, BACKGROUND[::-1])
    scalar = _elementwise.maximum(x, y)
    row = np.maximum(xs, ys)
    assert type(scalar) is float
    assert bits(scalar) == bits(np.maximum(np.float64(x), np.float64(y))) == bits(row[position])
    # with the second argument a constant, as the pipeline calls it
    assert bits(_elementwise.maximum(xs, y)) == bits(np.maximum(xs, y))
    assert bits(_elementwise.maximum(x, ys)[position]) == bits(np.maximum(x, ys)[position])


def test_the_plain_python_spellings_differ_from_numpy():
    # why the helpers exist: each plain spelling raises or reads a different value
    with pytest.raises(ValueError):
        math.sqrt(-1.0)
    with pytest.raises(OverflowError):
        1e155**2
    with pytest.raises(ZeroDivisionError):
        1.0 / 0.0
    assert math.isnan(max(math.nan, 1.0)) and max(1.0, math.nan) == 1.0
    assert math.copysign(1.0, max(-0.0, 0.0)) == -1.0  # Python keeps the first of a tie
    with np.errstate(all="ignore"):
        assert math.isnan(_elementwise.sqrt(-1.0)) and _elementwise.square(1e155) == math.inf
    assert math.isnan(_elementwise.maximum(math.nan, 1.0))
    assert math.isnan(_elementwise.maximum(1.0, math.nan))
    assert math.copysign(1.0, _elementwise.maximum(-0.0, 0.0)) == 1.0


def test_a_residual_quotient_never_divides_by_zero():
    # a zero diffusion: the denominator is the smallest normal float, not 0.0
    zero = np.zeros((4, 4))
    stack = residual(np.stack([-np.eye(4), -np.eye(4)]), np.stack([zero, np.eye(4)]), zero)
    for k, v in enumerate((zero, np.eye(4))):
        alone = residual(-np.eye(4), v, zero)
        assert type(alone) is float and bits(alone) == bits(stack[k])
    assert stack.tolist() == [0.0, math.inf]


@given(values=st.lists(st.booleans(), min_size=0, max_size=40))
def test_the_bool_helpers_read_a_bool_as_its_array(values):
    array = np.array(values, dtype=bool)
    assert _elementwise.any_true(array) == array.any()
    for value in values:
        assert _elementwise.any_true(value) is value


def test_item_makes_a_0d_result_a_python_scalar_and_leaves_an_array():
    assert type(_elementwise.item(np.float64(0.5))) is float
    assert type(_elementwise.item(np.array(0.5))) is float
    assert type(_elementwise.item(np.bool_(True))) is bool
    array = np.arange(3.0)
    assert _elementwise.item(array) is array
