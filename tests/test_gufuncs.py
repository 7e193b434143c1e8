"""oment calls numpy's LAPACK gufuncs without the ``np.linalg`` wrappers.

``numpy.linalg._umath_linalg`` is private, so these tests pin what oment
relies on: each call, as ``oment._lapack`` makes it, gives the bits of the
public wrapper; a singular member of a stack, or one that is not positive
definite, reads NaN while the others keep their bits; no wrapper runs on the
pipeline's path; and no other module of oment calls the private module.  A
numpy release that changes it fails here.  A single point's LAPACK calls are
counted too, so that one added to its path fails here.
"""

from dataclasses import replace
from inspect import isfunction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import oment
from oment import _lapack, evaluate_point, from_bare_detuning
from oment.steadystate import _cubic_roots
from references import STACK_SHAPES, record_gufunc_calls, run_pipeline

# Each gufunc with the signature oment passes it, and the public wrapper
# whose bits it must give.
WRAPPERS = {
    ("eigvals", "d->D"): np.linalg.eigvals,
    ("inv", "d->d"): np.linalg.inv,
    ("solve", "dd->d"): np.linalg.solve,
    ("det", "d->d"): np.linalg.det,
    ("cholesky_lo", "d->d"): np.linalg.cholesky,
}
SIZES = (2, 3, 4, 10)


def direct(name, *args):
    """The gufunc call of ``oment._lapack``, under ``np.errstate(all="ignore")``;
    an all-real eigvals result is made real, as the wrapper makes it."""
    with np.errstate(all="ignore"):
        out = getattr(_lapack, name)(*args)
    if name == "eigvals" and not out.imag.any():
        out = out.real
    return out


def assert_same_bits(out, expected):
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def random_inputs(name, seed, shape, n, symmetric):
    """Finite arguments of gufunc `name` for a stack of `shape` n x n matrices,
    each scaled by a factor from 1e-4 to 1e4; positive definite for Cholesky."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape + (n, n)) * 10.0 ** rng.uniform(-4.0, 4.0, shape + (1, 1))
    if symmetric:  # all-real eigenvalues
        m = m + m.swapaxes(-1, -2)
    if name == "cholesky_lo":
        m = m @ m.swapaxes(-1, -2) + np.abs(m).max() * np.eye(n)
    if name == "solve":
        return m, rng.standard_normal(shape + (n, 1))
    return (m,)


@given(
    seed=st.integers(0, 2**32 - 1),
    call=st.sampled_from(sorted(WRAPPERS)),
    shape=st.sampled_from(STACK_SHAPES),
    n=st.sampled_from(SIZES),
    symmetric=st.booleans(),
)
def test_gufunc_gives_the_bits_of_its_wrapper(seed, call, shape, n, symmetric):
    args = random_inputs(call[0], seed, shape, n, symmetric)
    assert_same_bits(direct(call[0], *args), WRAPPERS[call](*args))


@given(roots=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), real=st.booleans())
def test_cubic_roots_match_the_eigvals_wrapper(roots, real):
    # three real roots, or one real root and a complex pair r1 +- i r2
    r0, r1, r2 = roots
    if real:
        a2, a1, a0 = -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2
    else:
        a2, a1, a0 = -(r0 + 2 * r1), 2 * r0 * r1 + r1 * r1 + r2 * r2, -r0 * (r1 * r1 + r2 * r2)
    companion = np.array([[0.0, 0.0, -a0], [1.0, 0.0, -a1], [0.0, 1.0, -a2]])
    by_wrapper = np.linalg.eigvals(companion)
    # the bits are compared, not the warnings: at subnormal coefficients the
    # Newton step itself can overflow, with either source of eigenvalues
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        direct_roots = _cubic_roots(a2, a1, a0)
        patch.setattr(_umath_linalg, "eigvals", lambda a, signature: by_wrapper)
        assert [x.hex() for x in direct_roots] == [x.hex() for x in _cubic_roots(a2, a1, a0)]


def failing_member(name, n):
    """A matrix that `name` fails on: a zero column, which LU meets as an
    exact zero pivot, or a negative definite one for Cholesky."""
    if name == "cholesky_lo":
        return -np.eye(n)
    m = np.eye(n)
    m[:, n // 2] = 0.0
    return m


@given(
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["inv", "solve", "cholesky_lo"]),
    k=st.integers(2, 5),
    n=st.sampled_from(SIZES),
    data=st.data(),
)
def test_a_failing_member_reads_nan_and_the_others_keep_their_bits(seed, name, k, n, data):
    bad = data.draw(st.integers(0, k - 1))
    args = random_inputs(name, seed, (k,), n, False)
    args[0][bad] = failing_member(name, n)
    signature = "dd->d" if name == "solve" else "d->d"
    out = direct(name, *args)
    assert np.isnan(out[bad]).all()
    others = [j for j in range(k) if j != bad]
    expected = WRAPPERS[name, signature](*(x[others] for x in args))
    assert_same_bits(out[others], expected)


def test_oment_calls_each_gufunc_as_its_wrapper_does(params, monkeypatch):
    calls = record_gufunc_calls(monkeypatch, sorted({name for name, _ in WRAPPERS}))
    run_pipeline(params)
    monkeypatch.undo()
    for name, recorded in calls.items():
        assert recorded, f"{name} is never called"
        for args, kwargs in recorded:
            assert kwargs.keys() == {"signature"}
            wrapper = WRAPPERS[name, kwargs["signature"]]
            assert_same_bits(direct(name, *args), wrapper(*args))


def test_no_linalg_wrapper_runs_on_the_pipeline(params, monkeypatch):
    expected = run_pipeline(params)

    def refuse(*args, **kwargs):
        raise AssertionError("an np.linalg wrapper ran")

    for name in ("eigvals", "inv", "solve", "det", "cholesky", "cond"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run_pipeline(params) == expected


def test_only_the_lapack_module_calls_the_private_gufuncs():
    sources = {path.name: path.read_text() for path in Path(oment.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "_umath_linalg" in text] == ["_lapack.py"]
    assert [name for name, text in sources.items() if "signature=" in text] == ["_lapack.py"]


def count_lapack_calls(monkeypatch):
    """Patch every function of ``oment._lapack``, which oment looks up on the
    module at call time, to count its calls; returns ``{name: count}``."""
    counts = {}
    for name, original in vars(_lapack).items():
        if isfunction(original) and original.__module__ == _lapack.__name__:
            counts[name] = 0

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(_lapack, name, counted)
    return counts


NO_CALLS = dict.fromkeys(["det", "eigvals", "inv", "solve", "cholesky_lo"], 0)


def test_a_single_point_keeps_its_lapack_budget(params, monkeypatch):
    # an ok point: one inverse for the condition, one solve, the three block
    # determinants and det V, and one Cholesky factor; an unstable point none.
    # A LAPACK call added to the single-point path fails here.
    counts = count_lapack_calls(monkeypatch)
    assert counts == NO_CALLS
    ok = replace(params, power=10e-3, beta=0.6)
    assert evaluate_point(ok, -0.5).status == "ok"
    assert counts == NO_CALLS | {"inv": 1, "solve": 1, "det": 2, "cholesky_lo": 1}
    counts.update(NO_CALLS)
    assert evaluate_point(replace(params, power=10e-3), -0.2).status == "unstable"
    assert counts == NO_CALLS


@pytest.mark.parametrize("delta_norm, branches", [(-0.75, 1), (-2.5, 3)])
def test_a_bare_detuning_takes_one_eigvals(params, monkeypatch, delta_norm, branches):
    # a complex root pair, then three real roots: the cubic's companion
    # matrix is the only LAPACK call
    counts = count_lapack_calls(monkeypatch)
    bistable = replace(params, power=20e-3, beta=0.3)
    assert len(from_bare_detuning(delta_norm * params.omega_m, bistable)) == branches
    assert counts == NO_CALLS | {"eigvals": 1}
