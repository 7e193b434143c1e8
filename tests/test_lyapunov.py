import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from oment import (
    MARGINAL_ABSCISSA_FACTOR,
    IllConditionedWarning,
    default_params,
    drift_matrix,
    residual,
    spectral_abscissa,
    steady_states,
)
from oment.lyapunov import _SYSTEM, solve_stack
from references import (
    MATRIX_LAYOUTS,
    STACK_SHAPES,
    drift_and_diffusion,
    lyapunov_exact,
    lyapunov_system_loop,
    matrix_stack,
    record_gufunc_calls,
    relative_error,
    residual_by_norm,
    spectral_verdict,
)


def random_stable_pair(rng, margin=0.7):
    g = rng.standard_normal((4, 4))
    shift = np.max(np.linalg.eigvals(g).real) + margin
    a = g - shift * np.eye(4)
    b = rng.standard_normal((4, 4))
    return a, b @ b.T


def solved_with_residual(a, d):
    """solve_stack's ``(v, condition, ill)`` with ``residual(a, v, d)`` after `v`."""
    v, condition, ill = solve_stack(a, d)
    return v, residual(a, v, d), condition, ill


def test_identity_case():
    # a single pair is a stack of one: every 0-d result is a Python scalar
    v, condition, ill = solve_stack(-np.eye(4), np.eye(4))
    res = residual(-np.eye(4), v, np.eye(4))
    assert np.allclose(v, 0.5 * np.eye(4), atol=1e-15)
    assert lyapunov_exact(-np.eye(4), np.eye(4)) == (0.5 * np.eye(4)).tolist()
    assert (type(res), type(condition), type(ill)) == (float, float, bool)
    assert res < 1e-14
    assert not ill


def test_diagonal_decoupled_case():
    rates = np.array([0.5, 1.0, 2.0, 8.0])
    noise = np.array([0.1, 1.0, 3.0, 0.4])
    v = solve_stack(np.diag(-rates), np.diag(noise))[0]
    assert np.allclose(v, np.diag(noise / (2 * rates)), rtol=1e-14)


def test_solution_is_symmetric():
    rng = np.random.default_rng(11)
    a, d = random_stable_pair(rng)
    v = solve_stack(a, d)[0]
    assert np.array_equal(v, v.T)


def test_system_tensor_matches_column_loop():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 9)
        assert np.array_equal((a.reshape(16) @ _SYSTEM).reshape(10, 10), lyapunov_system_loop(a))


def test_stacked_solve_matches_single_solves():
    rng = np.random.default_rng(43)
    pairs = [random_stable_pair(rng) for _ in range(12)]
    a_stack, d_stack = (np.array(matrices) for matrices in zip(*pairs))
    v, res, condition, ill = solved_with_residual(a_stack, d_stack)
    for k, (a, d) in enumerate(pairs):
        single = solved_with_residual(a, d)
        assert np.array_equal(v[k], single[0])
        assert (res[k], condition[k], ill[k]) == single[1:]
    # one drift matrix broadcasts against a stack of diffusion matrices
    v, res, condition, ill = solved_with_residual(a_stack[0], d_stack)
    assert v.shape == d_stack.shape and np.shape(condition) == ()
    for k, d in enumerate(d_stack):
        single = solved_with_residual(a_stack[0], d)
        assert np.array_equal(v[k], single[0])
        assert res[k] == single[1]
        assert condition == single[2]


def singular_drift():
    # the drift of the default rates at delta = 0 with g = 3.9e136 rad/s, the
    # coupling that 1e250 W would give (a power far outside the parameter box,
    # so built here as a bare matrix): stable (abscissa -1.1e5), but its
    # entries span so many orders of magnitude that the LU of the 10x10
    # system finds an exact zero pivot
    params = default_params()
    omega_m, gamma_m, kappa = params.omega_m, params.gamma_m, params.kappa
    a = drift_matrix(omega_m, gamma_m, kappa, 0.0, 3.917833463362832e136, params.beta)
    stable, marginal = spectral_verdict(spectral_abscissa(a), MARGINAL_ABSCISSA_FACTOR * kappa)
    assert stable and not marginal
    return a


def test_singular_system_marks_only_its_own_pair():
    rng = np.random.default_rng(47)
    pairs = [random_stable_pair(rng) for _ in range(7)]
    pairs[3] = (singular_drift(), pairs[3][1])
    a_stack, d_stack = (np.array(matrices) for matrices in zip(*pairs))
    with pytest.warns(IllConditionedWarning, match="inf exceeds") as caught:
        v, res, condition, ill = solved_with_residual(a_stack, d_stack)
    assert len(caught) == 1
    assert np.isnan(v[3]).all() and np.isnan(res[3])
    assert condition[3] == np.inf and ill[3]
    for k, (a, d) in enumerate(pairs):
        if k != 3:
            single = solved_with_residual(a, d)
            assert np.array_equal(v[k], single[0])
            assert (res[k], condition[k], ill[k]) == single[1:]
    # the broadcast form: one singular drift matrix, a stack of diffusion matrices
    with pytest.warns(IllConditionedWarning):
        v, res, condition, ill = solved_with_residual(singular_drift(), d_stack[:2])
    assert v.shape == (2, 4, 4) and np.isnan(v).all() and np.isnan(res).all()
    assert condition == np.inf and ill


def beyond_float_range_drift():
    # regular (diagonal, pivots 2e-160 .. 2e160), but kappa_1 = 1e320 overflows
    return np.diag([-1e-160, -1.0, -1.0, -1e160])


@pytest.mark.parametrize("drift", [singular_drift, beyond_float_range_drift])
def test_non_finite_condition_is_flagged(drift):
    with pytest.warns(IllConditionedWarning, match="inf exceeds"):
        v, res, condition, ill = solved_with_residual(drift(), np.eye(4))
    assert np.isnan(v).all() and np.isnan(res)
    assert condition == math.inf and ill


@given(seed=st.integers(0, 2**32 - 1), margin=st.floats(1e-3, 3.0))
def test_condition_within_a_factor_of_ten_of_the_two_norm(seed, margin):
    # the 1-norm and 2-norm condition of an n x n matrix agree within n = 10
    a, d = random_stable_pair(np.random.default_rng(seed), margin)
    singular_values = np.linalg.svd((a.reshape(16) @ _SYSTEM).reshape(10, 10), compute_uv=False)
    two_norm = singular_values[0] / singular_values[-1]
    condition = solve_stack(a, d)[1]
    assert two_norm / 10 <= condition <= 10 * two_norm


def systems_of(a):
    return (a.reshape(-1, 16) @ _SYSTEM).reshape(a.shape[:-2] + (10, 10))


def stable_drift_stack(rng, shape, margin):
    """Stable drift matrices of `shape`, each scaled by a factor from 1e-4 to 1e4."""
    drifts = [random_stable_pair(rng, margin)[0] * 10.0 ** rng.uniform(-4, 4)
              for _ in range(math.prod(shape))]
    return np.reshape(drifts, shape + (4, 4))


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(((), (3,), (2, 3))),
    margin=st.floats(1e-3, 3.0),
)
def test_condition_matches_numpy_cond(seed, shape, margin):
    rng = np.random.default_rng(seed)
    a = stable_drift_stack(rng, shape, margin)
    condition = solve_stack(a, np.eye(4))[1]
    assert np.array_equal(condition, np.linalg.cond(systems_of(a), 1))
    assert np.shape(condition) == shape


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), m=st.integers(1, 4))
def test_condition_of_a_broadcast_drift_matches_numpy_cond(seed, k, m):
    rng = np.random.default_rng(seed)
    # one drift matrix against a stack of diffusion matrices, as in the n_th threshold search
    a = stable_drift_stack(rng, (), 0.7)
    condition = solve_stack(a, np.stack([np.eye(4)] * m))[1]
    assert np.shape(condition) == () and condition == np.linalg.cond(systems_of(a), 1)
    # one drift matrix per row against a row of m diffusion matrices, as in a sweep
    a = stable_drift_stack(rng, (k, 1), 0.7)
    condition = solve_stack(a, np.broadcast_to(np.eye(4), (k, m, 4, 4)))[1]
    assert np.array_equal(condition, np.linalg.cond(systems_of(a), 1))


@pytest.mark.parametrize("members", [(singular_drift,), (beyond_float_range_drift,),
                                     (singular_drift, beyond_float_range_drift)])
def test_condition_of_a_stack_with_non_finite_members_matches_numpy_cond(members):
    rng = np.random.default_rng(53)
    a = stable_drift_stack(rng, (2 + len(members),), 0.7)
    a[1 : 1 + len(members)] = [drift() for drift in members]
    with pytest.warns(IllConditionedWarning, match="inf exceeds") as caught:
        condition = solve_stack(a, np.eye(4))[1]
    assert len(caught) == len(members)
    assert np.array_equal(condition, np.linalg.cond(systems_of(a), 1))
    assert np.isinf(condition[1 : 1 + len(members)]).all()


def count_calls(monkeypatch, module, names):
    """Patch each function `names` of `module` to count its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_regular_stack_takes_one_inverse_and_no_cond(monkeypatch):
    a = stable_drift_stack(np.random.default_rng(59), (6,), 0.7)
    calls = record_gufunc_calls(monkeypatch, ["inv", "solve"])
    counts = count_calls(monkeypatch, np.linalg, ("cond",))
    solve_stack(a, np.eye(4))
    assert [args[0].shape for args, _ in calls["inv"]] == [(6, 10, 10)]
    assert [args[0].shape for args, _ in calls["solve"]] == [(6, 10, 10)]
    assert counts == {"cond": 0}


def test_singular_stack_takes_one_inverse_and_reads_inf(monkeypatch):
    a = np.stack([-np.eye(4), singular_drift()])
    alone = solved_with_residual(-np.eye(4), np.eye(4))
    calls = record_gufunc_calls(monkeypatch, ["inv"])
    counts = count_calls(monkeypatch, np.linalg, ("cond",))
    with pytest.warns(IllConditionedWarning, match="inf exceeds"):
        v, res, condition, ill = solved_with_residual(a, np.eye(4))
    assert len(calls["inv"]) == 1 and counts == {"cond": 0}
    assert condition[1] == np.inf and ill.tolist() == [False, True]
    for stacked, single in zip((v, res, condition, ill), alone):  # alone: Python scalars but v
        assert stacked[0].tobytes() == np.asarray(single).tobytes()


def test_nan_inverse_reads_inf_unless_the_system_has_a_nan_entry(monkeypatch):
    a = stable_drift_stack(np.random.default_rng(61), (4,), 0.7)
    a[2, 0, 1] = np.nan
    inv = _umath_linalg.inv

    def failing_second(x, **kwargs):
        inverse = inv(x, **kwargs)
        inverse[1] = np.nan  # as LAPACK reports a singular system
        return inverse

    monkeypatch.setattr(_umath_linalg, "inv", failing_second)
    with pytest.warns(IllConditionedWarning) as caught:
        condition = solve_stack(a, np.eye(4))[1]
    # np.linalg.cond takes the same (patched) inverse, so this is its rule
    assert np.array_equal(condition, np.linalg.cond(systems_of(a), 1), equal_nan=True)
    assert condition[1] == np.inf and np.isnan(condition[2])
    assert [str(w.message).split()[-3:] for w in caught] == [
        ["inf", "exceeds", "1e+12"], ["is", "not", "finite"]
    ]


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_drift_with_a_non_finite_entry_is_flagged_ill_conditioned(entry):
    a = -np.eye(4)
    a[2, 1] = entry
    a = np.stack([-np.eye(4), a])
    with pytest.warns(IllConditionedWarning, match="nan is not finite") as caught:
        v, condition, ill = solve_stack(a, np.eye(4))
    # one warning, and no numpy RuntimeWarning on the way
    assert [w.category for w in caught] == [IllConditionedWarning]
    res = residual(a, v, np.eye(4))  # inf * 0 in A V: the residual reads NaN
    assert np.isnan(condition[1]) and ill.tolist() == [False, True]
    assert np.isnan(v[1]).all() and np.isnan(res[1])
    alone = solved_with_residual(-np.eye(4), np.eye(4))
    for stacked, single in zip((v, res, condition, ill), alone):  # alone: Python scalars but v
        assert stacked[0].tobytes() == np.asarray(single).tobytes()


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_residual_warns_nothing_at_a_non_finite_drift(entry):
    # a solve, then its residual: inf * 0 in A V reads NaN without a numpy warning
    a = -np.eye(4)
    a[0, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        v = solve_stack(a, np.eye(4))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(residual(a, v, np.eye(4)))


def test_ill_conditioned_flagged_but_returned():
    a = np.diag([-1e-13, -1.0, -1.0, -1.0])
    with pytest.warns(IllConditionedWarning):
        v, condition, ill = solve_stack(a, np.eye(4))
    assert ill
    assert condition > 1e12
    assert v[0, 0] == pytest.approx(0.5e13, rel=1e-6)


def test_residual_of_exact_solution():
    rates = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.diag(1.0 / (2 * rates))
    assert residual(np.diag(-rates), v, np.eye(4)) < 1e-14


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(STACK_SHAPES),
    layout=st.sampled_from(MATRIX_LAYOUTS),
)
def test_residual_matches_the_norm_oracle(seed, shape, layout):
    a, v, d = (matrix_stack((seed, i), shape, layout) for i in range(3))
    assert np.array_equal(residual(a, v, d), residual_by_norm(a, v, d))


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), m=st.integers(1, 4))
def test_residual_of_a_broadcast_drift_matches_the_norm_oracle(seed, k, m):
    # one drift matrix per row against a row of m diffusion matrices, as in
    # an operating point that spans several n_th values
    a = matrix_stack((seed, 0), (k, 1), "contiguous")
    v, d = (matrix_stack((seed, i), (k, m), "contiguous") for i in (1, 2))
    assert np.array_equal(residual(a, v, d), residual_by_norm(a, v, d))


def test_residual_monotone_in_perturbation():
    rng = np.random.default_rng(5)
    a, d = random_stable_pair(rng)
    v = solve_stack(a, d)[0]
    values = []
    for eps in (1e-6, 1e-4, 1e-2):
        perturbed = v.copy()
        perturbed[0, 0] += eps
        values.append(residual(a, perturbed, d))
    assert values[0] < values[1] < values[2]


def test_scaling_invariance():
    rng = np.random.default_rng(17)
    a, d = random_stable_pair(rng)
    v = solve_stack(a, d)[0]
    for c in (1e-3, 7.0, 1e6):
        scaled = solve_stack(c * a, c * d)[0]
        assert np.allclose(scaled, v, rtol=1e-10)


def test_covariance_positive_semidefinite():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, d = random_stable_pair(rng)
        v = solve_stack(a, d)[0]
        floor = -1e-10 * np.trace(v)
        assert np.min(np.linalg.eigvalsh(v)) >= floor


def test_oracle_matches_solver_random_pairs():
    # largest entry error over largest entry, measured worst 3.6e-16
    rng = np.random.default_rng(101)
    for _ in range(20):
        a, d = random_stable_pair(rng)
        assert relative_error(solve_stack(a, d)[0], lyapunov_exact(a, d)) < 1e-14


def test_oracle_matches_solver_at_high_power_operating_point():
    params = replace(default_params(), power=10e-3)
    state = steady_states(-params.omega_m, params.power, params.beta, params)
    drift, diffusion = drift_and_diffusion(params, state)
    direct = solve_stack(drift, diffusion)[0]
    # measured 3.1e-16
    assert relative_error(direct, lyapunov_exact(drift, diffusion)) < 1e-14
    assert residual(drift, direct, diffusion) < 1e-8
