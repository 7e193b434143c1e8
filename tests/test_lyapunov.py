from dataclasses import replace

import numpy as np
import pytest

from oment import (
    IllConditionedWarning,
    UnstableDriftError,
    build_diffusion,
    build_drift,
    default_params,
    derive,
    from_effective_detuning,
    residual,
    solve_lyapunov,
)
from oment.lyapunov import _SYSTEM, solve_stack
from references import (
    HorizonTooShortError,
    lyapunov_oracle,
    lyapunov_system_loop,
    matrix_exponential,
)


def random_stable_pair(rng, margin=0.7):
    g = rng.standard_normal((4, 4))
    shift = np.max(np.linalg.eigvals(g).real) + margin
    a = g - shift * np.eye(4)
    b = rng.standard_normal((4, 4))
    return a, b @ b.T


def test_identity_case():
    cm = solve_lyapunov(-np.eye(4), np.eye(4))
    assert np.allclose(cm.v, 0.5 * np.eye(4), atol=1e-15)
    assert cm.residual < 1e-14
    assert not cm.ill_conditioned


def test_diagonal_decoupled_case():
    rates = np.array([0.5, 1.0, 2.0, 8.0])
    noise = np.array([0.1, 1.0, 3.0, 0.4])
    cm = solve_lyapunov(np.diag(-rates), np.diag(noise))
    assert np.allclose(cm.v, np.diag(noise / (2 * rates)), rtol=1e-14)


def test_solution_is_symmetric():
    rng = np.random.default_rng(11)
    a, d = random_stable_pair(rng)
    cm = solve_lyapunov(a, d)
    assert np.array_equal(cm.v, cm.v.T)


def test_system_tensor_matches_column_loop():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 9)
        assert np.array_equal((a.reshape(16) @ _SYSTEM).reshape(10, 10), lyapunov_system_loop(a))


def test_stacked_solve_matches_single_solves():
    rng = np.random.default_rng(43)
    pairs = [random_stable_pair(rng) for _ in range(12)]
    a_stack, d_stack = (np.array(matrices) for matrices in zip(*pairs))
    v, res, condition, ill = solve_stack(a_stack, d_stack)
    for k, (a, d) in enumerate(pairs):
        single = solve_lyapunov(a, d)
        assert np.array_equal(v[k], single.v)
        assert condition[k] == single.condition
        assert res[k] == single.residual
        assert ill[k] == single.ill_conditioned
    # one drift matrix broadcasts against a stack of diffusion matrices
    v, res, condition, ill = solve_stack(a_stack[0], d_stack)
    assert v.shape == d_stack.shape and np.shape(condition) == ()
    for k, d in enumerate(d_stack):
        single = solve_lyapunov(a_stack[0], d)
        assert np.array_equal(v[k], single.v)
        assert res[k] == single.residual
        assert condition == single.condition


def test_rejects_unstable_drift():
    with pytest.raises(UnstableDriftError):
        solve_lyapunov(np.diag([0.5, -1.0, -1.0, -1.0]), np.eye(4))
    with pytest.raises(UnstableDriftError):
        lyapunov_oracle(np.diag([0.5, -1.0, -1.0, -1.0]), np.eye(4))


def test_ill_conditioned_flagged_but_returned():
    a = np.diag([-1e-13, -1.0, -1.0, -1.0])
    with pytest.warns(IllConditionedWarning):
        cm = solve_lyapunov(a, np.eye(4))
    assert cm.ill_conditioned
    assert cm.condition > 1e12
    assert cm.v[0, 0] == pytest.approx(0.5e13, rel=1e-6)


def test_residual_of_exact_solution():
    rates = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.diag(1.0 / (2 * rates))
    assert residual(np.diag(-rates), v, np.eye(4)) < 1e-14


def test_residual_monotone_in_perturbation():
    rng = np.random.default_rng(5)
    a, d = random_stable_pair(rng)
    v = solve_lyapunov(a, d).v
    values = []
    for eps in (1e-6, 1e-4, 1e-2):
        perturbed = v.copy()
        perturbed[0, 0] += eps
        values.append(residual(a, perturbed, d))
    assert values[0] < values[1] < values[2]


def test_scaling_invariance():
    rng = np.random.default_rng(17)
    a, d = random_stable_pair(rng)
    v = solve_lyapunov(a, d).v
    for c in (1e-3, 7.0, 1e6):
        scaled = solve_lyapunov(c * a, c * d).v
        assert np.allclose(scaled, v, rtol=1e-10)


def test_covariance_positive_semidefinite():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, d = random_stable_pair(rng)
        v = solve_lyapunov(a, d).v
        floor = -1e-10 * np.trace(v)
        assert np.min(np.linalg.eigvalsh(v)) >= floor


def test_block_views():
    cm = solve_lyapunov(-np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0]))
    assert cm.v_m.shape == (2, 2)
    assert cm.v_cav.shape == (2, 2)
    assert cm.v_corr.shape == (2, 2)
    assert np.array_equal(cm.v[:2, :2], cm.v_m)
    assert np.array_equal(cm.v[2:, 2:], cm.v_cav)


def test_matrix_exponential_identities():
    assert np.allclose(matrix_exponential(np.zeros((4, 4))), np.eye(4), atol=1e-15)
    diag = np.diag([-1.0, 0.5, 2.0, -3.0])
    assert np.allclose(matrix_exponential(diag), np.diag(np.exp(np.diag(diag))), rtol=1e-13)


def test_matrix_exponential_against_taylor_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((4, 4)) * 0.1
        series = np.zeros((4, 4))
        term = np.eye(4)
        for k in range(1, 40):
            series += term
            term = term @ m / k
        assert np.allclose(matrix_exponential(m), series, rtol=1e-13, atol=1e-15)


def test_matrix_exponential_group_property():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4)) * 3.0
    once = matrix_exponential(m)
    assert np.allclose(once @ once, matrix_exponential(2.0 * m), rtol=1e-10)


def test_matrix_exponential_nilpotent():
    n = np.zeros((4, 4))
    n[0, 1] = n[1, 2] = n[2, 3] = 1.0
    exact = np.eye(4) + n + n @ n / 2.0 + n @ n @ n / 6.0
    assert np.allclose(matrix_exponential(n), exact, rtol=1e-14)


def test_oracle_closed_form():
    cm = lyapunov_oracle(-np.eye(4), np.eye(4), tol=1e-8)
    assert np.allclose(cm.v, 0.5 * np.eye(4), rtol=1e-8)
    assert cm.tail_bound is not None
    assert cm.tail_bound < 1e-8 * np.linalg.norm(cm.v)


def test_oracle_horizon_doubling_converges():
    rng = np.random.default_rng(31)
    a, d = random_stable_pair(rng)
    abscissa = np.max(np.linalg.eigvals(a).real)
    horizon = 40.0 / abs(abscissa)
    v1 = lyapunov_oracle(a, d, horizon=horizon, tol=1e-8).v
    v2 = lyapunov_oracle(a, d, horizon=2 * horizon, tol=1e-8).v
    assert np.linalg.norm(v2 - v1) / np.linalg.norm(v1) < 1e-8


def test_oracle_rejects_short_horizon():
    with pytest.raises(HorizonTooShortError):
        lyapunov_oracle(-np.eye(4), np.eye(4), horizon=1.0)


def test_oracle_matches_solver_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(20):
        a, d = random_stable_pair(rng)
        direct = solve_lyapunov(a, d).v
        quadrature = lyapunov_oracle(a, d, tol=1e-7).v
        rel = np.linalg.norm(direct - quadrature) / np.linalg.norm(direct)
        assert rel < 1e-6


def test_oracle_matches_solver_at_high_power_operating_point():
    params = replace(default_params(), power=10e-3)
    derived = derive(params)
    state = from_effective_detuning(-params.omega_m, params, derived)
    drift = build_drift(state, params)
    diffusion = build_diffusion(params, derived.n_th)
    direct = solve_lyapunov(drift, diffusion)
    quadrature = lyapunov_oracle(drift, diffusion, tol=1e-7)
    rel = np.linalg.norm(direct.v - quadrature.v) / np.linalg.norm(direct.v)
    assert rel < 1e-6
    assert direct.residual < 1e-8
