import math
from dataclasses import replace

import numpy as np
import pytest

from oment import (
    coupling_threshold_blue,
    coupling_threshold_red,
    default_params,
    diffusion_matrix,
    drift_matrix,
    evaluate_point,
    routh_conditions,
    spectral_abscissa,
    spectral_verdict,
    stability_stack,
    steady_states,
)


@pytest.fixture
def params():
    return default_params()


def test_drift_entries(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    delta, g, beta = -0.7 * omega, 3.1e9, 0.25
    a = drift_matrix(omega, gamma, kappa, delta, g, beta)
    expected = np.array(
        [
            [0.0, omega, 0.0, 0.0],
            [omega * (beta - 1.0), -gamma, g, 0.0],
            [0.0, 0.0, -kappa / 2.0, -delta],
            [g, 0.0, delta, -kappa / 2.0],
        ]
    )
    assert np.array_equal(a, expected)
    zero_entries = [(0, 0), (0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (3, 1)]
    for i, j in zero_entries:
        assert a[i, j] == 0.0


def test_drift_softening_entry(params):
    a = drift_matrix(params.omega_m, params.gamma_m, params.kappa, -params.omega_m, 1e9, 0.5)
    assert a[1, 0] == -0.5 * params.omega_m


def test_drift_rejects_beta_at_one(params):
    with pytest.raises(ValueError):
        drift_matrix(params.omega_m, params.gamma_m, params.kappa, -params.omega_m, 1e9, 1.0)


def test_build_drift_from_operating_point(params):
    p10 = replace(params, power=10e-3)
    state = steady_states(-p10.omega_m, p10.power, p10.beta, p10)
    a, _ = stability_stack(state, p10)
    assert a[1, 2] == a[3, 0] == state.g_eff
    assert state.g_eff == pytest.approx(2870781258.3105435, rel=1e-12)
    assert a[2, 3] == -state.delta_eff
    assert a[3, 2] == state.delta_eff


def test_decoupled_eigenvalues(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    delta = -0.6 * omega
    a = drift_matrix(omega, gamma, kappa, delta, 0.0, 0.0)
    eigs = np.sort_complex(np.linalg.eigvals(a))
    mech = [-gamma / 2 + 1j * math.sqrt(omega**2 - gamma**2 / 4),
            -gamma / 2 - 1j * math.sqrt(omega**2 - gamma**2 / 4)]
    cav = [-kappa / 2 + 1j * delta, -kappa / 2 - 1j * delta]
    expected = np.sort_complex(np.array(mech + cav))
    assert np.allclose(eigs, expected, rtol=1e-9)
    # slowest decay sets the abscissa
    assert spectral_abscissa(a) == pytest.approx(max(-gamma / 2, -kappa / 2), rel=1e-9)


def test_drift_linear_in_coupling(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    a1 = drift_matrix(omega, gamma, kappa, -omega, 4e9, 0.2)
    a2 = drift_matrix(omega, gamma, kappa, -omega, 1e9, 0.2)
    diff = a1 - a2
    nonzero = np.argwhere(diff != 0.0)
    assert len(nonzero) == 2
    assert {tuple(idx) for idx in nonzero} == {(1, 2), (3, 0)}
    assert diff[1, 2] == diff[3, 0] == 3e9


def test_diffusion_zero_temperature(params):
    d = diffusion_matrix(params.gamma_m, params.kappa, 0.0)
    assert np.array_equal(
        d, np.diag([0.0, params.gamma_m, params.kappa, params.kappa])
    )


def test_diffusion_thermal_entries(params):
    n_th = 1.1157109535263916
    d = diffusion_matrix(params.gamma_m, params.kappa, n_th)
    assert d[1, 1] == pytest.approx(params.gamma_m * 3.231421907052783, rel=1e-12)
    d_room = diffusion_matrix(params.gamma_m, params.kappa, 2500.0)
    assert d_room[1, 1] == 5001.0 * params.gamma_m
    assert np.count_nonzero(d - np.diag(np.diag(d))) == 0


def test_diffusion_monotone_and_psd(params):
    values = [diffusion_matrix(params.gamma_m, params.kappa, n)[1, 1] for n in (0.0, 0.5, 1.0, 10.0, 2500.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    d = diffusion_matrix(params.gamma_m, params.kappa, 3.0)
    assert np.all(np.linalg.eigvalsh(d) >= 0.0)
    assert np.all(np.diag(d)[1:] > 0.0)


def test_diffusion_rejects_negative_occupation(params):
    with pytest.raises(ValueError):
        diffusion_matrix(params.gamma_m, params.kappa, -0.1)


def test_routh_uncoupled_always_stable(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    for delta in (-omega, -0.3 * omega, 0.4 * omega, omega):
        s1, s2 = routh_conditions(omega, gamma, kappa, delta, 0.0)
        assert s1 > 0
        assert s2 == pytest.approx(omega * (delta**2 + kappa**2 / 4), rel=1e-14)
        assert s2 > 0


def test_blue_threshold_closed_form_vs_bisection(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    closed = coupling_threshold_blue(params)

    def s2_at(g):
        return routh_conditions(omega, gamma, kappa, -omega, g)[1]

    lo, hi = 0.0, 1e12
    assert s2_at(lo) > 0 > s2_at(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if s2_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert closed == pytest.approx((lo + hi) / 2, rel=1e-10)
    assert closed == pytest.approx(2.26e10, rel=0.02)


def test_red_threshold_closed_form_vs_bisection(params):
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    closed = coupling_threshold_red(params)

    def s1_at(g):
        return routh_conditions(omega, gamma, kappa, omega, g)[0]

    lo, hi = 0.0, 1e12
    assert s1_at(lo) > 0 > s1_at(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if s1_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert closed == pytest.approx((lo + hi) / 2, rel=1e-10)
    assert closed == pytest.approx(2.89e7, rel=0.10)


def test_threshold_sign_requirements(params):
    with pytest.raises(ValueError):
        coupling_threshold_blue(params, delta=params.omega_m)
    with pytest.raises(ValueError):
        coupling_threshold_red(params, delta=-params.omega_m)


def test_spectral_diagonal_cases():
    abscissa = spectral_abscissa(-np.eye(4))
    assert abscissa == pytest.approx(-1.0, rel=1e-12)
    assert spectral_verdict(abscissa)[0]
    assert spectral_abscissa(-0.25 * np.eye(4)) == pytest.approx(-0.25, rel=1e-12)


def test_spectral_marginal_band():
    nearly = np.diag([-1e-9, -1.0, -1.0, -1.0])
    stable, marginal = spectral_verdict(spectral_abscissa(nearly), marginal_tol=1e-6)
    assert stable
    assert marginal
    unstable = np.diag([1e-3, -1.0, -1.0, -1.0])
    stable, marginal = spectral_verdict(spectral_abscissa(unstable), marginal_tol=1e-6)
    assert not stable
    assert not marginal


def test_routh_and_spectral_agree_on_random_points(params):
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(300):
        omega = 10.0 ** rng.uniform(6, 10)
        gamma = omega * 10.0 ** rng.uniform(-6, -1)
        kappa = omega * 10.0 ** rng.uniform(-3, 0.3)
        delta = rng.uniform(-2.0, 2.0) * omega
        g = omega * 10.0 ** rng.uniform(-4, 0.3)
        s1, s2 = routh_conditions(omega, gamma, kappa, delta, g)
        hk2 = kappa**2 / 4
        s1_scale = gamma * kappa * (
            (hk2 + (omega - delta) ** 2) * (hk2 + (omega + delta) ** 2)
            + gamma * ((gamma + kappa) * (hk2 + delta**2) + kappa * omega**2)
        ) + abs(delta) * omega * g**2 * (gamma + kappa) ** 2
        s2_scale = omega * (delta**2 + hk2) + g**2 * abs(delta)
        if abs(s1) < 1e-6 * s1_scale or abs(s2) < 1e-6 * s2_scale:
            continue
        a = drift_matrix(omega, gamma, kappa, delta, g, 0.0)
        assert (s1 > 0 and s2 > 0) == (spectral_abscissa(a) < 0)
        checked += 1
    assert checked > 250


def test_routh_hurwitz_verdict_matches_signs(params):
    p10 = replace(params, power=10e-3)
    state = steady_states(-0.2 * p10.omega_m, p10.power, p10.beta, p10)
    _, report = stability_stack(state, p10)
    assert report.routh_stable == (report.s1 > 0 and report.s2 > 0)
