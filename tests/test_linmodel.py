import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oment import (
    MARGINAL_ABSCISSA_FACTOR,
    SteadyState,
    coupling_threshold_blue,
    coupling_threshold_red,
    default_params,
    diffusion_matrix,
    drift_matrix,
    evaluate_point,
    figure_preset,
    nth_entanglement_threshold,
    routh_conditions,
    run_sweep,
    spectral_abscissa,
    stability_stack,
    steady_states,
)
from oment import sweep
from references import (
    blue_threshold_closed_form,
    characteristic_quartic,
    gate_by_eigvals,
    hurwitz_in_fractions,
    hurwitz_with_beta,
    record_gufunc_calls,
    red_threshold_closed_form,
    spectral_verdict,
    threshold_in_fractions,
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


def test_stability_stack_rejects_beta_at_one(params):
    steady = steady_states(-params.omega_m, params.power, np.array([0.0, 1.0]), params)
    with pytest.raises(ValueError, match="beta must be < 1"):
        stability_stack(steady, params)


def test_build_drift_from_operating_point(params):
    p10 = replace(params, power=10e-3)
    state = steady_states(-p10.omega_m, p10.power, p10.beta, p10)
    a = drift_matrix(p10.omega_m, p10.gamma_m, p10.kappa, state.delta_eff, state.g_eff, p10.beta)
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


def test_routh_numbers_where_kappa_squared_overflows(params):
    # kappa^2 is inf, as numpy gives it for an array, not an OverflowError;
    # the thresholds, about kappa/2 and 8e232, are finite all the same
    kappa = 2.0 * math.pi * 1e160
    omega, gamma = params.omega_m, params.gamma_m
    assert routh_conditions(omega, gamma, kappa, -omega, 1e9) == (math.inf, math.inf)
    wide = replace(params, kappa=kappa)
    for threshold, delta in ((coupling_threshold_blue, -omega), (coupling_threshold_red, omega)):
        exact = threshold_in_fractions(omega, gamma, kappa, delta)
        assert threshold(wide) == pytest.approx(exact, rel=1e-15)


def test_red_threshold_where_omega_m_squared_underflows(params):
    # omega_m * omega_m underflows to 0, so s1 / 0 is inf; sqrt(s1) / omega_m
    # / (gamma_m + kappa) is finite, and (G/kappa)^2 ~ 1e352 is not
    omega = 2.0 * math.pi * 1e-170
    threshold = coupling_threshold_red(replace(params, omega_m=omega))
    assert threshold == 3.5757416935455026e185
    assert threshold == threshold_in_fractions(omega, params.gamma_m, params.kappa, omega)


def test_blue_threshold_where_scaled_omega_m_would_underflow(params):
    # kappa^2 overflows, and omega_m is 1e-330 times kappa: scaled so that kappa
    # lies in [0.5, 1), omega_m would underflow to 0 and the threshold read NaN
    omega, kappa = 2.0 * math.pi * 1e-170, 2.0 * math.pi * 1e160
    threshold = coupling_threshold_blue(replace(params, omega_m=omega, kappa=kappa))
    exact = threshold_in_fractions(omega, params.gamma_m, kappa, -omega)
    assert threshold == pytest.approx(exact, rel=1e-15)



@pytest.mark.parametrize(
    "omega_hz, gamma_hz, kappa_hz",
    [(1e-100, 1e-100, 1e-100), (1e-200, 1e-200, 1e-200), (1e-170, 1e-65, 1e-50)],
    ids=["s1-and-denominator-underflow", "s1-and-s2-underflow", "s1-subnormal"],
)
def test_thresholds_at_tiny_rates(params, omega_hz, gamma_hz, kappa_hz):
    # s1 (~rate^6) and omega_m^2 (gamma_m+kappa)^2 underflow to 0 or lose digits,
    # and at 1e-200 Hz s2 does too; the rescaled rates give the exact values
    omega, gamma, kappa = (2.0 * math.pi * hz for hz in (omega_hz, gamma_hz, kappa_hz))
    tiny = replace(params, omega_m=omega, gamma_m=gamma, kappa=kappa)
    for threshold, delta in ((coupling_threshold_blue, -omega), (coupling_threshold_red, omega)):
        exact = threshold_in_fractions(omega, gamma, kappa, delta)
        assert threshold(tiny) == pytest.approx(exact, rel=1e-15, abs=0.0)


# log10 of omega_m, gamma_m and kappa (rad/s), six decades each
_THRESHOLD_RANGES = ((3.0, 9.0), (-1.0, 5.0), (3.0, 9.0))


@given(*(st.floats(low, high) for low, high in _THRESHOLD_RANGES))
def test_thresholds_match_the_closed_forms(log_omega, log_gamma, log_kappa):
    # the thresholds sit at the sidebands, delta = -omega_m and +omega_m
    omega, gamma, kappa = (10.0**x for x in (log_omega, log_gamma, log_kappa))
    params = replace(default_params(), omega_m=omega, gamma_m=gamma, kappa=kappa)
    assert coupling_threshold_blue(params) == blue_threshold_closed_form(omega, kappa, -omega)
    assert coupling_threshold_red(params) == red_threshold_closed_form(
        omega, gamma, kappa, omega
    )


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


def routh_agrees_with_spectral(log_omega, log_gamma, log_kappa, delta_norm, log_g):
    """Routh-Hurwitz and spectral verdict at beta = 0, or None near the boundary.

    The point is log10 of omega_m, log10 of gamma, kappa and g in units of
    omega_m, and delta in units of omega_m; a point whose s1 or s2 is within
    1e-6 of its own scale is too close to the boundary to tell.
    """
    omega = 10.0**log_omega
    gamma, kappa, g = omega * 10.0**log_gamma, omega * 10.0**log_kappa, omega * 10.0**log_g
    delta = delta_norm * omega
    s1, s2 = routh_conditions(omega, gamma, kappa, delta, g)
    hk2 = kappa**2 / 4
    s1_scale = gamma * kappa * (
        (hk2 + (omega - delta) ** 2) * (hk2 + (omega + delta) ** 2)
        + gamma * ((gamma + kappa) * (hk2 + delta**2) + kappa * omega**2)
    ) + abs(delta) * omega * g**2 * (gamma + kappa) ** 2
    s2_scale = omega * (delta**2 + hk2) + g**2 * abs(delta)
    if abs(s1) < 1e-6 * s1_scale or abs(s2) < 1e-6 * s2_scale:
        return None
    a = drift_matrix(omega, gamma, kappa, delta, g, 0.0)
    return (s1 > 0 and s2 > 0) == (spectral_abscissa(a) < 0)


_RANGES = ((6, 10), (-6, -1), (-3, 0.3), (-2.0, 2.0), (-4, 0.3))


def test_routh_and_spectral_agree_on_random_points(params):
    rng = np.random.default_rng(2024)
    verdicts = [
        routh_agrees_with_spectral(*(rng.uniform(low, high) for low, high in _RANGES))
        for _ in range(300)
    ]
    assert False not in verdicts
    assert verdicts.count(True) > 250


@given(*(st.floats(low, high) for low, high in _RANGES))
def test_routh_and_spectral_agree_at_beta_zero(log_omega, log_gamma, log_kappa, delta_norm, log_g):
    verdict = routh_agrees_with_spectral(log_omega, log_gamma, log_kappa, delta_norm, log_g)
    assume(verdict is not None)
    assert verdict


def test_characteristic_quartic_is_that_of_the_drift(params):
    rng = np.random.default_rng(7)
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    for _ in range(50):
        delta, g = rng.uniform(-2.0, 2.0) * omega, rng.uniform(0.0, 3e9)
        beta = rng.uniform(0.0, 1.0)
        expected = np.poly(drift_matrix(omega, gamma, kappa, delta, g, beta))[1:]
        quartic = characteristic_quartic(omega, gamma, kappa, delta, g, beta)
        np.testing.assert_allclose(quartic, expected, rtol=1e-9, atol=0.0)


def rates(log_omega, log_gamma, log_kappa, delta_norm, log_g):
    """(omega_m, gamma_m, kappa, delta, g) of a point given as in
    :func:`routh_agrees_with_spectral`."""
    omega = 10.0**log_omega
    gamma, kappa, g = omega * 10.0**log_gamma, omega * 10.0**log_kappa, omega * 10.0**log_g
    return omega, gamma, kappa, delta_norm * omega, g


def hurwitz_agrees_with_spectral(log_omega, log_gamma, log_kappa, delta_norm, log_g, beta):
    """The beta-aware Hurwitz verdict against the spectral one, or None near the
    boundary: a point with a Hurwitz determinant within 1e-6 of its scale, or
    with a computed abscissa within MARGINAL_ABSCISSA_FACTOR * kappa of 0.

    The point is given as in :func:`routh_agrees_with_spectral`.  The second
    band is the marginal band the pipeline never solves, mirrored: near
    beta = 1 the determinants can sit far from 0 while LAPACK's abscissa
    still errs by more than its own size.
    """
    omega, gamma, kappa, delta, g = rates(log_omega, log_gamma, log_kappa, delta_norm, log_g)
    h, scale = hurwitz_with_beta(omega, gamma, kappa, delta, g, beta)
    if any(abs(x) < 1e-6 * s for x, s in zip(h, scale)):
        return None
    abscissa = spectral_abscissa(drift_matrix(omega, gamma, kappa, delta, g, beta))
    if abs(abscissa) < MARGINAL_ABSCISSA_FACTOR * kappa:
        return None
    return all(x > 0 for x in h) == (abscissa < 0)


# beta one ulp below 1: exact arithmetic gives the abscissa -1.11e-8, inside
# the marginal band, and LAPACK +2.28e-8, while every Hurwitz determinant is
# far from 0
_NEAR_BETA_ONE = dict(
    log_omega=6.0, log_gamma=-2.0, log_kappa=0.0, delta_norm=9.295841250454038e-73, log_g=0.0,
    beta=0.9999999999999999,
)


def test_hurwitz_comparison_sets_aside_an_abscissa_in_the_marginal_band():
    assert hurwitz_agrees_with_spectral(**_NEAR_BETA_ONE) is None


def test_the_gate_reads_marginal_near_beta_one_as_exact_arithmetic_does():
    # the eigvals gate read this point unstable; exact arithmetic on the same
    # floats puts its slowest root inside the marginal band, as the gate does
    beta = _NEAR_BETA_ONE["beta"]
    omega, gamma, kappa, delta, g = rates(
        **{key: value for key, value in _NEAR_BETA_ONE.items() if key != "beta"}
    )
    params = replace(default_params(), omega_m=omega, gamma_m=gamma, kappa=kappa)
    # the gate reads only the detuning, the coupling and beta of a steady state
    steady = SteadyState(math.nan, math.nan, math.nan, delta, math.nan, g, beta)
    report = stability_stack(steady, params)
    assert (report.spectral_stable, report.marginal, report.undecided) == (True, True, False)
    assert sweep._gate(report)[1] == "marginal"
    eps = MARGINAL_ABSCISSA_FACTOR * kappa
    assert all(h > 0 for h in hurwitz_in_fractions(omega, gamma, kappa, delta, g, beta))
    shifted = hurwitz_in_fractions(omega, gamma, kappa, delta, g, beta, eps)
    assert not all(h > 0 for h in shifted)


@given(st.floats(0.7, 30.0), st.floats(0.0, 0.6), st.floats(-2.5, 1.5))
def test_the_quartic_gate_matches_the_eigvals_oracle(power_mw, beta, delta_norm):
    # the benchmark workloads' ranges, wherever every Hurwitz determinant of
    # p(s) and of p(z - eps) is clear of zero by 1e-6 of its scale
    params = replace(default_params(), power=power_mw * 1e-3, beta=beta)
    steady = steady_states(delta_norm * params.omega_m, params.power, beta, params)
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    for shift in (0.0, MARGINAL_ABSCISSA_FACTOR * kappa):
        h, scale = hurwitz_with_beta(omega, gamma, kappa, steady.delta_eff, steady.g_eff, beta, shift)
        assume(all(abs(x) >= 1e-6 * s for x, s in zip(h, scale)))
    gate, _ = sweep._gate(stability_stack(steady, params))
    assert gate == gate_by_eigvals(params, steady)


@given(*(st.floats(low, high) for low, high in _RANGES), st.floats(0.0, 1.0, exclude_max=True))
@example(**_NEAR_BETA_ONE)
def test_beta_aware_hurwitz_and_spectral_agree(
    log_omega, log_gamma, log_kappa, delta_norm, log_g, beta
):
    verdict = hurwitz_agrees_with_spectral(log_omega, log_gamma, log_kappa, delta_norm, log_g, beta)
    assume(verdict is not None)
    assert verdict


def test_fig2a_rows_where_the_beta_zero_routh_numbers_miss_the_instability():
    # routh_conditions is written for beta = 0, so on the beta > 0 curves of
    # fig2a it reads 17 unstable rows, next to the curves' maxima, as stable
    spec = figure_preset("fig2a")
    fig2a = run_sweep(spec)
    missed = fig2a.routh_stable & ~fig2a.spectral_stable
    assert missed.sum() == 17
    assert set(fig2a.curve[missed].tolist()) == {0.2, 0.4, 0.6}
    assert fig2a.axis[missed].min() == pytest.approx(-0.33)
    assert fig2a.axis[missed].max() == pytest.approx(-0.24)
    assert set(fig2a.status[missed].tolist()) == {"unstable"}
    # the Hurwitz test with beta agrees with the spectral gate on every row
    p = spec.fixed
    h, _ = hurwitz_with_beta(
        p.omega_m, p.gamma_m, p.kappa, fig2a.axis * p.omega_m, fig2a.g_eff, fig2a.curve
    )
    assert np.array_equal(np.logical_and.reduce([x > 0 for x in h]), fig2a.spectral_stable)


def test_routh_hurwitz_verdict_matches_signs(params):
    p10 = replace(params, power=10e-3)
    state = steady_states(-0.2 * p10.omega_m, p10.power, p10.beta, p10)
    report = stability_stack(state, p10)
    assert report.routh_stable == (report.s1 > 0 and report.s2 > 0)


def gate_stack(params, powers):
    """stability_stack at -0.5 omega_m and beta = 0.2, one point per power."""
    powers = np.asarray(powers, dtype=float)
    return stability_stack(steady_states(-0.5 * params.omega_m, powers, 0.2, params), params)


def test_no_eigvals_on_the_sweep_point_or_threshold_path(params, monkeypatch):
    calls = record_gufunc_calls(monkeypatch, ["eigvals"])
    p10 = replace(params, power=10e-3)
    fig2a = run_sweep(figure_preset("fig2a"))
    assert {"ok", "unstable"} <= set(fig2a.status.tolist())
    assert evaluate_point(p10, -1.0).status == "ok"
    assert evaluate_point(p10, -0.2).status == "unstable"
    assert nth_entanglement_threshold(p10, -1.0) > 0.0
    assert calls["eigvals"] == []
    spectral_abscissa(-np.eye(4))  # the recorder sees an eigvals call
    assert len(calls["eigvals"]) == 1


def test_gate_of_a_stack_with_an_overflowed_drift_matrix(params):
    # 1e300 W overflows the drive amplitude, so that drift matrix holds inf
    # entries and that quartic is not finite: undecided, alone in the stack
    powers = [10e-3, 1e300, 3e-3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gate_stack(params, powers)
        alone = [gate_stack(params, power) for power in powers]
    steady = steady_states(-0.5 * params.omega_m, 1e300, 0.2, params)
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    assert not np.isfinite(drift_matrix(omega, gamma, kappa, steady.delta_eff, steady.g_eff)).all()
    assert report.undecided.tolist() == [False, True, False]
    assert report.spectral_stable.tolist()[1] is False and report.marginal.tolist()[1] is False
    for k in (0, 2):
        for name in ("s1", "s2", "routh_stable", "spectral_stable", "marginal", "undecided"):
            value, single = getattr(report, name)[k], np.asarray(getattr(alone[k], name))
            assert (value.dtype, value.tobytes()) == (single.dtype, single.tobytes())
