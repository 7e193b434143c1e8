import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oment import (
    MARGINAL_ABSCISSA_FACTOR,
    ConfigError,
    SteadyState,
    SweepSpec,
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
    gate_exact,
    RATE_RANGES,
    hurwitz_with_beta,
    rates,
    record_gufunc_calls,
    red_threshold_closed_form,
    routh_agrees_with_spectral,
    spectral_verdict,
    threshold_in_fractions,
)


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


# The corners of the rates' box (rad/s): omega_m/2pi in [0.1 Hz, 1 THz],
# gamma_m/2pi in [1e-9 Hz, 1 THz] and kappa/2pi in [0.1 Hz, 1e15 Hz].
_TWO_PI = 2.0 * math.pi
_LOWEST = dict(omega_m=_TWO_PI * 0.1, gamma_m=_TWO_PI * 1e-9, kappa=_TWO_PI * 0.1)
_HIGHEST = dict(omega_m=_TWO_PI * 1e12, gamma_m=_TWO_PI * 1e12, kappa=_TWO_PI * 1e15)


def assert_thresholds_exact(params):
    """Both coupling thresholds of `params` within 1e-15 of the exact ones."""
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    for threshold, delta in ((coupling_threshold_blue, -omega), (coupling_threshold_red, omega)):
        exact = threshold_in_fractions(omega, gamma, kappa, delta)
        assert threshold(params) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_routh_numbers_where_kappa_squared_overflows(params):
    # kappa^2 is inf, as numpy gives it for an array, not an OverflowError
    kappa = 2.0 * math.pi * 1e160
    omega, gamma = params.omega_m, params.gamma_m
    assert routh_conditions(omega, gamma, kappa, -omega, 1e9) == (math.inf, math.inf)
    # such a kappa is out of range; at the widest cavity in range nothing
    # overflows and both thresholds are exact
    message = r"^kappa must be in \[.*\], got 6\.283185307179587e\+160$"
    with pytest.raises(ConfigError, match=message):
        replace(params, kappa=kappa)
    assert_thresholds_exact(replace(params, kappa=_HIGHEST["kappa"]))


def test_red_threshold_where_omega_m_squared_underflows(params):
    # an omega_m whose square underflows (1e-170 Hz) is out of range; at the
    # slowest mirror in range omega_m^2 is a normal float and the threshold exact
    with pytest.raises(ConfigError, match=r"^omega_m must be in \[.*\], got 6\.283"):
        replace(params, omega_m=2.0 * math.pi * 1e-170)
    slowest = replace(params, omega_m=_LOWEST["omega_m"])
    assert coupling_threshold_red(slowest) == pytest.approx(
        threshold_in_fractions(slowest.omega_m, params.gamma_m, params.kappa, slowest.omega_m),
        rel=1e-15,
    )


def test_blue_threshold_where_scaled_omega_m_would_underflow(params):
    # omega_m 1e-330 times kappa lies outside the box; its extreme ratio in
    # range, the slowest mirror in the widest cavity, gives exact thresholds
    with pytest.raises(ConfigError, match="^omega_m must be in "):
        replace(params, omega_m=2.0 * math.pi * 1e-170, kappa=2.0 * math.pi * 1e160)
    assert_thresholds_exact(
        replace(params, omega_m=_LOWEST["omega_m"], kappa=_HIGHEST["kappa"])
    )


@pytest.mark.parametrize(
    "omega_hz, gamma_hz, kappa_hz",
    [(1e-100, 1e-100, 1e-100), (1e-200, 1e-200, 1e-200), (1e-170, 1e-65, 1e-50)],
    ids=["s1-and-denominator-underflow", "s1-and-s2-underflow", "s1-subnormal"],
)
def test_thresholds_at_tiny_rates(params, omega_hz, gamma_hz, kappa_hz):
    # rates whose s1 (~rate^6) underflows are out of range: omega_m is named first
    omega, gamma, kappa = (2.0 * math.pi * hz for hz in (omega_hz, gamma_hz, kappa_hz))
    with pytest.raises(ConfigError, match="^omega_m must be in "):
        replace(params, omega_m=omega, gamma_m=gamma, kappa=kappa)
    # the smallest rates in range keep s1 and omega_m^2 (gamma_m+kappa)^2
    # normal floats, and both thresholds exact
    assert_thresholds_exact(replace(params, **_LOWEST))


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


def test_routh_and_spectral_agree_on_random_points(params):
    rng = np.random.default_rng(2024)
    verdicts = [
        routh_agrees_with_spectral(*(rng.uniform(low, high) for low, high in RATE_RANGES))
        for _ in range(300)
    ]
    assert False not in verdicts
    assert verdicts.count(True) > 250


@given(*(st.floats(low, high) for low, high in RATE_RANGES))
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


def hurwitz_agrees_with_spectral(log_omega, log_gamma, log_kappa, delta_norm, log_g, beta):
    """The beta-aware Hurwitz verdict against the spectral one, or None near the
    boundary: a point with a Hurwitz determinant within 1e-6 of its scale, or
    with a computed abscissa within MARGINAL_ABSCISSA_FACTOR * kappa of 0.

    The point is given as :func:`references.rates` takes it.  The second
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
    assert gate_exact(params, steady) == 2


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


@given(*(st.floats(low, high) for low, high in RATE_RANGES), st.floats(0.0, 1.0, exclude_max=True))
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
    # the sweep's routh_stable column is the signs of its s1 and s2, the
    # numbers of routh_conditions at the point's steady state
    p10 = replace(params, power=10e-3)
    state = steady_states(-0.2 * p10.omega_m, p10.power, p10.beta, p10)
    s1, s2 = routh_conditions(p10.omega_m, p10.gamma_m, p10.kappa, state.delta_eff, state.g_eff)
    row = run_sweep(SweepSpec(axis="delta_norm", start=-0.2, stop=0.0, count=2, fixed=p10))
    assert (row.s1[0], row.s2[0]) == (s1, s2)
    assert row.routh_stable[0] == (s1 > 0 and s2 > 0)
    assert row.routh_stable.tolist() == ((row.s1 > 0) & (row.s2 > 0)).tolist()


def gate_stack(params, delta_norms):
    """The steady states at 10 mW and beta = 0.2, one per detuning, and their
    stability_stack."""
    # as evaluate_point takes it: 1e308 * omega_m is inf, with no numpy warning
    delta = np.array([delta_norm * params.omega_m for delta_norm in np.ravel(delta_norms).tolist()])
    steady = steady_states(delta.reshape(np.shape(delta_norms)), 10e-3, 0.2, params)
    return steady, stability_stack(steady, params)


def routh_record(params, steady):
    """s1, s2 and routh_stable at `steady`, as the sweep's columns take them."""
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    s1, s2 = routh_conditions(omega, gamma, kappa, steady.delta_eff, steady.g_eff)
    return dict(s1=s1, s2=s2, routh_stable=(s1 > 0) & (s2 > 0))


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
    # a detuning beyond the float range (delta_norm = 1e308, times omega_m)
    # puts inf entries in that drift matrix and makes that quartic not
    # finite: undecided, alone in the stack
    delta_norms = [-0.5, 1e308, -0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steady_stack, report = gate_stack(params, delta_norms)
        alone = [gate_stack(params, delta_norm) for delta_norm in delta_norms]
        routh = routh_record(params, steady_stack)
        routh_alone = [routh_record(params, steady) for steady, _ in alone]
    steady = steady_states(1e308 * params.omega_m, 10e-3, 0.2, params)
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    assert not np.isfinite(drift_matrix(omega, gamma, kappa, steady.delta_eff, steady.g_eff)).all()
    assert report.undecided.tolist() == [False, True, False]
    assert report.spectral_stable.tolist()[1] is False and report.marginal.tolist()[1] is False
    for k in (0, 2):
        for name in ("spectral_stable", "marginal", "undecided"):
            value, single = getattr(report, name)[k], np.asarray(getattr(alone[k][1], name))
            assert (value.dtype, value.tobytes()) == (single.dtype, single.tobytes())
        for name in ("s1", "s2", "routh_stable"):
            value, single = routh[name][k], np.asarray(routh_alone[k][name])
            assert (value.dtype, value.tobytes()) == (single.dtype, single.tobytes())
