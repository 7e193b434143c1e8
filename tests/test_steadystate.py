import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oment import (
    ConfigError,
    DegenerateRootsWarning,
    default_params,
    drive_amplitude,
    from_bare_detuning,
    monic_cubic_roots,
    nonlinearity_from_betaprime,
    steady_states,
)


@pytest.fixture
def params():
    return default_params()


def test_undriven_cavity(params):
    undriven = replace(params, power=0.0)
    state = steady_states(-undriven.omega_m, undriven.power, undriven.beta, undriven)
    assert state.n_s == 0.0
    assert state.alpha_s == 0.0
    assert state.x_s == 0.0
    assert state.g_eff == 0.0
    assert state.delta_bare == state.delta_eff


def test_operating_point_10mw_blue_sideband(params):
    p10 = replace(params, power=10e-3)
    state = steady_states(-p10.omega_m, p10.power, p10.beta, p10)
    assert state.n_s == pytest.approx(252091.198648292, rel=1e-12)
    assert state.alpha_s == pytest.approx(math.sqrt(252091.198648292), rel=1e-12)
    assert state.x_s == pytest.approx(127.44610598330317, rel=1e-12)
    assert state.g_eff == pytest.approx(2870781258.3105435, rel=1e-12)


def test_steady_state_internal_relations(params):
    p10 = replace(params, power=10e-3, beta=0.3)
    state = steady_states(-0.5 * p10.omega_m, p10.power, p10.beta, p10)
    assert state.x_s == 2.0 * (p10.g_m / p10.omega_m) * state.n_s
    assert state.g_eff == p10.g_m * state.alpha_s
    assert state.alpha_s == math.sqrt(state.n_s)
    shift = 2.0 * p10.g_m**2 / p10.omega_m
    assert state.delta_eff == pytest.approx(state.delta_bare + shift * state.n_s, rel=1e-14)
    assert state.beta == 0.3


def test_photon_number_monotone_in_power(params):
    powers = [0.1e-3, 0.7e-3, 2e-3, 10e-3, 50e-3]
    values = [
        steady_states(-params.omega_m, p, params.beta, params).n_s for p in powers
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bare_detuning_decoupled_limit(params):
    decoupled = replace(params, g_m=0.0, power=1e-3)
    e0 = drive_amplitude(decoupled.power, decoupled.kappa, decoupled.omega_laser)
    delta0 = -0.8 * decoupled.omega_m
    states = from_bare_detuning(delta0, decoupled)
    assert len(states) == 1
    expected = e0**2 / (delta0**2 + decoupled.kappa**2 / 4.0)
    assert states[0].n_s == pytest.approx(expected, rel=1e-12)
    assert states[0].delta_eff == delta0


def test_effective_bare_round_trip(params):
    p10 = replace(params, power=10e-3)
    for delta_norm in (-1.0, -0.5, -0.25):
        state = steady_states(delta_norm * p10.omega_m, p10.power, p10.beta, p10)
        branches = from_bare_detuning(state.delta_bare, p10)
        best = min(branches, key=lambda s: abs(s.n_s - state.n_s))
        assert best.n_s == pytest.approx(state.n_s, rel=1e-8)
        assert best.delta_eff == pytest.approx(state.delta_eff, rel=1e-8)


def test_bistable_window_three_roots(params):
    bistable = replace(params, power=5e-3)
    delta0 = -5.0 * bistable.kappa
    states = from_bare_detuning(delta0, bistable)
    assert len(states) == 3
    roots = [s.n_s for s in states]
    assert roots == sorted(roots)
    assert roots == pytest.approx(
        [254196.37362987053, 4581800.972516917, 6662613.932684274], rel=1e-9
    )
    # every root satisfies the cubic
    e0 = drive_amplitude(bistable.power, bistable.kappa, bistable.omega_laser)
    shift = 2.0 * bistable.g_m**2 / bistable.omega_m
    for n in roots:
        residual = abs(n * ((delta0 + shift * n) ** 2 + bistable.kappa**2 / 4) - e0**2)
        assert residual < 1e-9 * e0**2
    # outer branches have positive drive slope, the middle one negative
    def slope(n):
        d = delta0 + shift * n
        return d * d + bistable.kappa**2 / 4 + 2.0 * shift * n * d

    assert slope(roots[0]) > 0
    assert slope(roots[1]) < 0
    assert slope(roots[2]) > 0


def test_root_count_against_dense_sign_scan(params):
    bistable = replace(params, power=5e-3)
    delta0 = -5.0 * bistable.kappa
    e0 = drive_amplitude(bistable.power, bistable.kappa, bistable.omega_laser)
    shift = 2.0 * bistable.g_m**2 / bistable.omega_m

    def drive(n):
        return n * ((delta0 + shift * n) ** 2 + bistable.kappa**2 / 4) - e0**2

    grid = np.linspace(0.0, 2e7, 200001)
    signs = np.sign(drive(grid))
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert crossings == len(from_bare_detuning(delta0, bistable))


def test_degenerate_roots_warn_near_fold(params):
    # bisect the drive power to the fold where two branches merge
    delta0 = -5.0 * default_params().kappa
    lo, hi = 1e-3, 5e-3  # one root vs three roots
    for _ in range(60):
        mid = (lo + hi) / 2.0
        with warnings.catch_warnings():  # the bisection nears the fold; only the end is asserted
            warnings.simplefilter("ignore", DegenerateRootsWarning)
            states = from_bare_detuning(delta0, replace(params, power=mid))
        if len(states) == 3:
            hi = mid
            gaps = [
                (b.n_s - a.n_s) / max(b.n_s, 1.0) for a, b in zip(states, states[1:])
            ]
            if min(gaps) <= 1e-6:
                break
        else:
            lo = mid
    with pytest.warns(DegenerateRootsWarning) as caught:
        from_bare_detuning(delta0, replace(params, power=hi))
    assert {w.filename for w in caught} == {__file__}  # the caller's line


def test_steady_states_rejects_negative_power(params):
    with pytest.raises(ValueError, match="power must be >= 0"):
        steady_states(-params.omega_m, -1e-3, 0.0, params)
    with pytest.raises(ValueError, match="power must be >= 0"):
        steady_states(-params.omega_m, np.array([1e-3, -1e-3]), 0.0, params)


def test_steady_states_does_not_warn_at_an_overflowing_drive(params):
    # E0 overflows to inf and g_m = 0 makes 0 * inf: NaN, silently
    undriven = replace(params, g_m=0.0, power=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = steady_states(-params.omega_m, 1e300, 0.0, undriven)
    assert math.isinf(state.n_s) and math.isnan(state.g_eff)


@pytest.mark.parametrize("delta_bare", [1e200, -1e200, -1e154])
def test_bare_detuning_overflow_raises_arithmetic_error(params, delta_bare):
    # the square overflows beyond 1.34e154 rad/s; just below it the cubic's
    # roots miss their residual tolerance
    with pytest.raises(ArithmeticError, match="overflows|residual"):
        from_bare_detuning(delta_bare, params)


@pytest.mark.parametrize("delta_bare", [math.nan, math.inf, -math.inf])
def test_bare_detuning_not_finite_is_a_config_error(params, delta_bare):
    with pytest.raises(ConfigError, match="delta_bare must be finite"):
        from_bare_detuning(delta_bare, params)


def test_cubic_root_with_a_subnormal_derivative_stays_unpolished():
    # x^3 + 1e-322 x: roots 0 and +-i sqrt(1e-322).  At the complex pair the
    # derivative is subnormal and the Newton step overflows, so it is not taken.
    a1 = 1e-322
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = monic_cubic_roots(-0.0, a1, -0.0)
    assert np.isfinite(roots).all()
    expected = [-1j * math.sqrt(a1), 0.0, 1j * math.sqrt(a1)]
    np.testing.assert_allclose(np.sort_complex(roots), expected, rtol=1e-12, atol=0.0)


def test_monic_cubic_roots_recovers_chosen_roots():
    rng = np.random.default_rng(42)
    for _ in range(200):
        chosen = np.sort(rng.uniform(-10, 10, size=3))
        a2 = -chosen.sum()
        a1 = chosen[0] * chosen[1] + chosen[0] * chosen[2] + chosen[1] * chosen[2]
        a0 = -chosen.prod()
        recovered = np.sort(monic_cubic_roots(a2, a1, a0).real)
        scale = np.max(np.abs(chosen)) + 1.0
        assert np.allclose(recovered, chosen, atol=1e-7 * scale)


def test_monic_cubic_roots_complex_pair():
    # (x - 2) * (x^2 + 1): one real root, conjugate pair
    roots = monic_cubic_roots(-2.0, 1.0, -2.0)
    real = roots[np.abs(roots.imag) < 1e-10]
    assert len(real) == 1
    assert real[0].real == pytest.approx(2.0, rel=1e-12)


def test_nonlinearity_from_betaprime_linear_beam(params):
    assert nonlinearity_from_betaprime(0.0, 12.0, params.omega_m) == 0.0


def test_nonlinearity_from_betaprime_quadratic_scaling(params):
    base = nonlinearity_from_betaprime(1e14, 50.0, params.omega_m)
    doubled = nonlinearity_from_betaprime(1e14, 100.0, params.omega_m)
    assert doubled == pytest.approx(4.0 * base, rel=1e-14)


def test_nonlinearity_from_betaprime_matches_figure_value(params):
    # beta' chosen to give beta = 0.6 at the 10 mW blue-sideband displacement
    x_s = 127.44610598330317
    beta_prime = 6300015137411598.0
    assert nonlinearity_from_betaprime(beta_prime, x_s, params.omega_m) == pytest.approx(
        0.6, rel=1e-12
    )
