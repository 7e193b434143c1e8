import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oment import (
    ConfigError,
    PhysicalParams,
    check_range,
    default_params,
    diffusion_matrix,
    drive_amplitude,
    evaluate_point,
    from_bare_detuning,
    load_config,
    steady_states,
    thermal_occupation,
)
from oment import gaussian
from oment import params as params_module
from oment.constants import HBAR, K_B
from references import inverse_thermal_occupation


@pytest.fixture
def params():
    return default_params()


def test_default_table_values(params):
    two_pi = 2.0 * math.pi
    assert params.omega_m == pytest.approx(two_pi * 3.6e9, rel=1e-14)
    assert params.gamma_m == pytest.approx(two_pi * 35e3, rel=1e-14)
    assert params.g_m == pytest.approx(two_pi * 910e3, rel=1e-14)
    assert params.kappa == pytest.approx(two_pi * 529e6, rel=1e-14)
    assert params.power == 0.7e-3
    assert params.temperature == 0.270
    assert params.laser_wavelength == 1.55e-6
    assert params.beta == 0.0
    assert gaussian.ETA_FACTOR == 2.0


def test_quality_factor_computed_from_fields(params):
    q_factor = params.omega_m / params.gamma_m
    assert q_factor == pytest.approx(3.6e9 / 35e3, rel=1e-14)
    assert q_factor == pytest.approx(1.0286e5, rel=1e-4)


def test_omega_laser(params):
    assert params.omega_laser == pytest.approx(2 * math.pi * 299792458.0 / 1.55e-6, rel=1e-14)


@pytest.mark.parametrize(
    "field,value",
    [
        ("omega_m", 0.0),
        ("omega_m", -1.0),
        ("gamma_m", 0.0),
        ("kappa", -2.0),
        ("power", -1e-3),
        ("temperature", -0.1),
        ("laser_wavelength", 0.0),
        ("beta", 1.0),
        ("beta", 1.5),
    ],
)
def test_validation_rejects_bad_fields(params, field, value):
    kwargs = {
        "omega_m": params.omega_m,
        "gamma_m": params.gamma_m,
        "g_m": params.g_m,
        "kappa": params.kappa,
        "power": params.power,
        "laser_wavelength": params.laser_wavelength,
        "temperature": params.temperature,
        "beta": params.beta,
    }
    kwargs[field] = value
    with pytest.raises(ValueError):
        PhysicalParams(**kwargs)


def test_thermal_occupation_zero_temperature(params):
    assert thermal_occupation(0.0, params.omega_m) == 0.0


def test_thermal_occupation_at_defaults(params):
    n = thermal_occupation(0.270, params.omega_m)
    # independent evaluation of the Bose factor
    expected = 1.0 / (math.exp(HBAR * params.omega_m / (K_B * 0.270)) - 1.0)
    assert n == pytest.approx(expected, rel=1e-12)
    assert n == pytest.approx(1.1157109535263916, rel=1e-12)


def test_thermal_occupation_98k(params):
    assert thermal_occupation(98.0, params.omega_m) == pytest.approx(566.719223398171, rel=1e-10)


def test_thermal_occupation_monotones(params):
    temps = [0.05, 0.1, 0.27, 1.0, 10.0, 98.0]
    values = [thermal_occupation(t, params.omega_m) for t in temps]
    assert all(b > a for a, b in zip(values, values[1:]))
    omegas = [0.5e10, 1e10, 2e10, 4e10]
    values = [thermal_occupation(0.27, om) for om in omegas]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("field", ["temperature", "omega_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_thermal_occupation_rejects_non_finite_input(params, field, value):
    arguments = {"temperature": 300.0, "omega_m": params.omega_m, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value!r}$"):
        thermal_occupation(**arguments)


def test_a_bath_too_cold_for_a_float_has_no_thermal_phonons(params):
    # hbar*omega_m/(k_B*T) beyond ~709.78 overflows exp; below ~3.6e-301 K, k_B*T is 0
    for temperature in (1e-4, 1e-300, 1e-310, 5e-324):
        assert thermal_occupation(temperature, params.omega_m) == 0.0


def test_thermal_occupation_where_k_b_t_underflows():
    # the ratio is taken in another order, which a tiny omega_m as well keeps finite
    n = thermal_occupation(1e-310, 1e-320)
    assert n == pytest.approx(K_B / HBAR * (1e-310 / 1e-320) - 0.5, rel=1e-12)


@pytest.mark.parametrize(
    "temperature, omega_m",
    [(300.0, 1e-300), (300.0, 1e-320), (300.0, 5e-324), (1e20, 1e-280)],
    ids=["1e-300", "1e-320", "5e-324", "1e20-1e-280"],
)
def test_an_occupation_beyond_the_float_range_is_a_config_error(temperature, omega_m):
    # hbar*omega_m/(k_B*T) underflows to 0, or to a subnormal whose reciprocal
    # overflows, so n_th = 1/expm1(ratio) has no float value
    message = f"thermal occupation overflows at temperature={temperature!r}, omega_m={omega_m!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        thermal_occupation(temperature, omega_m)


def test_thermal_occupation_classical_limit(params):
    # k_B T >> hbar*omega: agrees with kT/(hbar*omega) - 1/2 to < 1% once n > 50
    for t in (5.0, 50.0, 400.0):
        n = thermal_occupation(t, params.omega_m)
        if n > 50:
            classical = K_B * t / (HBAR * params.omega_m) - 0.5
            assert abs(n - classical) / n < 0.01


def test_inverse_thermal_occupation_round_trip(params):
    for n in (0.1, 1.0, 600.0, 2500.0):
        t = inverse_thermal_occupation(n, params.omega_m)
        assert thermal_occupation(t, params.omega_m) == pytest.approx(n, rel=1e-10)


def test_inverse_thermal_occupation_values(params):
    assert inverse_thermal_occupation(1.1157109535263916, params.omega_m) == pytest.approx(
        0.270, rel=1e-10
    )
    assert inverse_thermal_occupation(2500.0, params.omega_m) == pytest.approx(
        432.0182569556344, rel=1e-10
    )


def test_inverse_thermal_occupation_rejects_nonpositive(params):
    with pytest.raises(ValueError):
        inverse_thermal_occupation(0.0, params.omega_m)
    with pytest.raises(ValueError):
        inverse_thermal_occupation(-5.0, params.omega_m)


def test_drive_amplitude_undriven(params):
    assert drive_amplitude(0.0, params.kappa, params.omega_laser) == 0.0


def test_drive_amplitude_value(params):
    e0 = drive_amplitude(10e-3, params.kappa, params.omega_laser)
    assert e0 == pytest.approx(1.138754891274142e13, rel=1e-12)


def test_drive_amplitude_sqrt_scaling(params):
    for p0 in (1e-6, 0.7e-3, 10e-3):
        assert drive_amplitude(4 * p0, params.kappa, params.omega_laser) == pytest.approx(
            2 * drive_amplitude(p0, params.kappa, params.omega_laser), rel=1e-14
        )


def test_drive_amplitude_rejects_negative_power(params):
    with pytest.raises(ValueError, match="power must be >= 0"):
        drive_amplitude(-1e-3, params.kappa, params.omega_laser)
    with pytest.raises(ValueError, match="power must be >= 0"):
        drive_amplitude(np.array([1e-3, -1e-3]), params.kappa, params.omega_laser)


def test_drive_amplitude_where_two_hbar_omega_laser_underflows(params):
    # a wavelength of 1e300 m: 2*hbar*omega_laser underflows to 0, so the
    # quotient is taken in another order, for a scalar and an array power alike
    omega_laser = replace(params, laser_wavelength=1e300).omega_laser
    assert 2.0 * HBAR * omega_laser == 0.0
    e0 = drive_amplitude(1e-50, params.kappa, omega_laser)
    log_e0 = 0.5 * (math.log(1e-50 * params.kappa) - math.log(2.0 * HBAR) - math.log(omega_laser))
    assert e0 == pytest.approx(math.exp(log_e0), rel=1e-12)
    assert drive_amplitude(np.array([1e-50]), params.kappa, omega_laser)[0] == e0


def test_drive_amplitude_closed_form_identity(params):
    # 2 * E0^2 * hbar * omega_l = P0 * kappa under the implemented convention
    for p0 in (1e-5, 0.7e-3, 10e-3):
        e0 = drive_amplitude(p0, params.kappa, params.omega_laser)
        assert 2.0 * e0**2 * HBAR * params.omega_laser == pytest.approx(
            p0 * params.kappa, rel=1e-13
        )


def test_load_config_round_trip(tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text(
        "# comment line\n"
        "omega_m_hz = 3.6e9\n"
        "gamma_m_hz = 35e3\n"
        "g0_hz = 910e3\n"
        "kappa_hz = 529e6\n"
        "power_w = 10e-3\n"
        "wavelength_m = 1.55e-6\n"
        "temperature_k = 0.270\n"
        "beta = 0.2\n"
    )
    params = load_config(config)
    assert params.omega_m == pytest.approx(2 * math.pi * 3.6e9, rel=1e-14)
    assert params.kappa == pytest.approx(2 * math.pi * 529e6, rel=1e-14)
    assert params.power == 10e-3
    assert params.beta == 0.2


def test_half_kappa_hz_gives_kappa_pi_times_the_value(tmp_path):
    # kappa = 2*pi*kappa_hz always; halving kappa_hz gives pi times the value, bit for bit
    config = tmp_path / "params.cfg"
    for value in (529e6, 1.0, 3.0e-7, 123456.789e3):
        config.write_text(f"kappa_hz = {value / 2!r}\n")
        assert load_config(config).kappa == math.pi * value


def test_load_config_rejects_a_repeated_key(tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text("beta = 0.1\n# a comment\nbeta = 0.2\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(config))}:3: duplicate key 'beta'$"):
        load_config(config)


def test_load_config_partial_keeps_defaults(tmp_path):
    config = tmp_path / "params.cfg"
    config.write_text("power_w = 2e-3\n")
    params = load_config(config)
    defaults = default_params()
    assert params.power == 2e-3
    assert params.omega_m == defaults.omega_m
    assert params.temperature == defaults.temperature


# A value outside its field's range is named by file, line and key, as written.
_RANGE_ERRORS = {
    "beta = 1.5\n": "params.cfg:1: beta must be < 1, got 1.5$",
    "beta = 1.0\n": "params.cfg:1: beta must be < 1, got 1.0$",
    "power_w = -1e-3\n": "params.cfg:1: power_w must be >= 0, got -0.001$",
    "kappa_hz = -5\n": "params.cfg:1: kappa_hz must be > 0, got -5.0$",
    "kappa_hz = inf\n": "params.cfg:1: kappa_hz must be finite, got inf$",
}


@pytest.mark.parametrize(
    "content",
    [
        "unknown_key = 1\n",
        "omega_m_hz\n",
        "omega_m_hz = not_a_number\n",
        "kappa_convention = half_pi\nkappa_hz = 529e6\n",
        "beta = 1.5\n",
        "beta = 1.0\n",
        "power_w = -1e-3\n",
        "eta_factor = 2\n",
        "beta = x\n",
        "kappa_hz = -5\n",
        "kappa_hz = inf\n",
    ],
)
def test_load_config_rejects_bad_input(tmp_path, content):
    config = tmp_path / "params.cfg"
    config.write_text(content)
    with pytest.raises(ConfigError, match=_RANGE_ERRORS.get(content)):
        load_config(config)


@pytest.mark.parametrize("key, field", [("kappa_hz", "kappa"), ("omega_m_hz", "omega_m")])
def test_load_config_rejects_a_value_whose_conversion_overflows(tmp_path, key, field):
    # 1e308 Hz is a finite float, but 2*pi*1e308 rad/s is not
    config = tmp_path / "params.cfg"
    config.write_text(f"power_w = 1e-3\n{key} = 1e308\n")
    message = f"^{re.escape(str(config))}:2: {key} = 1e308 overflows {field} = "
    with pytest.raises(ConfigError, match=message):
        load_config(config)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("field", ["omega_m", "g_m", "power", "temperature", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite_fields(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        replace(default_params(), **{field: value})


# Each checked name: a value just inside its range and one just outside.
_EDGES = {
    **dict.fromkeys(
        ("omega_m", "gamma_m", "kappa", "laser_wavelength", "omega_laser", "n_hi"),
        (5e-324, 0.0),
    ),
    **dict.fromkeys(("g_m", "power", "temperature", "n_th"), (0.0, -5e-324)),
    "beta": (math.nextafter(1.0, 0.0), 1.0),
}


def test_every_range_rule_has_its_edges():
    assert set(_EDGES) == set(params_module._RANGES)
    with pytest.raises(KeyError):
        check_range(delta_norm=-1.0)  # a name without a rule is a programming error


@pytest.mark.parametrize("name", sorted(_EDGES))
def test_range_rule_edges(name):
    inside, outside = _EDGES[name]
    check_range(**{name: inside})
    check_range(**{name: np.full((2, 3), inside)})
    for bad in (outside, math.nan):
        with pytest.raises(ConfigError, match=f"^{name} must be [<>]=? [^,]+, got {bad!r}$"):
            check_range(**{name: bad})
        array = np.array([[inside, bad], [outside, math.nan]])  # the first offender is named
        with pytest.raises(ConfigError, match=f"^{name} must be [<>]=? [^,]+, got {bad!r}$"):
            check_range(**{name: array})


def test_a_nan_is_out_of_range_at_every_checked_stage(params):
    nan = math.nan
    calls = [
        lambda: drive_amplitude(nan, params.kappa, params.omega_laser),
        lambda: drive_amplitude(1e-3, nan, params.omega_laser),
        lambda: steady_states(-params.omega_m, nan, 0.0, params),
        lambda: steady_states(-params.omega_m, np.array([1e-3, nan]), 0.0, params),
        lambda: diffusion_matrix(params.gamma_m, params.kappa, nan),
        lambda: diffusion_matrix(params.gamma_m, params.kappa, np.array([0.0, nan])),
        lambda: thermal_occupation(nan, params.omega_m),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=re.escape("must be") + ".*, got nan$"):
            call()


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: evaluate_point(default_params(), 10**400), "delta_norm"),
        (lambda: from_bare_detuning(10**400, default_params()), "delta_bare"),
        (lambda: replace(default_params(), power=10**400), "power"),
    ],
    ids=["evaluate_point", "from_bare_detuning", "PhysicalParams"],
)
def test_an_int_beyond_the_float_range_is_a_config_error(call, field):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        call()
