import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oment import (
    ConfigError,
    DegenerateRootsWarning,
    default_params,
    drive_amplitude,
    from_bare_detuning,
    nonlinearity_from_betaprime,
    steady_states,
    steadystate,
)
from oment._elementwise import square
from references import (
    bare_states_array_path,
    cubic_roots_array_polish,
    newton_step_array,
    real_roots_array_filter,
    real_roots_array_path,
)


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


def assert_bare_states_are_the_array_path(delta_bare, params):
    """from_bare_detuning's states are the roots of the array path, as Python
    floats of the same bits, in the same order, for `delta_bare` as a float and
    as a numpy scalar (whose arithmetic stays numpy's); returns how many there are."""
    expected = [
        (n_s.hex(), float(delta_eff).hex())
        for n_s, delta_eff in bare_states_array_path(delta_bare, params)
    ]
    for detuning in (delta_bare, np.float64(delta_bare)):
        with warnings.catch_warnings():  # a sample near the fold warns; only the bits count
            warnings.simplefilter("ignore", DegenerateRootsWarning)
            states = from_bare_detuning(detuning, params)
        assert all(type(s.n_s) is float and type(s.delta_eff) is float for s in states)
        assert [(s.n_s.hex(), s.delta_eff.hex()) for s in states] == expected
    return len(states)


# the bistable benchmark's ranges: 0.7-30 mW, beta 0-0.6, bare delta/omega_m -2.5..0.5
@given(
    power=st.floats(0.7e-3, 30e-3), beta=st.floats(0.0, 0.6), bare_norm=st.floats(-2.5, 0.5)
)
@example(power=10e-3, beta=0.0, bare_norm=0.0)  # one root
@example(power=10e-3, beta=0.6, bare_norm=-1.0)  # three roots
def test_bare_states_are_python_floats_of_the_array_path(power, beta, bare_norm):
    params = replace(default_params(), power=power, beta=beta)
    assert_bare_states_are_the_array_path(bare_norm * params.omega_m, params)


def test_bare_states_near_the_fold_are_python_floats_of_the_array_path(params):
    # bisect the bare detuning at 10 mW to the fold where two branches merge
    p10 = replace(params, power=10e-3)
    lo, hi = -0.63 * p10.omega_m, -0.59 * p10.omega_m  # three roots vs one root
    counts = set()
    for _ in range(60):
        mid = lo / 2.0 + hi / 2.0
        count = assert_bare_states_are_the_array_path(mid, p10)
        counts.add(count)
        if count == 3:
            lo = mid
        else:
            hi = mid
    assert counts == {1, 3}
    with pytest.warns(DegenerateRootsWarning):  # lo is within rounding of the fold
        from_bare_detuning(lo, p10)


@pytest.mark.parametrize("g_m", [1e-150, 1e-73], ids=["shift-squared-underflows", "monic-overflows"])
def test_linear_balance_state_is_python_floats_of_the_array_path(params, g_m):
    weak = replace(params, g_m=g_m)
    assert assert_bare_states_are_the_array_path(-params.omega_m, weak) == 1


def test_steady_states_rejects_negative_power(params):
    with pytest.raises(ValueError, match=r"power must be in \[0\.0, 1000\.0\]"):
        steady_states(-params.omega_m, -1e-3, 0.0, params)
    with pytest.raises(ValueError, match=r"power must be in \[0\.0, 1000\.0\]"):
        steady_states(-params.omega_m, np.array([1e-3, -1e-3]), 0.0, params)


def test_steady_states_does_not_warn_at_an_overflowing_drive(params):
    # a drive that overflows E0 (1e300 W) is out of range, at the boundary
    # and at the stage
    with pytest.raises(ConfigError, match=r"^power must be in \[0\.0, 1000\.0\], got 1e\+300$"):
        replace(params, g_m=0.0, power=1e300)
    with pytest.raises(ConfigError, match="^power must be in "):
        steady_states(-params.omega_m, 1e300, 0.0, params)
    # the strongest drive in range (1 kW, the widest cavity, the longest
    # wavelength) is finite; a detuning beyond the float range gives no photons
    strongest = replace(
        params, g_m=0.0, power=1e3, kappa=2.0 * math.pi * 1e15, laser_wavelength=10.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = steady_states(np.array([-params.omega_m, math.inf]), 1e3, 0.0, strongest)
    assert np.isfinite(state.n_s).all() and state.n_s[1] == 0.0
    assert (state.g_eff == 0.0).all() and math.isinf(state.delta_bare[1])


@pytest.mark.parametrize("delta_bare", [1e200, -1e200, -1e154])
def test_bare_detuning_overflow_raises_arithmetic_error(params, delta_bare):
    # the square overflows beyond 1.34e154 rad/s, and the linear balance's
    # zero-photon root has a NaN residual; just below it the cubic's roots
    # miss their residual tolerance
    with pytest.raises(ArithmeticError, match="^cubic root residual") as raised:
        from_bare_detuning(delta_bare, params)
    assert type(raised.value) is ArithmeticError


@pytest.mark.parametrize("g_m", [1e-150, 1e-73], ids=["shift-squared-underflows", "monic-overflows"])
def test_bare_detuning_too_weakly_coupled_for_a_monic_cubic_is_linear(params, g_m):
    # the squared shift per photon underflows to 0, or the monic coefficients
    # overflow: the root is the linear balance n = E0^2/(delta^2 + kappa^2/4)
    weak = replace(params, g_m=g_m)
    (state,) = from_bare_detuning(-params.omega_m, weak)
    assert state.n_s == steady_states(-params.omega_m, params.power, 0.0, weak).n_s


def test_bare_detuning_with_an_overflowing_coupling_fails_its_residual(params):
    # a coupling whose square overflows (g_m = 1e200 rad/s) is out of range
    with pytest.raises(ConfigError, match=r"^g_m must be in \[0\.0, .*\], got 1e\+200$"):
        replace(params, g_m=1e200)
    # a zero-photon root with a NaN residual, which no tolerance passes, is
    # still reached by a bare detuning whose square overflows
    message = "^cubic root residual nan exceeds tolerance at n_s=0.0$"
    with pytest.raises(ArithmeticError, match=message) as raised:
        from_bare_detuning(1e200, params)
    assert type(raised.value) is ArithmeticError


@pytest.mark.parametrize("x", [1e200, -1e200, 1.35e154])
def test_square_beyond_the_float_range_is_inf(x):
    # a float's ** raises OverflowError there; numpy gives inf for an array
    assert square(x) == math.inf
    with np.errstate(over="ignore"):
        assert square(np.array([x]))[0] == math.inf


@pytest.mark.parametrize("delta_bare", [math.nan, math.inf, -math.inf])
def test_bare_detuning_not_finite_is_a_config_error(params, delta_bare):
    with pytest.raises(ConfigError, match="delta_bare must be finite"):
        from_bare_detuning(delta_bare, params)


def test_cubic_root_with_a_subnormal_derivative_stays_unpolished():
    # x^3 + 1e-322 x: roots 0 and +-i sqrt(1e-322).  At the complex pair the
    # derivative is subnormal and the Newton step overflows, so it is not
    # taken; the pair lies within the filter's tolerance of the real axis.
    with np.errstate(all="ignore"):  # from_bare_detuning's error state
        roots = steadystate._cubic_roots(-0.0, 1e-322, -0.0)
    assert roots == [0.0, 0.0, 0.0]


def test_monic_cubic_roots_recovers_chosen_roots():
    rng = np.random.default_rng(42)
    for _ in range(200):
        chosen = np.sort(rng.uniform(-10, 10, size=3))
        a2 = -chosen.sum()
        a1 = chosen[0] * chosen[1] + chosen[0] * chosen[2] + chosen[1] * chosen[2]
        a0 = -chosen.prod()
        recovered = np.sort(steadystate._cubic_roots(a2, a1, a0))
        scale = np.max(np.abs(chosen)) + 1.0
        assert np.allclose(recovered, chosen, atol=1e-7 * scale)


def _coefficients(roots):
    """a2, a1, a0 of the monic cubic with these three roots."""
    r0, r1, r2 = roots
    return -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2


@st.composite
def _near_degenerate_roots(draw):
    """A root and two more within a few thousand ulps of it."""
    root = draw(st.floats(-1e50, 1e50))
    offsets = draw(st.lists(st.integers(-3000, 3000), min_size=2, max_size=2))
    return [root, *(root + k * math.ulp(root) for k in offsets)]


_COEFFICIENT = st.floats(-1e100, 1e100)


# at a triple root 0, or a double one, the slope is 0 and the step NaN: the root stays
@example(coefficients=(0.0, 0.0, 0.0))
@example(coefficients=(-3.0, 0.0, 0.0))
@example(coefficients=(-6.0, 11.0, -6.0))
@given(
    coefficients=st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT)
    | st.lists(st.floats(-1e50, 1e50), min_size=3, max_size=3).map(_coefficients)
    | _near_degenerate_roots().map(_coefficients)
)
def test_the_float_polish_gives_the_bits_of_the_array_polish(coefficients):
    # all-real roots are polished on Python floats, complex ones on arrays
    with np.errstate(all="ignore"):
        roots = steadystate._cubic_roots(*coefficients)
    expected = real_roots_array_path(*coefficients)
    assert all(type(x) is float for x in roots)
    assert [x.hex() for x in roots] == [x.hex() for x in expected.tolist()]


@st.composite
def _cubics_with_a_complex_pair(draw):
    """a2, a1, a0 of (x - r)(x - z)(x - conj z), z = u + iv, with v from 1e-12
    to 10 times |u| + 1: some pairs lie within the filter's tolerance of the
    real axis, most do not."""
    r, u = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    v = (abs(u) + 1.0) * 10.0 ** draw(st.floats(-12.0, 1.0))
    modulus = u * u + v * v
    return -(r + 2.0 * u), 2.0 * r * u + modulus, -r * modulus


@example(coefficients=(-2.0, 1.0, -2.0))  # (x - 2)(x^2 + 1)
@given(coefficients=_cubics_with_a_complex_pair())
def test_the_float_filter_keeps_the_roots_of_the_array_filter(coefficients):
    roots = cubic_roots_array_polish(*coefficients)
    assume(roots.dtype.kind == "c")  # eigvals found the pair
    kept = steadystate._real_roots(roots)
    assert all(type(x) is float for x in kept)
    assert [x.hex() for x in kept] == [x.hex() for x in real_roots_array_filter(roots).tolist()]


@st.composite
def _clustered_roots(draw):
    """a2, a1, a0 of (x - a)(x - z)(x - conj z), z = a (1 + u) + i a v, with u
    and v from 1e-8 to 0.1: three roots that eigvals may scatter, and a pair
    that the polish may move far."""
    a = draw(st.floats(1e-3, 1e6))
    u = draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-8.0, -1.0))
    v = 10.0 ** draw(st.floats(-8.0, -1.0))
    c, modulus = a * (1.0 + u), a * a * ((1.0 + u) ** 2 + v * v)
    return -(a + 2.0 * c), 2.0 * a * c + modulus, -a * modulus


# (x - 1)(x - z)(x - conj z), z = 1000 + iy: y 500 and 150 times the filter's
# tolerance; near-double roots whose pair reads 1.41 and 1.05 times the
# tolerance off the real axis, and three clustered roots whose pair reads 214
# times, each brought within it by the polish
_CLEAR = [(-2.0, 1.0, -2.0), (-2001.0, 1002000.0001002001, -1000000.0001002001)]
_NOT_CLEAR = [
    (-2001.0, 1002000.000009018, -1000000.000009018),
    (-151.42580753861355, 5991.1595123567695, -19361.846924883746),
    (-129633.62520755606, 4298235002.782782, -6251522356298.539),
    (-17239.76257244438, 99069804.51838331, -189771100889.52255),
]


@pytest.mark.parametrize("coefficients, clear", [
    *((c, True) for c in _CLEAR), *((c, False) for c in _NOT_CLEAR)
])
def test_only_a_clear_pair_is_dropped_before_the_polish(monkeypatch, coefficients, clear):
    filtered = []  # the polished arrays that reach the filter
    real_roots = steadystate._real_roots
    monkeypatch.setattr(steadystate, "_real_roots", lambda r: filtered.append(r) or real_roots(r))
    with np.errstate(all="ignore"):
        kept = steadystate._cubic_roots(*coefficients)
    assert not filtered if clear else len(filtered) == 1
    assert len(kept) == (1 if clear or coefficients == _NOT_CLEAR[0] else 3)
    assert [x.hex() for x in kept] == [x.hex() for x in real_roots_array_path(*coefficients)]


@example(coefficients=_CLEAR[0])
@example(coefficients=_NOT_CLEAR[1])
@example(coefficients=_NOT_CLEAR[3])
@given(coefficients=_cubics_with_a_complex_pair() | _clustered_roots())
def test_the_real_roots_kept_have_the_bits_of_the_array_path(coefficients):
    # from_bare_detuning keeps the non-negative ones: a pair clear of the real
    # axis is dropped unpolished, every other root polished on arrays as before
    with np.errstate(all="ignore"):
        kept = steadystate._cubic_roots(*coefficients)
    assert all(type(x) is float for x in kept)
    assert [x.hex() for x in kept] == [x.hex() for x in real_roots_array_path(*coefficients)]


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@example(x=2.71, a2=2.1, a1=0.0, a0=0.5, pair=True)  # where poly / slope is 1 ulp off
@given(x=_ANY_FLOAT, a2=_ANY_FLOAT, a1=_ANY_FLOAT, a0=_ANY_FLOAT, pair=st.booleans())
def test_the_float_polish_of_a_root_has_the_bits_of_the_array_polish(x, a2, a1, a0, pair):
    # numpy's complex division multiplies by the divisor's reciprocal, and a
    # product with a zero imaginary part is the real product; the signs of
    # zeros can differ only at a root -0.0, which eigvals does not return
    assume(not (pair and x == 0.0 and math.copysign(1.0, x) < 0.0))
    root = np.array([complex(x, 0.0) if pair else x])
    expected = newton_step_array(root, a2, a1, a0)[0].real
    assert steadystate._polished(x, a2, a1, a0, pair).hex() == float(expected).hex()


def test_monic_cubic_roots_complex_pair():
    # (x - 2) * (x^2 + 1): one real root, conjugate pair
    roots = steadystate._cubic_roots(-2.0, 1.0, -2.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=ArithmeticError,
    reason="beyond about -1e8 kappa the cubic's complex pair lies within the real-root "
    "filter's 1e-8 of the real axis: it is kept as two real roots and fails the residual check",
)
def test_far_red_bare_detuning_has_one_state(params):
    # the pair sits near -delta_bare/shift +- i kappa/(2 shift); at -1e6 and
    # -1e7 kappa it is dropped and the one small root comes back, at -1e8
    # kappa it is not, at power 0 (whose only root is n = 0) as well
    for power in (0.0, 1e-9, 1e-3):
        for factor in (-1e6, -1e7, -1e8):
            (state,) = from_bare_detuning(factor * params.kappa, replace(params, power=power))
            assert state.n_s < 1e-5
            assert state.delta_eff == pytest.approx(factor * params.kappa, rel=1e-12)


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
