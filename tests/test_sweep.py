import hashlib
import json
import math
import random
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from importlib import import_module
from inspect import isfunction
from pathlib import Path
from pkgutil import iter_modules

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from oment import (
    FIGURE_NAMES,
    ConfigError,
    DegenerateRootsWarning,
    PhysicalParams,
    Sweep,
    SweepSpec,
    coupling_threshold_blue,
    coupling_threshold_red,
    default_params,
    emit,
    evaluate_point,
    figure_preset,
    from_bare_detuning,
    nth_entanglement_threshold,
    routh_conditions,
    run_sweep,
)
import oment
from oment import cli, gaussian, linmodel, lyapunov, sweep
from oment import params as params_module
from oment.lyapunov import IllConditionedWarning, solve_stack
from oment.steadystate import steady_states
from oment.sweep import AXES, CSV_HEADER
from references import (
    drift_and_diffusion,
    emit_cell_by_cell,
    eta_exact,
    gate_exact,
    grid_points,
    lyapunov_exact,
    nth_threshold_point_by_point,
    records_point_by_point,
    relative_error,
    report_of,
)


def small_spec(params, **overrides):
    fields = dict(
        axis="delta_norm",
        start=-1.2,
        stop=-0.8,
        count=5,
        fixed=replace(params, power=10e-3),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def test_evaluate_point_regression(params):
    point = evaluate_point(params, -1.0)
    assert point.status == "ok"
    assert point.report.log_negativity == pytest.approx(0.014957782856779069, rel=1e-9)
    assert point.report.eta == pytest.approx(0.49257676454639704, rel=1e-9)
    assert point.report.entangled


@pytest.mark.parametrize(
    "power, beta, delta_norm, n_th",
    [
        (0.7e-3, 0.0, -1.0, None),
        (10e-3, 0.0, -1.0, 0.0),
        (10e-3, 0.6, -0.5, 0.0),
        (30e-3, 0.6, -0.5, 5.0),
    ],
)
def test_report_raw_is_derived_from_report(params, power, beta, delta_norm, n_th, capsys):
    # `oment point` derives the raw-CM E_N from the report's eta; it prints the
    # value whenever it differs from E_N
    power_mw = power * 1e3
    flags = ["--power-mw", repr(power_mw), "--beta", repr(beta), "--delta-norm", repr(delta_norm)]
    assert cli.main(["point", *flags, *(["--nth", repr(n_th)] if n_th is not None else [])]) == 0
    values = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    point = evaluate_point(replace(params, power=power_mw * 1e-3, beta=beta), delta_norm, n_th)
    assert point.status == "ok"
    direct = report_of(point.covariance.v)
    raw = float(values.get("log_negativity_raw_cm", values["log_negativity"]))
    assert raw == direct.log_negativity
    # numpy's det is sign * exp(sum(log|u_ii|)), so scaling V by 2 is exact
    # only up to the last bits of that exp/log round trip
    assert 2.0 * point.report.eta == pytest.approx(direct.eta, rel=1e-14)


@pytest.mark.parametrize("delta_norm, n_th", [(math.nan, 0.0), (-1.0, math.inf), (-math.inf, None)])
def test_evaluate_point_rejects_non_finite(params, delta_norm, n_th):
    with pytest.raises(ConfigError, match="must be finite"):
        evaluate_point(params, delta_norm, n_th)


def test_evaluate_point_occupation_override(params):
    hot = evaluate_point(params, -1.0, n_th=50.0)
    cold = evaluate_point(params, -1.0, n_th=0.0)
    assert cold.report.log_negativity > hot.report.log_negativity >= 0.0
    with pytest.raises(ConfigError):
        evaluate_point(params, -1.0, n_th=-1.0)


def test_evaluate_point_unstable_status(params):
    point = evaluate_point(replace(params, power=10e-3), -0.2)
    assert point.status == "unstable"
    assert point.report is None
    assert point.covariance is None
    assert not point.stability.spectral_stable


def test_run_sweep_row_order_and_fields(params):
    spec = small_spec(params, curves=(0.0, 0.3), curve_param="beta")
    result = run_sweep(spec)
    assert all(len(getattr(result, column.name)) == 10 for column in fields(Sweep))
    grid = list(spec.grid())
    assert result.axis.tolist() == grid + grid
    assert result.curve[:5].tolist() == [0.0] * 5
    assert result.curve[5:].tolist() == [0.3] * 5
    assert (result.status == "ok").all()
    assert (result.n_s > 0).all()
    assert (result.g_eff > 0).all()
    assert (~np.isnan(result.log_negativity) == (result.status == "ok")).all()


def test_sweep_fields_are_the_output_columns(params):
    names = [column.name for column in fields(Sweep)]
    assert CSV_HEADER.split(",") == names
    result = run_sweep(small_spec(params, count=2))
    for line in emit(result, "jsonl").decode().splitlines():
        assert list(json.loads(line)) == names


def test_run_sweep_unstable_rows_carry_status(params):
    spec = SweepSpec(
        axis="delta_norm", start=-0.25, stop=-0.15, count=3,
        fixed=replace(params, power=10e-3),
    )
    result = run_sweep(spec)
    unstable = result.status == "unstable"
    assert unstable.any()
    assert np.isnan(result.eta[unstable]).all()
    assert np.isnan(result.log_negativity[unstable]).all()
    assert not result.spectral_stable[unstable].any()


def test_run_sweep_matches_point_by_point(params):
    # dense grids: a value squared as x*x instead of pow differs in ~0.1% of cases
    for overrides in (
        dict(start=-2.0, stop=0.0, count=201, curves=(0.0, 0.4), curve_param="beta"),
        dict(axis="power", start=0.5e-3, stop=30e-3, count=201, curves=(-1.1, -0.6, -0.3),
             curve_param="delta_norm"),
    ):
        spec = small_spec(params, **overrides)
        assert emit(run_sweep(spec)) == emit(records_point_by_point(spec))


def test_run_sweep_axis_beta_and_power(params):
    spec = SweepSpec(
        axis="beta", start=0.0, stop=0.4, count=3,
        fixed=replace(params, power=10e-3), delta_norm=-0.5,
    )
    result = run_sweep(spec)
    assert result.axis.tolist() == [0.0, 0.2, 0.4]
    assert (np.diff(result.log_negativity) > 0).all()

    spec_p = SweepSpec(
        axis="power", start=0.5e-3, stop=2e-3, count=3, fixed=params, delta_norm=-1.0,
    )
    assert (np.diff(run_sweep(spec_p).n_s) > 0).all()


def test_run_sweep_nth_axis(params):
    spec = SweepSpec(
        axis="n_th", start=0.0, stop=100.0, count=5,
        fixed=replace(params, power=10e-3), delta_norm=-1.0,
    )
    assert (np.diff(run_sweep(spec).log_negativity) < 0).all()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(axis="nope"),
        dict(count=1),
        dict(start=-0.5, stop=-0.5),
        dict(start=-0.5, stop=-0.8),
        dict(axis="beta", start=0.0, stop=1.2),
        dict(curves=(0.0, 0.2), curve_param="delta_norm"),
        dict(curves=(0.0, 1.3), curve_param="beta"),
        dict(curves=(0.0, 0.2), curve_param="beta", curve_delta_norms=(-1.0,)),
        dict(curves=(0.0, -1e-3), curve_param="power"),
        dict(curves=(0.0, -1.0), curve_param="n_th"),
        dict(n_th=-1.0),
        dict(stop=math.inf),
        dict(delta_norm=math.nan),
        dict(n_th=math.nan),
        dict(curves=(0.0, math.nan), curve_param="beta"),
        dict(curves=(0.0, 0.2), curve_param="beta", curve_delta_norms=(-1.0, math.inf)),
        dict(curves=(), curve_param="n_th"),
        dict(curves=(), curve_param="beta"),
        dict(count=2.5),
        dict(axis="power", start=-1e-3, stop=1e-3),
        dict(axis="n_th", start=-1.0, stop=10.0),
        dict(axis="beta", start=0.0, stop=1.0),
        dict(curves=(0.0, 1.0), curve_param="beta"),
        dict(axis="n_th", start=0.0, stop=10.0, curve_delta_norms=(1.0,)),
        dict(start=-1e308, stop=1e308, count=3),
    ],
)
def test_sweep_spec_validation(params, overrides):
    spec = small_spec(params, **overrides)
    with pytest.raises(ConfigError):
        run_sweep(spec)


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(curves=()), "curves"),
        (dict(count=2.5), "count"),
        (dict(start="0"), "start"),
        (dict(delta_norm=None), "delta_norm"),
        (dict(n_th="5"), "n_th"),
        (dict(curves=("x",)), "curves"),
        (dict(start=-1e308, stop=1e308, count=3), "stop - start"),
    ],
)
def test_sweep_spec_errors_name_the_field(params, overrides, field):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        small_spec(params, **overrides).validate()


def test_figure_presets(params):
    fig1a = figure_preset("fig1a")
    assert fig1a.axis == "delta_norm"
    assert (fig1a.start, fig1a.stop, fig1a.count) == (-2.0, 0.0, 201)
    assert fig1a.fixed.power == 0.7e-3
    assert fig1a.fixed.beta == 0.0

    fig2a = figure_preset("fig2a")
    assert fig2a.fixed.power == 10e-3
    assert fig2a.curves == (0.0, 0.2, 0.4, 0.6)

    fig2b = figure_preset("fig2b")
    assert fig2b.axis == "beta"
    assert (fig2b.start, fig2b.stop) == (0.0, 0.6)
    assert fig2b.delta_norm == -0.5
    assert fig2b.fixed.power == 10e-3

    fig3 = figure_preset("fig3")
    assert fig3.axis == "n_th"
    assert 0.6 in fig3.curves
    assert fig3.curve_delta_norms == (-1.0, -0.5, -0.5, -0.5)

    with pytest.raises(ConfigError):
        figure_preset("fig9")


def test_emit_csv_schema(params):
    empty = Sweep(*(np.empty(0) for _ in fields(Sweep)))
    assert emit(empty, "csv") == (CSV_HEADER + "\n").encode()
    assert emit(empty, "jsonl") == b""
    spec = SweepSpec(
        axis="delta_norm", start=-0.2, stop=-0.15, count=2,
        fixed=replace(params, power=10e-3),
    )
    result = run_sweep(spec)
    data = emit(result, "csv").decode()
    lines = data.strip().split("\n")
    assert lines[0] == "axis,curve,n_s,g_eff,s1,s2,routh_stable,spectral_stable,eta,log_negativity,status"
    first = lines[1].split(",")
    assert first[-1] == "unstable"
    assert first[8] == "" and first[9] == ""  # eta, log_negativity empty
    assert float(first[0]) == result.axis[0]  # 17-digit round trip
    assert float(first[2]) == result.n_s[0]


def test_emit_csv_float_round_trip(params):
    result = run_sweep(small_spec(params))
    lines = emit(result, "csv").decode().strip().split("\n")[1:]
    assert len(lines) == 5
    for index, line in enumerate(lines):
        cells = line.split(",")
        assert float(cells[0]) == result.axis[index]
        assert float(cells[3]) == result.g_eff[index]
        assert float(cells[9]) == result.log_negativity[index]


def test_emit_jsonl(params):
    result = run_sweep(small_spec(params, count=3))
    payloads = [json.loads(line) for line in emit(result, "jsonl").decode().splitlines()]
    assert len(payloads) == 3
    for index, payload in enumerate(payloads):
        assert payload["axis"] == result.axis[index]
        assert payload["curve"] is None
        assert payload["log_negativity"] == result.log_negativity[index]
        assert payload["status"] == "ok"
        assert payload["routh_stable"] is True


def test_preset_csvs_match_the_benchmark_digests(tmp_path):
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
    for name, digest in reference["figures"].items():
        out = tmp_path / f"{name}.csv"
        assert cli.main(["figure", "--name", name, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


# Values that print alike but differ in their bits (signed zeros, NaNs with
# another sign or payload), infinities, subnormals and plain numbers.
_NEG_NAN, _PAYLOAD_NAN = np.array([0xFFF8 << 48, (0x7FF8 << 48) | 1], np.uint64).view(float).tolist()
_CELL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, _NEG_NAN, _PAYLOAD_NAN, math.inf, -math.inf,
     5e-324, -5e-324, 1e-310, 1.0, -2.5, 0.1, 1e300]
) | st.floats()
_STATUSES = (sweep.STATUS_OK, sweep.STATUS_UNSTABLE, sweep.STATUS_MARGINAL, sweep.STATUS_ERROR)


@st.composite
def cell_sweeps(draw):
    """A `Sweep` of 0-12 rows; each column draws its cells from a pool of at
    most four values, so that values repeat within a column."""
    rows = draw(st.integers(0, 12))

    def cells(values, dtype):
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)), dtype)

    columns = {}
    for field in fields(Sweep):
        if field.name in ("routh_stable", "spectral_stable"):
            columns[field.name] = cells(st.booleans(), bool)
        elif field.name == "status":
            columns[field.name] = cells(st.sampled_from(_STATUSES), str)
        else:
            columns[field.name] = cells(_CELL_FLOATS, float)
    return Sweep(**columns)


_SIGNED_ZEROS = replace(
    Sweep(*(np.array([0.0, -0.0, 0.0]) for _ in fields(Sweep))),
    routh_stable=np.array([True, False, True]),
    spectral_stable=np.array([False, False, True]),
    status=np.array(["ok", "error", "ok"]),
)


@settings(max_examples=200, deadline=None)
@given(result=cell_sweeps())
@example(result=_SIGNED_ZEROS)
def test_emit_matches_cell_by_cell(result):
    for fmt in ("csv", "jsonl"):
        assert emit(result, fmt) == emit_cell_by_cell(result, fmt)
    for line in emit(result, "jsonl").decode().splitlines():
        json.loads(line, parse_constant=_not_json)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def test_jsonl_writes_a_non_finite_number_as_its_csv_text(params):
    # detunings whose squares overflow give s1 = s2 = inf, which Python's
    # json would write as the token Infinity; eta stays null where absent
    result = run_sweep(
        SweepSpec(axis="delta_norm", start=-1e160, stop=1e160, count=3, fixed=params)
    )
    rows = [
        json.loads(line, parse_constant=_not_json)
        for line in emit(result, "jsonl").decode().splitlines()
    ]
    assert [row["status"] for row in rows] == ["error", "ok", "error"]
    assert [(row["s1"], row["s2"], row["eta"]) for row in rows[::2]] == [("inf", "inf", None)] * 2
    assert {type(rows[1][name]) for name in ("s1", "s2", "eta")} == {float}
    assert emit(result).decode().splitlines()[1].split(",")[4:6] == ["inf", "inf"]


def test_emit_rejects_unknown_format(params):
    with pytest.raises(ConfigError):
        emit(run_sweep(small_spec(params, count=2)), "xml")


def test_emit_deterministic(params):
    spec = small_spec(params, curves=(0.0, 0.2), curve_param="beta")
    assert emit(run_sweep(spec)) == emit(run_sweep(spec))


def test_fig2a_linear_curve_matches_fig1b(params):
    fig1b = run_sweep(figure_preset("fig1b"))
    fig2a = run_sweep(figure_preset("fig2a"))
    linear = fig2a.curve == 0.0
    assert linear.sum() == len(fig1b.axis)
    assert (fig2a.axis[linear] == fig1b.axis).all()
    assert (fig2a.status[linear] == fig1b.status).all()
    ok = fig1b.status == "ok"
    assert (abs(fig2a.log_negativity[linear][ok] - fig1b.log_negativity[ok]) <= 1e-12).all()


def test_figure_sweep_takes_no_svd(monkeypatch):
    expected = emit(run_sweep(figure_preset("fig2a")))

    def no_svd(*args, **kwargs):
        raise AssertionError("the pipeline took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # np.linalg.cond looks the name up in its own module
    monkeypatch.setitem(np.linalg.cond.__wrapped__.__globals__, "svd", no_svd)
    assert emit(run_sweep(figure_preset("fig2a"))) == expected


def test_nth_entanglement_threshold(params):
    p10 = replace(params, power=10e-3)
    threshold = nth_entanglement_threshold(p10, -1.0)
    assert threshold == pytest.approx(632.1, rel=1e-3)
    # localization precision: predicate flips within rel_tol of the estimate
    lo = evaluate_point(p10, -1.0, n_th=threshold * 0.998)
    hi = evaluate_point(p10, -1.0, n_th=threshold * 1.002)
    assert lo.report.log_negativity > 0.0
    assert hi.report.log_negativity == 0.0


def test_nth_threshold_zero_when_never_entangled(params):
    # far red detuning never entangles
    assert nth_entanglement_threshold(replace(params, power=10e-3), 1.0) == 0.0


def _uniform(low, high):
    # an even spread over the range, not the round numbers that st.floats
    # favours: those square exactly either way and hide pow-vs-x*x drift
    return st.integers(0, 2**40).map(lambda k: low + (high - low) * (k / 2**40))


_RANGES = {
    "delta_norm": _uniform(-2.0, 0.5),
    "beta": _uniform(0.0, 0.9),
    "n_th": _uniform(0.0, 3000.0),
    "power": _uniform(0.0, 30e-3),
}


@st.composite
def sweep_specs(draw):
    axis = draw(st.sampled_from(AXES))
    start = draw(_RANGES[axis])
    stop = draw(_RANGES[axis].filter(lambda value: value > start))
    fields = dict(
        axis=axis,
        start=start,
        stop=stop,
        count=draw(st.integers(2, 30)),
        fixed=replace(default_params(), power=draw(_RANGES["power"]), beta=draw(_RANGES["beta"])),
        delta_norm=draw(_RANGES["delta_norm"]),
        n_th=draw(st.none() | _RANGES["n_th"]),
    )
    if draw(st.booleans()):
        curve_param = draw(st.sampled_from([name for name in AXES if name != axis]))
        curves = draw(st.lists(_RANGES[curve_param], min_size=1, max_size=4))
        fields.update(curve_param=curve_param, curves=tuple(curves))
        if draw(st.booleans()):
            fields["curve_delta_norms"] = tuple(
                draw(st.lists(_RANGES["delta_norm"], min_size=len(curves), max_size=len(curves)))
            )
    return SweepSpec(**fields)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=sweep_specs())
def test_records_do_not_depend_on_the_batch(spec):
    for fmt in ("csv", "jsonl"):
        assert emit(run_sweep(spec), fmt) == emit(records_point_by_point(spec), fmt)


def _admitted(name):
    """Finite floats that the range rule of `name` admits, each bound included
    where the rule includes it."""
    above, low, below, high = params_module._RANGES[name]
    bounds = {}
    if low > -math.inf:
        bounds.update(min_value=low, exclude_min=not above(low, low))
    if high < math.inf:
        bounds.update(max_value=high, exclude_max=not below(high, high))
    return st.floats(**bounds, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    point_params=st.builds(
        PhysicalParams, **{f.name: _admitted(f.name) for f in fields(PhysicalParams)}
    ),
    delta_norm=st.floats(allow_nan=False, allow_infinity=False),
    n_th=st.none() | st.just(0.0) | _admitted("n_th"),
)
def test_a_numerical_failure_marks_its_point_and_raises_nothing(point_params, delta_norm, n_th):
    # squares that overflow, quotients that underflow, disagreeing routes:
    # every failure reads as its point's status, and only input errors raise
    delta_norm += 0.0  # no grid holds -0.0
    neighbour = float(np.nextafter(delta_norm, -math.inf if delta_norm > 0 else math.inf))
    start, stop = sorted((delta_norm, neighbour))
    spec = SweepSpec(
        axis="delta_norm", start=start, stop=stop, count=2, fixed=point_params, n_th=n_th
    )
    index = 0 if start == delta_norm else 1
    assert spec.grid()[index] == delta_norm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        warnings.simplefilter("ignore", DegenerateRootsWarning)
        try:
            point = evaluate_point(point_params, delta_norm, n_th)
        except ConfigError:
            point = None
        try:
            row = run_sweep(spec)
        except ConfigError:
            row = None
        try:
            nth_entanglement_threshold(point_params, delta_norm)
        except ConfigError:
            pass
        try:
            from_bare_detuning(delta_norm * point_params.omega_m, point_params)
        except ConfigError:
            pass
        except ArithmeticError as exc:  # its own, not an OverflowError or ZeroDivisionError
            assert type(exc) is ArithmeticError
            assert str(exc).startswith("cubic root residual ")
    assert (point is None) == (row is None)
    if point is not None:
        assert row.status[index] == point.status
        eta = math.nan if point.report is None else point.report.eta
        assert float.hex(float(row.eta[index])) == float.hex(eta)


# A positive floor for the log-uniform draws of the fields whose range starts
# at 0: a coupling of 1 nHz, a picowatt and a microkelvin.
_FLOORS = {"g_m": 2.0 * math.pi * 1e-9, "power": 1e-12, "temperature": 1e-6}
_BOXED = ("omega_m", "gamma_m", "g_m", "kappa", "power", "laser_wavelength", "temperature")


def _in_the_box(name):
    """Log-uniform floats over the range of `name` (above its floor where the
    range starts at 0), or one of its corners: each bound, and the floor."""
    _, low, _, high = params_module._RANGES[name]
    floor = _FLOORS.get(name, low)
    log_uniform = st.floats(math.log(floor), math.log(high)).map(
        lambda x: min(max(math.exp(x), floor), high)
    )
    return st.sampled_from(sorted({low, floor, high})) | log_uniform


def _box_corner(side):
    """PhysicalParams with every boxed field at its lower (0) or upper (1) bound."""
    return PhysicalParams(
        **{name: params_module._RANGES[name][1 + 2 * side] for name in _BOXED}, beta=0.99 * side
    )


def routh_numbers(point_params, steady):
    """s1 and s2 at `steady`, as ``oment stability`` prints them."""
    p = point_params
    return routh_conditions(p.omega_m, p.gamma_m, p.kappa, steady.delta_eff, steady.g_eff)


@settings(max_examples=300, deadline=None)
@given(
    point_params=st.builds(
        PhysicalParams,
        **{name: _in_the_box(name) for name in _BOXED},
        beta=st.sampled_from([0.0, 0.99]) | st.floats(0.0, 0.99),
    ),
    delta_norm=st.sampled_from([-3.0, 0.0, 1.0]) | st.floats(-3.0, 1.0),
)
@example(point_params=_box_corner(0), delta_norm=-3.0)
@example(point_params=_box_corner(1), delta_norm=1.0)
def test_every_stage_stays_finite_over_the_parameter_box(point_params, delta_norm):
    # inside the box no stage leaves the float range: no exception, no
    # warning but the ill-conditioned solve's own, a decided gate, and finite
    # steady states, Routh numbers and coupling thresholds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", IllConditionedWarning)
        point = evaluate_point(point_params, delta_norm)
        thresholds = (coupling_threshold_blue(point_params), coupling_threshold_red(point_params))
    assert not point.stability.undecided
    s1, s2 = routh_numbers(point_params, point.steady)
    numbers = (point.steady.n_s, point.steady.g_eff, s1, s2, *thresholds)
    assert all(math.isfinite(x) for x in numbers)
    assert min(thresholds) > 0.0


_RATES = ("omega_m", "gamma_m", "g_m", "kappa")


@pytest.mark.parametrize("delta_norm", [-1.0, 0.5, 1e160], ids=["ok", "unstable", "undecided"])
def test_a_points_stability_fields_are_python_scalars(params, delta_norm):
    # numpy scalar parameters, int-valued rates, and a numpy scalar detuning
    # and bath occupation give the fields, and the values, of Python floats
    p = replace(params, power=10e-3, beta=0.2)
    p = replace(p, **{name: float(round(getattr(p, name))) for name in _RATES})
    alone = evaluate_point(p, delta_norm, 100.0)
    numpy_params = replace(p, **{f.name: np.float64(getattr(p, f.name)) for f in fields(p)})
    int_params = replace(p, **{name: int(getattr(p, name)) for name in _RATES})
    for point_params in (p, numpy_params, int_params):
        assert point_params == p
        assert {type(getattr(point_params, f.name)) for f in fields(p)} == {float}
        for kind in (float, np.float64):
            point = evaluate_point(point_params, kind(delta_norm), kind(100.0))
            stability = point.stability
            assert [type(getattr(stability, f.name)) for f in fields(stability)] == (
                [bool, bool, bool]
            )
            s1, s2 = routh_numbers(point_params, point.steady)
            assert (type(s1), type(s2)) == (float, float)
            assert (s1, s2) == routh_numbers(p, alone.steady)
            assert {type(getattr(point.steady, f.name)) for f in fields(point.steady)} == {float}
            assert (point.status, point.steady) == (alone.status, alone.steady)
            assert stability == alone.stability
            assert point.report == alone.report
            if point.report is not None:
                assert [type(getattr(point.report, f.name)) for f in fields(point.report)] == (
                    [float, float, float, float, bool]
                )


# Each per-point result record and its field names, in order.
_RECORD_FIELDS = {
    oment.SteadyState: ("n_s", "alpha_s", "x_s", "delta_eff", "delta_bare", "g_eff", "beta"),
    oment.StabilityReport: ("spectral_stable", "marginal", "undecided"),
    oment.CovarianceMatrix: ("v", "residual", "condition", "ill_conditioned"),
    oment.EntanglementReport: ("sigma_v", "det_v", "eta", "log_negativity", "entangled"),
    oment.PointResult: ("steady", "stability", "covariance", "report", "status"),
}


def test_the_result_records_keep_their_dataclass_api(params):
    # fields in order, replace, == and repr on real results: an ok point, an
    # unstable one and a bare-detuning state; each record is slotted
    p = replace(params, power=10e-3, beta=0.2)
    ok, unstable = evaluate_point(p, -1.0, 100.0), evaluate_point(p, 0.5, 100.0)
    assert (ok.status, unstable.status) == ("ok", "unstable")
    state = from_bare_detuning(-1.0 * p.omega_m, p)[0]
    records = [
        ok, ok.steady, ok.stability, ok.covariance, ok.report,
        unstable, unstable.steady, unstable.stability, state,
    ]
    assert {type(record) for record in records} == set(_RECORD_FIELDS)
    for record in records:
        names = _RECORD_FIELDS[type(record)]
        assert tuple(f.name for f in fields(record)) == names
        assert not hasattr(record, "__dict__")
        copy = replace(record)
        assert copy is not record
        assert copy == record
        *rest, last = names
        body = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
        assert repr(record) == f"{type(record).__name__}({body})"
        changed = replace(record, **{last: "changed"})
        assert changed != record
        assert getattr(changed, last) == "changed"
        assert all(getattr(changed, name) is getattr(record, name) for name in rest)


# Operating points along n_th, at beta = 0.99: ok, unstable, a detuning whose
# square overflows (undecided: error) and an ill-conditioned 10x10 system
# (error at every n_th).
_EDGE_POWERS = (1e-3, 1e-3, 1e-3, 0.1)
_EDGE_DELTA_NORMS = (-1.0, 1.0, 1e160, 0.0)


@pytest.mark.parametrize(
    "overrides, statuses",
    [
        # n_th axis, one operating point per curve
        (dict(axis="n_th", start=0.0, stop=3000.0, count=9, curve_param="power",
              curves=_EDGE_POWERS, curve_delta_norms=_EDGE_DELTA_NORMS,
              fixed=replace(default_params(), beta=0.99)),
         {"ok", "unstable", "error"}),
        (dict(axis="n_th", start=0.0, stop=3000.0, count=9), {"ok"}),
        # n_th curves, one operating point per grid value
        (dict(start=-1.5, stop=0.5, count=9, curve_param="n_th", curves=(0.0, 100.0, 2500.0)),
         {"ok", "unstable"}),
        (dict(axis="power", start=0.0, stop=0.1, count=5, delta_norm=0.0, curve_param="n_th",
              curves=(0.0, 100.0, 2500.0), fixed=replace(default_params(), beta=0.99)),
         {"ok", "error"}),
        (dict(start=-1.0, stop=1e160, count=5, curve_param="n_th", curves=(0.0, 100.0)),
         {"ok", "error"}),
        # nothing solved: an all-unstable grid, with and without an n_th axis
        (dict(axis="n_th", start=0.0, stop=3000.0, count=9, delta_norm=1.0), {"unstable"}),
        (dict(start=0.8, stop=1.2), {"unstable"}),
    ],
)
def test_nth_grids_match_point_by_point(params, overrides, statuses):
    spec = small_spec(params, **overrides)
    with warnings.catch_warnings():  # the ill-conditioned operating points warn
        warnings.simplefilter("ignore", IllConditionedWarning)
        swept, by_point = run_sweep(spec), records_point_by_point(spec)
    for fmt in ("csv", "jsonl"):
        assert emit(swept, fmt) == emit(by_point, fmt)
    assert set(swept.status) == statuses


# (power, beta, delta_norm, n_th): ok, ok, unstable, error from a detuning
# whose square overflows (undecided, no solve) and error from an
# ill-conditioned 10x10 system (solved)
_MIXED_POINTS = (
    (10e-3, 0.6, -0.5, 100.0),
    (0.7e-3, 0.0, -1.0, 0.0),
    (10e-3, 0.2, 0.5, 100.0),
    (10e-3, 0.0, 1e160, 0.0),
    (0.1, 0.99, 0.0, 0.0),
)
_BENCH_POINTS = st.tuples(
    st.floats(0.7e-3, 30e-3), st.floats(0.0, 0.6), st.floats(-2.5, 0.5), st.floats(0.0, 3000.0)
)


def floats_bytes(*values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_point_equals_its_row_in_a_stack(data):
    # a single point runs 0-d on its own (4, 4) matrices: its status and every
    # diagnostic it reports must be the bytes of its row in a stack of several points
    extra = data.draw(st.lists(_BENCH_POINTS, max_size=3))
    points = data.draw(st.permutations(_MIXED_POINTS + tuple(extra)))
    params = default_params()
    power, beta, delta_norm, n_th = map(np.array, zip(*points))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        stack = sweep._evaluate(
            params, steady_states(delta_norm * params.omega_m, power, beta, params), n_th
        )
        for index, (p, b, d, n) in enumerate(points):
            alone = replace(params, power=p, beta=b)
            point = evaluate_point(alone, d, n)
            assert point.status == stack.status[index]
            row = (stack.solved == index).nonzero()[0]
            assert row.size == (point.covariance is not None)
            if not row.size:
                continue
            # v, residual, condition, ill, ok, sigma, det V and eta, as float64 bytes
            covariance, report, k = point.covariance, point.report, row[0]
            assert covariance.v.tobytes() == stack.v[k].tobytes()
            diagnostics = covariance.residual, covariance.condition, covariance.ill_conditioned
            assert floats_bytes(*diagnostics) == floats_bytes(
                stack.residual[k], stack.condition[k], stack.ill[k]
            )
            assert (report is not None) == stack.ok[k]
            if report is not None:
                assert floats_bytes(report.sigma_v, report.det_v, report.eta) == floats_bytes(
                    stack.sigma[k], stack.det_v[k], stack.eta[k]
                )
    assert {"ok", "unstable", "error"} <= set(stack.status)


def _count_operating_points(monkeypatch):
    """Drift matrices gated, systems conditioned (inverted) and pairs solved, per call."""
    counts = {"gated": [], "conditioned": [], "solved": []}
    gate, inv, solve = sweep._stability_stack, _umath_linalg.inv, _umath_linalg.solve

    def counted_stability(steady, params):
        report = gate(steady, params)
        counts["gated"].append(np.size(report.spectral_stable))
        return report

    def counted_inv(x, **kwargs):
        counts["conditioned"].append(np.size(x) // 100)
        return inv(x, **kwargs)

    def counted_solve(a, b, **kwargs):
        counts["solved"].append(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        return solve(a, b, **kwargs)

    monkeypatch.setattr(sweep, "_stability_stack", counted_stability)
    monkeypatch.setattr(_umath_linalg, "inv", counted_inv)
    monkeypatch.setattr(_umath_linalg, "solve", counted_solve)
    return counts


def test_sweep_gates_and_conditions_once_per_operating_point(params, monkeypatch):
    counts = _count_operating_points(monkeypatch)
    # fig3: 4 curves x 201 n_th values, 4 operating points, every pair solved
    run_sweep(figure_preset("fig3"))
    assert counts == {"gated": [4], "conditioned": [4], "solved": [(4, 201)]}
    for values in counts.values():
        values.clear()
    # n_th curves on a detuning axis: one operating point per grid value
    run_sweep(small_spec(params, count=7, curve_param="n_th", curves=(0.0, 100.0, 1000.0)))
    assert counts == {"gated": [7], "conditioned": [7], "solved": [(7, 3)]}
    for values in counts.values():
        values.clear()
    # no repeated operating points: the same work as one point per grid value
    run_sweep(figure_preset("fig1b"))
    assert counts["gated"] == [201] and counts["solved"] == [(counts["conditioned"][0],)]


def test_a_point_does_one_points_work(params, monkeypatch):
    counts = _count_operating_points(monkeypatch)
    # an ok point: one drift matrix gated, one system conditioned, one pair solved
    assert evaluate_point(params, -1.0, 100.0).status == "ok"
    assert counts == {"gated": [1], "conditioned": [1], "solved": [()]}
    for values in counts.values():
        values.clear()
    # an unstable point: gated, and nothing conditioned or solved
    assert evaluate_point(replace(params, power=10e-3, beta=0.2), 0.5, 100.0).status == "unstable"
    assert counts == {"gated": [1], "conditioned": [], "solved": []}


def test_singular_operating_point_warns_once(params):
    # three n_th curves; at beta = 0.99 and delta = 0, four powers give an
    # ill-conditioned system (condition 8e12 to 2.4e14), each warns once
    spec = small_spec(params, axis="power", start=0.0, stop=0.1, count=5, delta_norm=0.0,
                      curve_param="n_th", curves=(0.0, 100.0, 1000.0),
                      fixed=replace(params, beta=0.99))
    with pytest.warns(IllConditionedWarning, match="exceeds 1e[+]12$") as caught:
        result = run_sweep(spec)
    assert len(caught) == 4
    assert (result.status.reshape(3, 5)[:, 1:] == "error").all()


def _singular_drift_and_diffusion(params):
    return drift_and_diffusion(params, steady_states(0.0, 0.1, 0.99, params), 0.0)


# 100 mW at beta = 0.99 and delta = 0: stable, with a condition of 2.4e14
_ILL = dict(power=0.1, beta=0.99)


@pytest.mark.parametrize(
    "call",
    [
        lambda params: run_sweep(small_spec(
            params, axis="power", start=0.0, stop=0.1, count=5, delta_norm=0.0,
            fixed=replace(params, beta=0.99),
        )),
        lambda params: evaluate_point(replace(params, **_ILL), 0.0),
        lambda params: nth_entanglement_threshold(replace(params, **_ILL), 0.0),
        lambda params: solve_stack(*_singular_drift_and_diffusion(params)),
    ],
    ids=["run_sweep", "evaluate_point", "nth_entanglement_threshold", "solve_stack"],
)
def test_ill_conditioned_warning_names_the_callers_line(params, call):
    with pytest.warns(IllConditionedWarning, match="exceeds 1e[+]12$") as caught:
        call(params)
    assert {w.filename for w in caught} == {__file__}


def _latin_hypercube(seed, count, ranges):
    """`count` points; each range is cut into `count` strata, each used once."""
    rng = random.Random(seed)
    columns = []
    for low, high in ranges:
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([low + (high - low) * (k + rng.random()) / count for k in strata])
    return list(zip(*columns))


# Near a product state (an undriven or barely driven cavity) f*eta sits
# within rounding of 1, so Simon's quartic mispredicts the bisection's path.
# At 0 and 1e-12 W the verdicts are rounding noise, and V0 + n_th*V1 and a
# solve at each n_th can disagree: some of those thresholds differ from the
# one-evaluate_point-per-midpoint reference (a strict xfail below).
_NEAR_PRODUCT_POINTS = [
    (power, beta, delta_norm)
    for power in (0.0, 1e-12, 1e-9, 1e-7)
    for beta in (0.0, 0.6)
    for delta_norm in (-1.5, -1.0, -0.5, -0.1)
]
# (power in W, beta, delta_norm): a Latin hypercube over 1-30 mW, beta 0-0.6,
# delta/omega_m -1.2..0.5, the near product states from 1e-9 W, then the
# linear and nonlinear fig3 points.
_THRESHOLD_POINTS = (
    [
        (power_mw * 1e-3, beta, delta_norm)
        for power_mw, beta, delta_norm in _latin_hypercube(
            2024, 40, [(1.0, 30.0), (0.0, 0.6), (-1.2, 0.5)]
        )
    ]
    + [point for point in _NEAR_PRODUCT_POINTS if point[0] >= 1e-9]
    + [(10e-3, 0.0, -1.0), (10e-3, 0.6, -0.5)]
)


def test_nth_threshold_equals_point_by_point_bisection(params):
    thresholds = []
    for power, beta, delta_norm in _THRESHOLD_POINTS:
        point_params = replace(params, power=power, beta=beta)
        threshold = nth_entanglement_threshold(point_params, delta_norm)
        assert threshold == nth_threshold_point_by_point(point_params, delta_norm), (
            power, beta, delta_norm
        )
        thresholds.append(threshold)
    assert 0.0 in thresholds
    assert min(thresholds[-2:]) > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="near a product state the verdict is rounding noise, and V0 + n_th*V1 "
    "and a solve at each n_th round differently",
)
def test_nth_threshold_equals_point_by_point_near_product_states(params):
    mismatches = []
    for power, beta, delta_norm in _NEAR_PRODUCT_POINTS:
        point_params = replace(params, power=power, beta=beta)
        threshold = nth_entanglement_threshold(point_params, delta_norm)
        if threshold != nth_threshold_point_by_point(point_params, delta_norm):
            mismatches.append((power, beta, delta_norm))
    assert mismatches == []


_PREDICTED_PATH = sweep._predicted_path


def _no_prediction(quartic, n_hi, lo, hi):
    return [lo / 2.0 + hi / 2.0]  # plain bisection: one midpoint per stacked check


def _wrong_prediction(quartic, n_hi, lo, hi):
    # -P flips every turn: of each predicted path only the first midpoint is visited
    return _PREDICTED_PATH([-c for c in quartic], n_hi, lo, hi)


@pytest.mark.parametrize("predictor", [_no_prediction, _wrong_prediction])
def test_nth_threshold_does_not_depend_on_the_predictor(params, monkeypatch, predictor):
    points = [
        (replace(params, power=power, beta=beta), delta_norm)
        for power, beta, delta_norm in _THRESHOLD_POINTS + _NEAR_PRODUCT_POINTS
    ]
    calls = Counter()

    def counted(*args):
        calls["predictions"] += 1
        return _PREDICTED_PATH(*args)

    monkeypatch.setattr(sweep, "_predicted_path", counted)
    expected = [nth_entanglement_threshold(p, delta_norm) for p, delta_norm in points]
    assert calls["predictions"] > len(points)  # some paths were mispredicted
    monkeypatch.setattr(sweep, "_predicted_path", predictor)
    assert [nth_entanglement_threshold(p, delta_norm) for p, delta_norm in points] == expected


def test_nth_threshold_verdicts_come_from_the_checks(params, monkeypatch):
    points = [
        (replace(params, power=power, beta=beta), delta_norm)
        for power, beta, delta_norm in _THRESHOLD_POINTS[-2:]
    ]
    unshifted = [nth_entanglement_threshold(p, delta_norm) for p, delta_norm in points]
    # the checks now draw the line at f*eta = 1/1.02, Simon's quartic still at
    # f*eta = 1: the quartic mispredicts and the checks decide
    eta_stack = gaussian._eta_stack

    def shifted(v):
        sig, det_v, eta, physical = eta_stack(v)
        return sig, det_v, 1.02 * eta, physical

    monkeypatch.setattr(gaussian, "_eta_stack", shifted)
    for (p, delta_norm), before in zip(points, unshifted):
        threshold = nth_entanglement_threshold(p, delta_norm)
        assert threshold == nth_threshold_point_by_point(p, delta_norm) < before


@settings(max_examples=30, deadline=None)
@given(
    power=_uniform(1e-3, 30e-3), beta=_uniform(0.0, 0.6), delta_norm=_uniform(-1.2, 0.5)
)
def test_nth_threshold_is_bracketed_by_evaluate_point(power, beta, delta_norm):
    point_params = replace(default_params(), power=power, beta=beta)
    threshold = nth_entanglement_threshold(point_params, delta_norm)

    def entangled(n_th):
        point = evaluate_point(point_params, delta_norm, n_th)
        return point.status == "ok" and point.report.log_negativity > 0.0

    if threshold == 0.0:
        assert not entangled(0.0)
        return
    width = 1e-3 * max(threshold, 1.0)
    assert entangled(max(threshold - width, 0.0))
    assert not entangled(threshold + width)


@settings(max_examples=40, deadline=None)
@given(
    power=_uniform(0.5e-3, 30e-3),
    beta=_uniform(0.0, 0.6),
    delta_norm=_uniform(-2.0, 0.5),
    occupations=st.lists(_uniform(0.0, 3000.0), min_size=2, max_size=6),
)
def test_log_negativity_does_not_increase_with_occupation(power, beta, delta_norm, occupations):
    # V(n_th) = V0 + n_th*V1 with V1 >= 0: the bath adds correlated classical
    # displacement noise, a mixture of local unitaries, which cannot raise E_N
    point_params = replace(default_params(), power=power, beta=beta)
    points = [evaluate_point(point_params, delta_norm, n) for n in sorted(occupations)]
    values = [point.report.log_negativity for point in points if point.status == "ok"]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))


def test_nth_threshold_gates_and_solves_once(params, monkeypatch):
    # blue detuned at 1 mW the gate fails, so nothing is solved there
    assert evaluate_point(replace(params, power=1e-3), 1.0).status == "unstable"
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # the pipeline calls the bodies of stability_stack, solve_stack, residual and eta_stack
    patched = {
        "stability_stack": "_stability_stack",
        "solve_stack": "_solve_stack",
        "evaluate_point": "evaluate_point",
        "_checked_eta": "_checked_eta",
        "residual": "_residual",
    }
    for name, attribute in patched.items():
        monkeypatch.setattr(sweep, attribute, counted(name, getattr(sweep, attribute)))
    monkeypatch.setattr(gaussian, "_eta_stack", counted("eta_stack", gaussian._eta_stack))
    monkeypatch.setattr(lyapunov, "_residual", counted("residual", lyapunov._residual))
    # the predicted path is right here, so one stacked check decides every
    # midpoint, and the solve of V0 and V1 takes no residual of its own
    assert nth_entanglement_threshold(replace(params, power=10e-3), -1.0) > 0.0
    assert calls == {
        "stability_stack": 1, "solve_stack": 1, "_checked_eta": 1, "eta_stack": 1, "residual": 1
    }
    calls.clear()
    assert nth_entanglement_threshold(replace(params, power=1e-3), 1.0) == 0.0
    assert calls == {"stability_stack": 1}


@pytest.mark.xfail(
    strict=True,
    reason="the mechanical block of V is at vacuum 1/2 and the cavity block at 1, "
    "and CM_SCALE halves both, so a product state reads eta = 1/4",
)
def test_undriven_cavity_is_separable(params):
    undriven = replace(params, power=0.0)  # g_eff = 0: a product state
    assert not evaluate_point(undriven, -0.5, 0.0).report.entangled
    assert nth_entanglement_threshold(undriven, -0.5) == 0.0


# The (V, eta) bounds of each preset: the largest power of ten at or below 100
# times its worst measured error.  The eta errors above 1e-14 (up to 4.2e-11)
# come from the delta_norm = 0 end of fig1a, fig1b and fig2a, where eta is 0.87
# to 25 (E_N = 0) and the closed form loses digits, from the library's V too.
_EXACT_BOUNDS = {
    "fig1a": (1e-10, 1e-9),  # worst 1.8e-12, 1.4e-11
    "fig1b": (1e-11, 1e-9),  # worst 7.1e-13, 2.3e-11
    "fig2a": (1e-11, 1e-9),  # worst 4.4e-13, 4.2e-11
    "fig2b": (1e-13, 1e-14),  # worst 2.8e-15, 7.5e-16
    "fig3": (1e-13, 1e-13),  # worst 1.0e-15, 1.3e-15
}


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_preset_points_match_the_exact_oracle(name):
    # 16 grid points spread evenly over the preset, both ends included: each
    # gate reads the exact verdict, and each solved point has V (largest entry
    # error over largest entry) and eta within the preset's bounds
    v_bound, eta_bound = _EXACT_BOUNDS[name]
    points = list(grid_points(figure_preset(name)))
    solved = 0
    for index in np.linspace(0, len(points) - 1, 16).round().astype(int):
        _, _, point_params, delta_norm, n_th = points[index]
        point = evaluate_point(point_params, delta_norm, n_th)
        gate = gate_exact(point_params, point.steady)
        assert sweep._gate(point.stability)[0] == gate
        if gate == 1:
            assert point.status == "ok"
            solved += 1
            v = lyapunov_exact(*drift_and_diffusion(point_params, point.steady, n_th))
            assert relative_error(point.covariance.v, v) < v_bound
            eta = eta_exact([[Fraction(gaussian.CM_SCALE) * x for x in row] for row in v])
            assert abs(point.report.eta - eta) < eta_bound * eta
    assert solved >= 13


# A point inside the parameter box whose residual ||A V + V A^T + D|| / ||D||
# reads 5.8e-8, above RESIDUAL_LIMIT, at a condition of 1.95e10
_CORRECT_SOLVE_READ_AS_ERROR = (
    PhysicalParams(omega_m=94610541705.32724, gamma_m=20.927470283345123, g_m=364307206.21712756,
                   kappa=153.61885203963735, power=438.30242671649125,
                   laser_wavelength=2.662643159323741e-07, temperature=25.280578708946983,
                   beta=0.1163989382530616),
    0.12414038888676959,
)


def test_the_solve_that_reads_error_is_exact():
    point = evaluate_point(*_CORRECT_SOLVE_READ_AS_ERROR)
    assert point.status == "error" and point.covariance.residual > sweep.RESIDUAL_LIMIT
    a, d = drift_and_diffusion(_CORRECT_SOLVE_READ_AS_ERROR[0], point.steady)
    v = point.covariance.v
    assert relative_error(v, lyapunov_exact(a, d)) < 1e-14  # measured 1.5e-16
    # Higham's backward error ||A V + V A^T + D|| / (2 ||A|| ||V|| + ||D||), measured 6.3e-18
    norm = np.linalg.norm
    assert norm(a @ v + v @ a.T + d) / (2 * norm(a) * norm(v) + norm(d)) < 1e-16


@pytest.mark.xfail(
    strict=True,
    reason="the residual divides by ||D|| alone, so rounding of order eps ||A|| ||V|| / ||D|| "
    "reads as a failed solve",
)
def test_a_correct_solve_reads_ok():
    assert evaluate_point(*_CORRECT_SOLVE_READ_AS_ERROR).status == "ok"


# A point inside the parameter box that reads ok, with no ill-conditioned flag
# (condition 7.1e9) and a residual of 6.3e-11, whose V is 3.6e-8 off the exact
# V: the residual bounds the backward error, and the forward error can be the
# condition times as large
_INACCURATE_OK_POINT = (
    PhysicalParams(omega_m=4724788570556.623, gamma_m=6227.078331426504, g_m=207001108513.738,
                   kappa=2988561.695525189, power=1.5767761204290618e-07,
                   laser_wavelength=0.0001962021699201314, temperature=7.749082326128934e-06,
                   beta=0.40108316573807545),
    -1.7421124711686096,
)


def _eta_error_at_the_inaccurate_ok_point():
    """The point, and its eta's error relative to the exact eta."""
    point = evaluate_point(*_INACCURATE_OK_POINT)
    v = lyapunov_exact(*drift_and_diffusion(_INACCURATE_OK_POINT[0], point.steady))
    eta = eta_exact([[Fraction(gaussian.CM_SCALE) * x for x in row] for row in v])
    return point, abs(point.report.eta - eta) / eta


def test_the_inaccurate_ok_point_reads_ok_unflagged():
    point, error = _eta_error_at_the_inaccurate_ok_point()
    assert point.status == "ok" and not point.covariance.ill_conditioned
    assert point.report.eta == 0.3230406450513441
    assert 4e-8 < error < 5e-8  # measured 4.3e-8


@pytest.mark.xfail(
    strict=True,
    reason="an ok point's eta is only as accurate as the condition times the residual allows, "
    "and neither flags this point",
)
def test_an_unflagged_ok_point_has_an_accurate_eta():
    assert _eta_error_at_the_inaccurate_ok_point()[1] <= 1e-10


def test_nth_threshold_warns_once_per_call(params, monkeypatch):
    p10 = replace(params, power=10e-3)
    expected = nth_entanglement_threshold(p10, -1.0)
    monkeypatch.setattr(lyapunov, "CONDITION_LIMIT", 0.0)
    with pytest.warns(IllConditionedWarning) as caught:
        assert nth_entanglement_threshold(p10, -1.0) == expected
    assert sum(issubclass(w.category, IllConditionedWarning) for w in caught) == 1


def test_nth_threshold_error_status_is_not_entangled(params, monkeypatch):
    monkeypatch.setattr(sweep, "RESIDUAL_LIMIT", 0.0)
    p10 = replace(params, power=10e-3)
    assert evaluate_point(p10, -1.0, 0.0).status == "error"
    assert nth_entanglement_threshold(p10, -1.0) == 0.0


def test_nth_threshold_singular_system_is_not_entangled(params):
    # stable at 100 mW, beta = 0.99 and delta = 0, but the 10x10 system is
    # singular to working precision (condition 2.4e14)
    singular = replace(params, **_ILL)
    with pytest.warns(IllConditionedWarning, match="2.386e[+]14 exceeds"):
        assert evaluate_point(singular, 0.0).status == "error"
    with pytest.warns(IllConditionedWarning, match="2.386e[+]14 exceeds"):
        assert nth_entanglement_threshold(singular, 0.0) == 0.0


def disagreeing_route(v):
    """A Cholesky route of eta that calls every matrix positive definite and reads 10."""
    return np.full(v.shape[:-2], 10.0), np.ones(v.shape[:-2], dtype=bool)


def test_nth_threshold_route_disagreement_raises(params, monkeypatch):
    # disagreeing routes make every checked n_th an error: not entangled
    monkeypatch.setattr(gaussian, "_eta_cholesky", disagreeing_route)
    assert nth_entanglement_threshold(replace(params, power=10e-3), -1.0) == 0.0


def test_one_disagreeing_matrix_marks_only_its_own_row(monkeypatch):
    # the routes disagree by 0.1% at one CM of fig2b: that row reads error,
    # and the other 200 rows keep their bytes
    spec = figure_preset("fig2b")
    rows = emit(run_sweep(spec)).decode().splitlines()
    route = gaussian._eta_cholesky

    def one_moved(v):
        eta, definite = route(v)
        eta = eta.copy()
        eta[100] *= 1.001
        return eta, definite

    monkeypatch.setattr(gaussian, "_eta_cholesky", one_moved)
    moved = emit(run_sweep(spec)).decode().splitlines()
    assert len(moved) == len(rows) == 202
    changed = [i for i, (row, new) in enumerate(zip(rows, moved)) if row != new]
    assert changed == [101]  # the header comes first
    assert rows[101].endswith(",ok")
    assert moved[101] == rows[101].rsplit(",", 3)[0] + ",,,error"

    # the check step itself, unpatched: ok, residual 1e-6, NaN, indefinite and
    # route-disagreeing CMs in one stack each get the values and the verdict
    # they get alone.  With A = -I the residual of V against D = 2V is 0, so
    # only the named check fails.
    monkeypatch.undo()
    v0 = evaluate_point(replace(default_params(), power=10e-3), -1.0).covariance.v
    skewed = v0.copy()
    skewed[0, 2] *= 1.01  # the closed form reads the upper triangle, Cholesky the lower
    v = np.array([v0, v0, np.full((4, 4), np.nan), -v0, skewed])
    d = 2.0 * v
    d[1] *= 1.0 + 1e-6
    a = np.broadcast_to(-np.eye(4), v.shape)
    with np.errstate(all="ignore"):
        stacked = sweep._checked_eta(a, v, d)
        alone = [sweep._checked_eta(a[k], v[k], d[k]) for k in range(len(v))]
    ok, res = stacked[:2]
    assert ok.tolist() == [True, False, False, False, False]
    assert res[1] > sweep.RESIDUAL_LIMIT >= max(res[[0, 3, 4]])
    for k, single in enumerate(alone):  # Python floats and bools alone
        assert [value[k].tobytes() for value in stacked] == [
            np.asarray(value).tobytes() for value in single
        ]


def nan_route(v):
    """A Cholesky route of eta that calls every matrix positive definite and reads NaN."""
    return np.full(v.shape[:-2], np.nan), np.ones(v.shape[:-2], dtype=bool)


def test_nth_threshold_nan_route_raises(params, monkeypatch):
    # a NaN route agrees with nothing: every checked n_th is an error
    monkeypatch.setattr(gaussian, "_eta_cholesky", nan_route)
    assert nth_entanglement_threshold(replace(params, power=10e-3), -1.0) == 0.0


def test_non_positive_definite_covariance_is_error(params, monkeypatch):
    p10 = replace(params, power=10e-3)
    assert evaluate_point(p10, -1.0).status == "ok"

    def negated(a, d):
        # -V has the block determinants of V, so sigma, det V and eta stay
        # as they were; with a zero residual only its definiteness tells
        v, condition, ill = solve_stack(a, d)
        return -v, condition, ill

    solve_stack = sweep._solve_stack
    monkeypatch.setattr(sweep, "_solve_stack", negated)
    monkeypatch.setattr(sweep, "_residual", lambda a, v, d: np.zeros(v.shape[:-2]))
    point = evaluate_point(p10, -1.0)
    assert point.status == "error"
    assert point.report is None


def test_evaluate_point_rejects_negative_occupation(params):
    with pytest.raises(ConfigError, match="n_th must be >= 0"):
        evaluate_point(params, -1.0, -1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_hi", -5.0),
        ("n_hi", 0.0),
        ("n_hi", math.nan),
        ("n_hi", math.inf),
    ],
)
def test_nth_threshold_rejects_bad_arguments(params, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        nth_entanglement_threshold(replace(params, power=10e-3), -1.0, **{field: value})


def test_nth_threshold_midpoints_do_not_overflow(params):
    # n_hi = 1.7e308 is in range: the bisection halves lo and hi before it
    # adds them, so about a thousand midpoints stay finite on the way down to
    # the threshold at the smallest gamma_m, 2.2e16, which a search from a
    # near n_hi finds too
    p10 = replace(params, power=10e-3, gamma_m=2.0 * math.pi * 1e-9)
    wide = nth_entanglement_threshold(p10, -1.0, n_hi=1.7e308)
    assert wide == pytest.approx(nth_entanglement_threshold(p10, -1.0, n_hi=1e20), rel=2e-3)
    # damping rates whose thresholds would near the float maximum are out of range
    for gamma_m in (1e-300, 1e-290):
        with pytest.raises(ConfigError, match=f"^gamma_m must be in .*, got {gamma_m!r}$"):
            replace(p10, gamma_m=gamma_m)


def test_nth_threshold_still_entangled_at_n_hi_names_the_remedy(params):
    with pytest.raises(ConfigError, match=r"^still entangled at n_th = 1\.0; raise n_hi$"):
        nth_entanglement_threshold(replace(params, power=10e-3), -1.0, n_hi=1.0)


def _calls(call, targets):
    """How many calls `call` makes to functions whose code is in `targets`,
    and what it returns."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code in targets

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return calls, result


def _errstate_entries(call):
    """How many times `call` enters an ``np.errstate``, as a block or a
    decorator, and what it returns."""
    return _calls(call, {np.errstate.__enter__.__code__, np.errstate()(lambda: None).__code__})


@pytest.mark.parametrize("delta_norm, status", [(-1.0, "ok"), (0.5, "unstable")])
def test_a_point_enters_one_error_state(params, delta_norm, status):
    # one at most: the gate runs on Python floats, which numpy's error state
    # does not govern, so only a point that passes it enters one, for its solve
    p = replace(params, power=10e-3, beta=0.2)
    entries, point = _errstate_entries(lambda: evaluate_point(p, delta_norm, 100.0))
    assert (entries, point.status) == (int(status == "ok"), status)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: from_bare_detuning(-0.6 * p.omega_m, replace(p, power=10e-3)),
        lambda p: nth_entanglement_threshold(replace(p, power=10e-3), -1.0),
        lambda p: run_sweep(figure_preset("fig2b", base=p)),
    ],
    ids=["from_bare_detuning", "nth_threshold", "run_sweep"],
)
def test_an_entry_point_enters_one_error_state(params, call):
    assert _errstate_entries(lambda: call(params))[0] == 1


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda p: evaluate_point(p, -1.0, 100.0).status, (0, "ok")),
        (lambda p: evaluate_point(p, 0.5, 100.0).status, (0, "unstable")),
        (lambda p: nth_entanglement_threshold(p, -1.0) > 0.0, (0, True)),
        (lambda p: run_sweep(small_spec(p)).axis.size, (1, 5)),
        (lambda p: cli.main(["stability", "--power-mw", "10", "--beta", "0.2"]), (3, 0)),
    ],
    ids=["ok_point", "unstable_point", "nth_threshold", "run_sweep", "cli_stability"],
)
def test_routh_numbers_are_computed_only_where_they_are_printed(params, call, expected, capsys):
    # the gate decides without s1 and s2: only the sweep's columns (once per
    # sweep) and `oment stability` (the point and each coupling threshold)
    # take them
    p = replace(params, power=10e-3, beta=0.2)
    assert _calls(lambda: call(p), {linmodel._routh_conditions.__code__}) == expected


def _private_stages():
    """(module, name) for every module-level function ``_name`` of oment
    whose module exports a function ``name``."""
    modules = (import_module(f"oment.{info.name}") for info in iter_modules(oment.__path__))
    return [
        (module, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if isfunction(getattr(module, name)) and isfunction(getattr(module, "_" + name, None))
    ]


def test_the_private_stages_are_found():
    # the five checked stages and the five that only set an errstate, at least
    assert len(_private_stages()) >= 10


@pytest.mark.parametrize("module, name", _private_stages())
def test_a_private_stage_is_the_body_of_its_public_one(module, name):
    # one definition each: the pipeline calls the body without its check or errstate
    assert getattr(module, "_" + name) is getattr(module, name).__wrapped__


@pytest.mark.parametrize(
    "call, checks",
    [
        (lambda p: evaluate_point(p, -1.0, 100.0).status == "ok", 0),
        (lambda p: len(from_bare_detuning(-0.6 * p.omega_m, p)) == 3, 0),
        (lambda p: nth_entanglement_threshold(p, -1.0) > 0.0, 1),  # n_hi
    ],
    ids=["solved_point", "from_bare_detuning", "nth_threshold"],
)
def test_an_entry_point_checks_its_input_once(params, call, checks):
    # each input is checked where it enters: PhysicalParams checked the fields,
    # and no stage that the entry point calls checks them again
    p10 = replace(params, power=10e-3, beta=0.2)
    assert _calls(lambda: call(p10), {params_module.check_range.__code__}) == (checks, True)


# Each public stage that checks a range, and each entry point, with an input
# outside it and the ConfigError text it raises
_OUT_OF_RANGE = [
    (lambda p: oment.drive_amplitude(-1e-3, p.kappa, p.omega_laser),
     "power must be in [0.0, 1000.0], got -0.001"),
    (lambda p: oment.drive_amplitude(1e-3, 0.0, p.omega_laser),
     "kappa must be in [0.6283185307179586, 6283185307179586.0], got 0.0"),
    (lambda p: steady_states(-p.omega_m, -1e-3, 0.0, p),
     "power must be in [0.0, 1000.0], got -0.001"),
    (lambda p: oment.stability_stack(steady_states(-1.0, 0.0, 1.0, p), p),
     "beta must be < 1, got 1.0"),
    (lambda p: oment.drift_matrix(p.omega_m, p.gamma_m, p.kappa, -p.omega_m, 1e6, 1.5),
     "beta must be < 1, got 1.5"),
    (lambda p: oment.diffusion_matrix(p.gamma_m, p.kappa, np.array([0.0, -2.0])),
     "n_th must be >= 0, got -2.0"),
    (lambda p: replace(p, power=-1e-3), "power must be in [0.0, 1000.0], got -0.001"),
    (lambda p: evaluate_point(p, -1.0, -2.0), "n_th must be >= 0, got -2.0"),
    (lambda p: from_bare_detuning(math.nan, p), "delta_bare must be finite, got nan"),
    (lambda p: nth_entanglement_threshold(p, -1.0, n_hi=0.0), "n_hi must be > 0, got 0.0"),
    (lambda p: run_sweep(small_spec(p, axis="beta", start=0.0, stop=1.0)),
     "beta must be < 1, got 1.0"),
]


@pytest.mark.parametrize(
    "call, message",
    _OUT_OF_RANGE,
    ids=[
        "drive_amplitude", "drive_amplitude-kappa", "steady_states", "stability_stack",
        "drift_matrix", "diffusion_matrix", "PhysicalParams", "evaluate_point",
        "from_bare_detuning", "nth_entanglement_threshold", "run_sweep",
    ],
)
def test_a_checked_stage_and_an_entry_point_raise_their_config_error(params, call, message):
    with pytest.raises(ConfigError) as caught:
        call(params)
    assert str(caught.value) == message


def test_the_entry_points_do_not_lean_on_their_error_state(params, monkeypatch):
    # each entry point silences numpy (a point past its gate only), which would
    # also hide a warning from its own arithmetic; run the undecorated bodies,
    # and a point's solved branch without its errstate, under numpy's default
    # error state on the presets and a seeded sample of the benchmark's ranges,
    # with every warning an error
    monkeypatch.setattr(sweep, "_solved_point", sweep._solved_point.__wrapped__)
    rng = np.random.default_rng(1)
    bistable = rng.uniform([0.7, 0.0, -2.5, 0.0], [30.0, 0.6, 0.5, 3000.0], (240, 4)).tolist()
    threshold = rng.uniform([1.0, 0.0, -1.2], [10.0, 0.6, -0.3], (60, 3)).tolist()
    default = dict(divide="warn", over="warn", under="ignore", invalid="warn")
    statuses = Counter()
    with np.errstate(**default), warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in FIGURE_NAMES:
            run_sweep.__wrapped__(figure_preset(name, base=params))
        for power, beta, bare_norm, n_th in bistable:
            sample = replace(params, power=power * 1e-3, beta=beta)
            for state in from_bare_detuning.__wrapped__(bare_norm * sample.omega_m, sample):
                point = evaluate_point(sample, state.delta_eff / sample.omega_m, n_th)
                statuses[point.status] += 1
        for power, beta, delta_norm in threshold:
            sample = replace(params, power=power * 1e-3, beta=beta)
            nth_entanglement_threshold.__wrapped__(sample, delta_norm)
    assert statuses["ok"] >= 50 and statuses["unstable"] >= 50  # both branches ran
