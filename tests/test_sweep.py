import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oment import (
    ConfigError,
    Sweep,
    SweepSpec,
    default_params,
    emit,
    evaluate_point,
    figure_preset,
    log_negativity,
    nth_entanglement_threshold,
    run_sweep,
)
import oment
from oment import cli, gaussian, lyapunov, sweep
from oment.lyapunov import IllConditionedWarning
from oment.sweep import AXES, CSV_HEADER
from references import nth_threshold_point_by_point, records_point_by_point


@pytest.fixture
def params():
    return default_params()


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
    direct = log_negativity(point.covariance.v, f=2.0)
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
    ],
)
def test_sweep_spec_validation(params, overrides):
    spec = small_spec(params, **overrides)
    with pytest.raises(ConfigError):
        run_sweep(spec)


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


def _no_prediction(quartic, n_hi, lo, hi, rel_tol):
    return [(lo + hi) / 2.0]  # plain bisection: one midpoint per stacked check


def _wrong_prediction(quartic, n_hi, lo, hi, rel_tol):
    # -P flips every turn: of each predicted path only the first midpoint is visited
    return _PREDICTED_PATH([-c for c in quartic], n_hi, lo, hi, rel_tol)


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
    log_negativity_of = gaussian.log_negativity_of

    def shifted(eta, f):
        return log_negativity_of(eta, 1.02 * f)

    monkeypatch.setattr(gaussian, "log_negativity_of", shifted)
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

    for name in ("stability_stack", "solve_stack", "evaluate_point", "_checked_eta"):
        monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name)))
    monkeypatch.setattr(gaussian, "eta_stack", counted("eta_stack", gaussian.eta_stack))
    # the predicted path is right here, so one stacked check decides every midpoint
    assert nth_entanglement_threshold(replace(params, power=10e-3), -1.0) > 0.0
    assert calls == {"stability_stack": 1, "solve_stack": 1, "_checked_eta": 1, "eta_stack": 1}
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


def test_nth_threshold_route_disagreement_raises(params, monkeypatch):
    monkeypatch.setattr(gaussian, "eta_spectrum", lambda v: np.full(v.shape[:-2], 10.0))
    with pytest.raises(ArithmeticError, match="routes disagree"):
        nth_entanglement_threshold(replace(params, power=10e-3), -1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("rel_tol", math.nan),
        ("rel_tol", math.inf),
        ("n_hi", -5.0),
        ("n_hi", 0.0),
        ("n_hi", math.nan),
        ("n_hi", math.inf),
    ],
)
def test_nth_threshold_rejects_bad_arguments(params, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        nth_entanglement_threshold(replace(params, power=10e-3), -1.0, **{field: value})


def test_nth_threshold_rel_tol_below_epsilon_fails_fast():
    # a tolerance below machine epsilon never satisfies the stop rule, so the
    # bisection would not end; run it in a child process under a time limit
    source_root = os.path.dirname(os.path.dirname(oment.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    code = (
        "from oment import ConfigError, default_params, nth_entanglement_threshold\n"
        "for rel_tol in (-1.0, 0.0, 1e-20):\n"
        "    try:\n"
        "        nth_entanglement_threshold(default_params(), -1.0, rel_tol=rel_tol)\n"
        "    except ConfigError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("rel_tol must be >= ") for line in lines)
