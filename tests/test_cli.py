import argparse
import contextlib
import io
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from oment import default_params, routh_conditions
from oment.cli import build_parser, main
from oment.lyapunov import IllConditionedWarning
from references import threshold_in_fractions


def parsed_lines(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


SWEEP_FLAGS = ["--axis", "delta_norm", "--start", "-1.1", "--stop", "-0.9", "--count", "2"]

# Operating points whose `point` and `stability` output is pinned byte for
# byte in cli_golden.json: ok, unstable, a power that would overflow the
# steady state (rejected at the boundary), a Lyapunov system singular to
# working precision, and kappa = 2*pi*264.5 MHz from a config file.
GOLDEN_FLAGS = {
    "ok": ["--delta-norm", "-1"],
    "ok-10mW": ["--delta-norm", "-1", "--power-mw", "10"],
    "unstable": ["--delta-norm", "-0.2", "--power-mw", "10"],
    "overflow": ["--delta-norm", "-1", "--power-mw", "1e300"],
    "singular": ["--delta-norm", "0", "--power-mw", "100", "--beta", "0.99"],
    "half-kappa-config": ["--config", "{config}", "--delta-norm", "-1"],
}
HALF_KAPPA_CONFIG = "kappa_hz = 264.5e6\n"
GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_run(command, case, config_dir):
    """Exit code, stdout, stderr and warning texts of ``oment <command>`` at `case`.

    `config_dir` receives the half-kappa config file.
    """
    config = Path(config_dir) / "half-kappa.cfg"
    config.write_text(HALF_KAPPA_CONFIG)
    argv = [command, *(flag.format(config=config) for flag in GOLDEN_FLAGS[case])]
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


@pytest.mark.parametrize("case", GOLDEN_FLAGS)
@pytest.mark.parametrize("command", ["point", "stability"])
def test_point_and_stability_output_is_pinned(command, case, tmp_path):
    assert golden_run(command, case, tmp_path) == json.loads(GOLDEN.read_text())[command][case]


def test_point_default_parameters(capsys):
    assert main(["point", "--delta-norm", "-1"]) == 0
    values = parsed_lines(capsys.readouterr().out)
    assert values["status"] == "ok"
    assert values["entangled"] == "true"
    assert float(values["log_negativity"]) == pytest.approx(0.014957782856779069, rel=1e-9)
    assert float(values["eta"]) == pytest.approx(0.49257676454639704, rel=1e-9)
    assert float(values["n_s"]) == pytest.approx(17646.383905380437, rel=1e-12)
    assert values["log_negativity_raw_cm"] == "0"


def test_point_flag_overrides(capsys):
    assert main(["point", "--delta-norm", "-1", "--power-mw", "10"]) == 0
    values = parsed_lines(capsys.readouterr().out)
    assert float(values["n_s"]) == pytest.approx(252091.198648292, rel=1e-12)
    assert float(values["log_negativity"]) == pytest.approx(0.06031952787130991, rel=1e-9)


def test_point_nth_override(capsys):
    assert main(["point", "--delta-norm", "-1", "--power-mw", "10", "--nth", "0"]) == 0
    cold = parsed_lines(capsys.readouterr().out)
    assert main(["point", "--delta-norm", "-1", "--power-mw", "10", "--nth", "100"]) == 0
    hot = parsed_lines(capsys.readouterr().out)
    assert float(cold["log_negativity"]) > float(hot["log_negativity"])


def test_point_unstable_exit_code(capsys):
    assert main(["point", "--delta-norm", "-0.2", "--power-mw", "10"]) == 3
    values = parsed_lines(capsys.readouterr().out)
    assert values["status"] == "unstable"
    # nothing was solved, so there are no solver diagnostics either
    assert list(values) == ["status", "n_s", "g_eff", "spectral_abscissa"]


def test_stability_output(capsys):
    assert main(["stability", "--delta-norm", "-1", "--power-mw", "10"]) == 0
    values = parsed_lines(capsys.readouterr().out)
    assert values["routh_stable"] == "true"
    assert values["spectral_stable"] == "true"
    assert float(values["s1"]) > 0
    assert float(values["s2"]) > 0
    assert float(values["spectral_abscissa"]) < 0
    assert float(values["g_threshold_blue"]) == pytest.approx(2.26e10, rel=0.02)
    assert float(values["g_threshold_red"]) == pytest.approx(2.89e7, rel=0.10)


def test_config_file_and_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("power_w = 10e-3\ntemperature_k = 0.270\n")
    assert main(["point", "--config", str(config), "--delta-norm", "-1"]) == 0
    from_config = parsed_lines(capsys.readouterr().out)
    assert float(from_config["n_s"]) == pytest.approx(252091.198648292, rel=1e-12)

    # flags override config values
    assert main(["point", "--config", str(config), "--delta-norm", "-1", "--power-mw", "0.7"]) == 0
    overridden = parsed_lines(capsys.readouterr().out)
    assert float(overridden["n_s"]) == pytest.approx(17646.383905380437, rel=1e-12)


def test_config_half_kappa_changes_physics(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kappa_hz = 264.5e6\n")
    assert main(["stability", "--config", str(config), "--delta-norm", "-1"]) == 0
    values = parsed_lines(capsys.readouterr().out)
    # halving kappa drops the red-sideband threshold well below the default
    assert float(values["g_threshold_red"]) == pytest.approx(1.912e7, rel=0.01)


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("mystery = 12\n")
    assert main(["point", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["kappa_hz", "omega_m_hz"])
def test_a_config_value_whose_conversion_overflows_exits_2(key, tmp_path, capsys):
    # 2*pi*1e308 is not a float; 1e308 Hz is out of range, named in Hz as written
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = 1e308\n")
    assert main(["point", "--config", str(config)]) == 2
    high = {"kappa_hz": 1e15, "omega_m_hz": 1e12}[key]
    rule = f"in [0.1, {high!r}]"
    assert capsys.readouterr().err == f"config error: {config}:1: {key} must be {rule}, got 1e308\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ("beta = 0.1\nbeta = 0.2\n", ":2: duplicate key 'beta'"),
        ("eta_factor = 2\n", ":1: unknown key 'eta_factor'"),
        ("kappa_convention = pi\n", ":1: unknown key 'kappa_convention'"),
        ("power_w = 1e-3\nbeta = x\n", ":2: invalid number for 'beta': 'x'"),
    ],
    ids=["duplicate", "eta_factor", "kappa_convention", "invalid-number"],
)
def test_rejected_config_key_exits_2(tmp_path, capsys, content, message):
    config = tmp_path / "run.cfg"
    config.write_text(content)
    assert main(["point", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {config}{message}\n"


def test_an_occupation_beyond_the_float_range_exits_2(tmp_path, capsys):
    # n_th would overflow at omega_m = 2*pi*1e-320 rad/s: that omega_m is out of range
    config = tmp_path / "run.cfg"
    config.write_text("omega_m_hz = 1e-320\n")
    assert main(["point", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {config}:1: omega_m_hz must be in [0.1, 1000000000000.0], got 1e-320\n"
    )


def test_a_bath_too_cold_for_a_float_reads_as_zero_kelvin(capsys):
    flags = ["point", "--power-mw", "10", "--temp-k"]
    assert main([*flags, "0"]) == 0
    frozen = capsys.readouterr()
    assert main([*flags, "1e-4"]) == 0
    assert capsys.readouterr() == frozen


def test_bad_beta_exits_2(capsys):
    assert main(["point", "--beta", "1.2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--power-mw", "-1"],
        ["point", "--nth", "-1"],
        ["stability", "--power-mw", "-1"],
        ["stability", "--beta", "1"],
        ["sweep", "--axis", "power", "--start", "-1", "--stop", "1", "--count", "3"],
        ["sweep", "--axis", "delta_norm", "--start", "-1", "--stop", "0", "--nth", "-1"],
        ["sweep", "--axis", "delta_norm", "--start", "-1", "--stop", "0", "--curves", "beta=0,1"],
        # stop - start overflows; argparse takes "-1e308" after a space for an option
        ["sweep", "--axis=delta_norm", "--start=-1e308", "--stop=1e308", "--count=3"],
    ],
    ids=[
        "point-power", "point-nth", "stability-power", "stability-beta",
        "sweep-power-axis", "sweep-nth", "sweep-beta-curves", "sweep-span",
    ],
)
def test_out_of_range_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--axis", "delta_norm", "--start", "-1.2", "--stop", "-0.8",
        "--count", "5", "--power-mw", "10", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("axis,curve,")
    assert len(lines) == 6


def test_sweep_with_curves_jsonl_stdout(capsys):
    code = main([
        "sweep", "--axis", "delta_norm", "--start", "-1.1", "--stop", "-0.9",
        "--count", "3", "--power-mw", "10", "--curves", "beta=0,0.3",
        "--format", "jsonl",
    ])
    assert code == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 6
    assert {row["curve"] for row in rows} == {0.0, 0.3}


def test_sweep_bad_curves_exits_2(capsys):
    assert main([
        "sweep", "--axis", "delta_norm", "--start", "-1", "--stop", "0",
        "--count", "3", "--curves", "beta:0,0.3",
    ]) == 2


@pytest.mark.parametrize(
    "curves, message",
    [("foo=0,1", "curve parameter must be one of"), ("beta=a,b", "invalid curve values")],
    ids=["unknown-parameter", "non-numeric"],
)
def test_sweep_unusable_curves_exits_2(curves, message, capsys):
    assert main(["sweep", *SWEEP_FLAGS, "--curves", curves]) == 2
    assert message in capsys.readouterr().err


def test_sweep_duplicate_axis_curves_exits_2(capsys):
    assert main([
        "sweep", "--axis", "beta", "--start", "0", "--stop", "0.5",
        "--count", "3", "--curves", "beta=0,0.3",
    ]) == 2


def test_figure_runs_and_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["figure", "--name", "fig2b", "--out", str(first)]) == 0
    assert main(["figure", "--name", "fig2b", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().strip().splitlines()) == 202


def test_figure_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["figure", "--name", "fig7", "--out", "/tmp/x.csv"])
    assert err.value.code == 2


def test_unwritable_output_exits_4(capsys):
    code = main([
        "sweep", "--axis", "delta_norm", "--start", "-1.1", "--stop", "-0.9",
        "--count", "2", "--out", "/nonexistent-dir/out.csv",
    ])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--power-mw", "nan"], "power"),
        (["--power-mw", "inf"], "power"),
        (["--delta-norm", "nan"], "delta_norm"),
        (["--nth", "inf"], "n_th"),
        (["--temp-k", "nan"], "temperature"),
        (["--beta=-inf"], "beta"),
    ],
)
def test_point_non_finite_input_exits_2(capsys, flags, field):
    assert main(["point", *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{field} must be finite" in err


def test_sweep_non_finite_curve_exits_2(capsys):
    assert main([
        "sweep", "--axis", "delta_norm", "--start", "-1", "--stop", "-0.5",
        "--count", "3", "--curves", "beta=0,nan",
    ]) == 2
    assert "curves must be finite" in capsys.readouterr().err


def test_linalg_error_exits_3(monkeypatch, capsys):
    import numpy as np

    import oment.cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(oment.cli, "evaluate_point", singular)
    assert main(["point", "--delta-norm", "-1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code",
    [(["figure", "--name", "fig1a"], 0), (["point", "--delta-norm", "-1"], 3)],
    ids=["figure", "point"],
)
def test_eta_route_disagreement_exits_3(command, code, monkeypatch, capsys):
    # disagreeing routes mark their own points error: the point exits 3 by
    # its status, and the figure writes every row
    import numpy as np

    from oment import gaussian

    def disagreeing(v):
        return np.full(v.shape[:-2], 10.0), np.ones(v.shape[:-2], dtype=bool)

    monkeypatch.setattr(gaussian, "_eta_cholesky", disagreeing)
    assert main(command) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    if command[0] == "point":
        assert parsed_lines(captured.out)["status"] == "error"
    else:
        statuses = [row.rsplit(",", 1)[1] for row in captured.out.splitlines()[1:]]
        assert len(statuses) == 201
        assert "error" in statuses and "ok" not in statuses


@pytest.mark.parametrize(
    "command", [["figure", "--name", "fig1b"], ["sweep", *SWEEP_FLAGS]], ids=["figure", "sweep"]
)
def test_workers_flag_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([*command, "--workers", "4"])
    assert err.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


@pytest.mark.parametrize("delta_norm, s1", [("-0.5", "inf"), ("0.5", "-inf")])
def test_overflowing_routh_numbers_stay_quiet(delta_norm, s1, capsys):
    # a power sweep to 1e250 W gave couplings that overflow s1 for a finite
    # steady state; such a power is out of range, and the sweep exits 2
    assert main([
        "sweep", "--axis", "power", "--start", "0", "--stop", "1e250", "--count", "5",
        "--delta-norm", delta_norm,
    ]) == 2
    assert capsys.readouterr().err == (
        "config error: power must be in [0.0, 1000.0], got 1e+250\n"
    )
    # a coupling that large still overflows s1, and s2 to the other sign, without a warning
    params = default_params()
    omega, gamma, kappa = params.omega_m, params.gamma_m, params.kappa
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        numbers = routh_conditions(omega, gamma, kappa, float(delta_norm) * omega, 1e160)
    assert numbers == (float(s1), -float(s1))


def test_overflowing_grid_point_is_local_error(capsys):
    # detunings whose squares overflow: the rows report it (s1 = inf, status
    # error) with no warning, so none may escape the sweep, and the in-range
    # row keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--axis", "delta_norm", "--start", "0", "--stop", "1e160",
                     "--count", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert main(
        ["sweep", "--axis", "delta_norm", "--start", "0", "--stop", "1", "--count", "2"]
    ) == 0
    alone = capsys.readouterr().out.splitlines()
    assert rows[:2] == alone[:2]
    s1_and_status = [(row.split(",")[4], row.rsplit(",", 1)[1]) for row in rows[2:]]
    assert s1_and_status == [("inf", "error")] * 2
    # a power that would overflow the steady state is out of range
    assert main(
        ["sweep", "--axis", "power", "--start", "0", "--stop", "1e300", "--count", "3"]
    ) == 2
    assert capsys.readouterr().err.startswith("config error: power must be in ")


def test_overflowing_curve_leaves_other_curve_unchanged(capsys):
    # a curve whose detuning squares to inf reads error; the other keeps its bits
    sweep = ["sweep", "--axis", "power", "--start", "1e-3", "--stop", "1e-2", "--count", "5"]
    assert main(sweep + ["--curves", "delta_norm=-1,1e160"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert main(sweep + ["--curves", "delta_norm=-1"]) == 0
    assert rows[:6] == capsys.readouterr().out.splitlines()
    assert all(row.endswith(",inf,inf,true,false,,,error") for row in rows[6:])
    assert len(rows) == 11
    # a power curve that would overflow the steady state is out of range
    assert main(sweep[:2] + ["delta_norm", *sweep[3:], "--curves", "power=0.01,1e300"]) == 2
    assert capsys.readouterr().err.startswith("config error: power must be in ")


def test_overflowing_point_exits_3(capsys):
    # delta_norm = 1e308 is finite, but the detuning 1e308 * omega_m is not:
    # the point reads error, and its drift matrix's abscissa NaN
    assert main(["point", "--delta-norm", "1e308"]) == 3
    values = parsed_lines(capsys.readouterr().out)
    assert values["status"] == "error"
    assert list(values) == ["status", "n_s", "g_eff", "spectral_abscissa"]
    assert main(["stability", "--delta-norm", "1e308"]) == 3
    assert parsed_lines(capsys.readouterr().out)["spectral_abscissa"] == "nan"
    # a power that would overflow the steady state is out of range
    assert main(["point", "--delta-norm", "-1", "--power-mw", "1e300"]) == 2
    assert capsys.readouterr().err.startswith("config error: power must be in ")


# 100 mW at beta = 0.99 and delta = 0: stable, but the 10x10 system is
# singular to working precision (condition 2.4e14, residual 1.7e-5)
ILL_CONDITIONED = ["--delta-norm", "0", "--beta", "0.99"]


def test_singular_grid_point_is_local_error(capsys):
    # stable points whose 10x10 system is singular to working precision: each
    # row reads error, the sweep goes on, and the power-0 row keeps its bits
    with pytest.warns(IllConditionedWarning, match="exceeds 1e[+]12$") as caught:
        assert main([
            "sweep", "--axis", "power", "--start", "0", "--stop", "0.1", "--count", "5",
            *ILL_CONDITIONED,
        ]) == 0
    assert len(caught) == 4
    rows = capsys.readouterr().out.splitlines()
    assert main([
        "sweep", "--axis", "power", "--start", "0", "--stop", "1e-3", "--count", "2",
        *ILL_CONDITIONED,
    ]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert rows[:2] == alone[:2]
    assert [row.rsplit(",", 1)[1] for row in rows[2:]] == ["error"] * 4


def test_singular_point_exits_3(capsys):
    with pytest.warns(IllConditionedWarning, match="2.386e[+]14 exceeds"):
        assert main(["point", "--power-mw", "100", *ILL_CONDITIONED]) == 3
    captured = capsys.readouterr()
    values = parsed_lines(captured.out)
    assert values["status"] == "error"
    # the point was solved, so its diagnostics say why it reads error
    assert list(values)[3:] == ["spectral_abscissa", "condition", "residual"]
    assert (values["condition"], values["residual"]) == (
        "238579092751154.53", "1.7056241729408941e-05"
    )
    assert "numerical failure" not in captured.err


# Inputs whose squares or quotients leave the float range on the way: a
# config line and flags each.  The detuning has no bound, so its squares
# overflow and the point exits by its status.  The others are out of range
# and exit 2: a kappa, g0 or omega_m of 1e160 Hz would overflow their
# squares, and a wavelength of 1e300 m (2*hbar*omega_laser) or an omega_m of
# 1e-170 Hz (omega_m^2) would underflow to 0.
BEYOND_THE_FLOAT_RANGE = {
    "delta-norm-1e160": ("", ["--delta-norm", "1e160"]),
    "kappa-1e160": ("kappa_hz = 1e160\n", []),
    "g0-1e160": ("g0_hz = 1e160\n", []),
    "omega-m-1e160": ("omega_m_hz = 1e160\n", []),
    "wavelength-1e300": ("wavelength_m = 1e300\n", []),
    "omega-m-1e-170": ("omega_m_hz = 1e-170\n", []),
}


@pytest.mark.parametrize(
    "case, command",
    [
        (case, command)
        for case, (_, flags) in BEYOND_THE_FLOAT_RANGE.items()
        for command in ("point", "stability", "sweep", "figure")
        if not (flags and command == "figure")  # a figure takes no detuning
    ],
)
def test_an_input_beyond_the_float_range_exits_by_its_status(case, command, tmp_path, capsys):
    # no numerical failure escapes: a point exits by its status, stability by
    # whether its verdict is decided, and every sweep and figure writes its
    # rows; an input out of range exits 2, named with its file, line and key
    text, flags = BEYOND_THE_FLOAT_RANGE[case]
    config = tmp_path / "run.cfg"
    config.write_text(text)
    extra = {
        "sweep": ["--axis", "n_th", "--start", "0", "--stop", "100", "--count", "2"],
        "figure": ["--name", "fig2b"],
    }.get(command, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        code = main([command, "--config", str(config), *extra, *flags])
    captured = capsys.readouterr()
    if text:
        key = text.partition(" = ")[0]
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"config error: {config}:1: {key} must be in [")
        return
    assert captured.err == ""
    if command == "point":
        assert code == (0 if parsed_lines(captured.out)["status"] == "ok" else 3)
    elif command == "stability":
        assert code == (3 if parsed_lines(captured.out)["spectral_abscissa"] == "nan" else 0)
    else:
        assert code == 0
        assert len(captured.out.splitlines()) == (2 if command == "sweep" else 201) + 1


def test_coupling_thresholds_where_kappa_squared_overflows(tmp_path, capsys):
    # kappa^2 would overflow at kappa_hz = 1e160, which is out of range
    config = tmp_path / "run.cfg"
    config.write_text("kappa_hz = 1e160\n")
    assert main(["stability", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}:1: kappa_hz must be in ")
    # at the widest cavity in range, s1, s2 and both thresholds are finite and exact
    config.write_text("kappa_hz = 1e15\n")
    assert main(["stability", "--config", str(config)]) == 0
    lines = parsed_lines(capsys.readouterr().out)
    assert math.isfinite(float(lines["s1"])) and math.isfinite(float(lines["s2"]))
    params = replace(default_params(), kappa=2.0 * math.pi * 1e15)
    for name, delta in (("blue", -params.omega_m), ("red", params.omega_m)):
        exact = threshold_in_fractions(params.omega_m, params.gamma_m, params.kappa, delta)
        assert float(lines[f"g_threshold_{name}"]) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize(
    "kappa_hz, name", [(None, "red"), (1e15, "blue")], ids=["red", "blue-wide-kappa"]
)
def test_coupling_threshold_where_omega_m_squared_underflows(tmp_path, capsys, kappa_hz, name):
    # omega_m^2 would underflow to 0 at omega_m_hz = 1e-170, which is out of range
    config = tmp_path / "run.cfg"
    wide = "" if kappa_hz is None else f"kappa_hz = {kappa_hz}\n"
    config.write_text("omega_m_hz = 1e-170\n" + wide)
    assert main(["stability", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}:1: omega_m_hz must be in ")
    # the slowest mirror in range, alone or in the widest cavity: the threshold is exact
    config.write_text("omega_m_hz = 0.1\n" + wide)
    assert main(["stability", "--config", str(config)]) == 0
    lines = parsed_lines(capsys.readouterr().out)
    params = default_params()
    omega = 2.0 * math.pi * 0.1
    kappa = params.kappa if kappa_hz is None else 2.0 * math.pi * kappa_hz
    delta = omega if name == "red" else -omega
    exact = threshold_in_fractions(omega, params.gamma_m, kappa, delta)
    assert float(lines[f"g_threshold_{name}"]) == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("hz", [1e-100, 1e-200])
def test_coupling_thresholds_at_tiny_rates(tmp_path, capsys, hz):
    # every rate so small that s1 and the red denominator underflow: out of
    # range, and omega_m_hz, on the first line, is named
    config = tmp_path / "run.cfg"
    config.write_text(f"omega_m_hz = {hz}\ngamma_m_hz = {hz}\nkappa_hz = {hz}\n")
    assert main(["stability", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {config}:1: omega_m_hz must be in ")
    # the smallest rates in range: both thresholds exact
    config.write_text("omega_m_hz = 0.1\ngamma_m_hz = 1e-9\nkappa_hz = 0.1\n")
    assert main(["stability", "--config", str(config)]) == 0
    lines = parsed_lines(capsys.readouterr().out)
    omega, gamma, kappa = (2.0 * math.pi * x for x in (0.1, 1e-9, 0.1))
    for name, delta in (("blue", -omega), ("red", omega)):
        exact = threshold_in_fractions(omega, gamma, kappa, delta)
        assert float(lines[f"g_threshold_{name}"]) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert main(["point"]) == 0
    assert len(built) == 5  # the parser and its four subcommands
    assert main(["figure", "--name", "fig2b", "--out", str(tmp_path / "fig2b.csv")]) == 0
    assert main(["sweep", *SWEEP_FLAGS]) == 0
    assert len(built) == 5


def test_reused_parser_carries_no_value_between_calls(capsys):
    assert main(["point"]) == 0
    default = capsys.readouterr().out
    assert main(["point", "--beta", "0.3"]) == 0
    assert capsys.readouterr().out != default
    assert main(["point"]) == 0
    assert capsys.readouterr().out == default


def test_parser_error_leaves_the_next_call_working(capsys):
    assert main(["point"]) == 0
    default = capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["point", "--beta", "x"])
    assert err.value.code == 2
    assert "invalid float value" in capsys.readouterr().err
    assert main(["point"]) == 0
    assert capsys.readouterr().out == default


def test_nth_with_temperature_is_rejected_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["point", "--nth", "1", "--temp-k", "0.1"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert main(["point", "--nth", "1"]) == 0
        capsys.readouterr()
