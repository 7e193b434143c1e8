import json
import math
import warnings

import pytest

from oment.cli import main


def parsed_lines(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


SWEEP_FLAGS = ["--axis", "delta_norm", "--start", "-1.1", "--stop", "-0.9", "--count", "2"]


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
    assert "log_negativity" not in values


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


def test_config_pi_convention_changes_physics(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("kappa_hz = 529e6\nkappa_convention = pi\n")
    assert main(["stability", "--config", str(config), "--delta-norm", "-1"]) == 0
    values = parsed_lines(capsys.readouterr().out)
    # halving kappa drops the red-sideband threshold well below the default
    assert float(values["g_threshold_red"]) == pytest.approx(1.912e7, rel=0.01)


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("mystery = 12\n")
    assert main(["point", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_beta_exits_2(capsys):
    assert main(["point", "--beta", "1.2"]) == 2


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
    "command", [["figure", "--name", "fig1b"], ["sweep", *SWEEP_FLAGS]], ids=["figure", "sweep"]
)
def test_workers_flag_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([*command, "--workers", "4"])
    assert err.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


@pytest.mark.parametrize("delta_norm, s1", [("-0.5", "inf"), ("0.5", "-inf")])
def test_overflowing_routh_numbers_stay_quiet(delta_norm, s1, capsys):
    # s1 overflows for a finite steady state; the row says so without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "sweep", "--axis", "power", "--start", "0", "--stop", "1e250", "--count", "5",
            "--delta-norm", delta_norm,
        ]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [row.split(",") for row in captured.out.splitlines()[2:]]
    assert len(rows) == 4
    assert all(row[4] == s1 and row[-1] == "unstable" for row in rows)


def test_overflowing_grid_point_is_local_error(capsys):
    # the row status reports the overflow: no warning, so none may escape the sweep
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "sweep", "--axis", "power", "--start", "0", "--stop", "1e300", "--count", "3",
            "--delta-norm", "1",
        ]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert main([
        "sweep", "--axis", "power", "--start", "0", "--stop", "1e-3", "--count", "2",
        "--delta-norm", "1",
    ]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert rows[:2] == alone[:2]
    assert [row.rsplit(",", 1)[1] for row in rows[2:]] == ["error", "error"]


def test_overflowing_curve_leaves_other_curve_unchanged(capsys):
    sweep = ["sweep", "--axis", "delta_norm", "--start", "-1.2", "--stop", "-0.8", "--count", "5"]
    assert main(sweep + ["--curves", "power=0.01,1e300"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert main(sweep + ["--curves", "power=0.01"]) == 0
    assert rows[:6] == capsys.readouterr().out.splitlines()
    assert all(row.endswith(",false,false,,,error") for row in rows[6:])
    assert len(rows) == 11


def test_overflowing_point_exits_3(capsys):
    assert main(["point", "--delta-norm", "-1", "--power-mw", "1e300"]) == 3
    assert parsed_lines(capsys.readouterr().out)["status"] == "error"
    assert main(["stability", "--delta-norm", "-1", "--power-mw", "1e300"]) == 3
    assert parsed_lines(capsys.readouterr().out)["spectral_abscissa"] == "nan"
