"""End-to-end acceptance gates for the full pipeline.

Each test prints one PASS/FAIL line for its gate.  Gates with several clauses
evaluate all clauses before asserting, so the printed line shows exactly
which clauses fell short.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from oment import (
    SweepSpec,
    default_params,
    diffusion_matrix,
    drift_matrix,
    emit,
    evaluate_point,
    figure_preset,
    nth_entanglement_threshold,
    residual,
    routh_conditions,
    run_sweep,
    solve_stack,
    spectral_abscissa,
    steady_states,
    thermal_occupation,
)
from references import (
    eta_spectrum,
    gate_by_eigvals,
    lyapunov_oracle,
    records_point_by_point,
    report_of,
    two_mode_squeezed_cm,
)


def _report(name, clauses):
    failed = [label for label, ok in clauses if not ok]
    if failed:
        print(f"ACCEPTANCE {name}: FAIL ({', '.join(failed)})")
    else:
        print(f"ACCEPTANCE {name}: PASS")
    assert not failed, f"{name}: failed clauses: {failed}"


@pytest.fixture(scope="module")
def params():
    return default_params()


@pytest.fixture(scope="module")
def fig1a_sweep():
    return run_sweep(figure_preset("fig1a"))


@pytest.fixture(scope="module")
def fig2a_curves(params):
    spec = SweepSpec(
        axis="delta_norm",
        start=-2.0,
        stop=0.0,
        count=201,
        fixed=replace(params, power=10e-3),
        curves=(0.0, 0.3, 0.6),
    )
    result = run_sweep(spec)
    grid = spec.grid()
    curves = {beta: result.log_negativity[result.curve == beta] for beta in (0.0, 0.3, 0.6)}
    return grid, curves


def bisect_zero(f, lo, hi, iterations=200):
    assert f(lo) > 0 > f(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_blue_sideband_stability_threshold(params):
    """s2 = 0 crossing at delta = -omega_m sits at 2.26e10 1/s within 2%."""
    crossing = bisect_zero(
        lambda g: routh_conditions(
            params.omega_m, params.gamma_m, params.kappa, -params.omega_m, g
        )[1],
        0.0,
        1e12,
    )
    within = abs(crossing / 2.26e10 - 1.0) <= 0.02
    _report(
        f"blue-sideband-threshold (G_cross={crossing:.4e}, target 2.26e10 +-2%)",
        [("crossing-within-2%", within)],
    )


def test_red_sideband_stability_threshold(params):
    """s1 = 0 crossing at delta = +omega_m sits at 2.89e7 1/s within 10%."""
    crossing = bisect_zero(
        lambda g: routh_conditions(
            params.omega_m, params.gamma_m, params.kappa, params.omega_m, g
        )[0],
        0.0,
        1e12,
    )
    within = abs(crossing / 2.89e7 - 1.0) <= 0.10
    _report(
        f"red-sideband-threshold (G_cross={crossing:.4e}, target 2.89e7 +-10%)",
        [("crossing-within-10%", within)],
    )


def test_routh_spectral_agreement():
    """Both stability verdicts agree on 1000 random non-marginal points (beta = 0)."""
    rng = np.random.default_rng(20240913)
    agreements = 0
    checked = 0
    while checked < 1000:
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
        checked += 1
        routh = s1 > 0 and s2 > 0
        spectral = spectral_abscissa(drift_matrix(omega, gamma, kappa, delta, g, 0.0)) < 0
        agreements += routh == spectral
    _report(
        f"routh-spectral-agreement ({agreements}/{checked})",
        [("agree-100%", agreements == checked)],
    )


def test_lyapunov_oracle_equivalence(fig1a_sweep, params):
    """Solver and quadrature oracle agree to 1e-6; sweep residuals < 1e-8."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((4, 4))
        a = g - (np.max(np.linalg.eigvals(g).real) + rng.uniform(0.4, 1.2)) * np.eye(4)
        b = rng.standard_normal((4, 4))
        d = b @ b.T
        direct = solve_stack(a, d)[0]
        quadrature = lyapunov_oracle(a, d, tol=1e-7).v
        worst = max(worst, np.linalg.norm(direct - quadrature) / np.linalg.norm(direct))

    spec = figure_preset("fig1a")
    grid = spec.grid()
    worst_residual = 0.0
    fixed = spec.fixed
    n_th = thermal_occupation(fixed.temperature, fixed.omega_m)
    diffusion = diffusion_matrix(fixed.gamma_m, fixed.kappa, n_th)
    for status, delta_norm in zip(fig1a_sweep.status, grid):
        if status != "ok":
            continue
        state = steady_states(delta_norm * fixed.omega_m, fixed.power, fixed.beta, fixed)
        drift = drift_matrix(
            fixed.omega_m, fixed.gamma_m, fixed.kappa, state.delta_eff, state.g_eff, fixed.beta
        )
        v = solve_stack(drift, diffusion)[0]
        worst_residual = max(worst_residual, residual(drift, v, diffusion))

    _report(
        f"lyapunov-oracle-equivalence (worst rel {worst:.2e}, worst residual {worst_residual:.2e})",
        [
            ("oracle-agreement-1e-6", worst < 1e-6),
            ("sweep-residuals-1e-8", worst_residual < 1e-8),
        ],
    )


def test_closed_form_entanglement():
    """Squeezed-state log-negativity equals 2r to 1e-9; vacuum exactly zero;
    both symplectic-eigenvalue routes agree to 1e-9 everywhere."""
    clauses = []
    for r in (0.1, 0.5, 1.0):
        value = report_of(two_mode_squeezed_cm(r)).log_negativity
        clauses.append((f"E_N(r={r})=2r", abs(value - 2.0 * r) <= 1e-9))
    vacuum = report_of(0.5 * np.eye(4)).log_negativity
    clauses.append(("vacuum-exact-zero", vacuum == 0.0))
    rng = np.random.default_rng(5150)
    agree = True
    for _ in range(200):
        r = rng.uniform(0.0, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.zeros((4, 4))
        rot[:2, :2] = [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        rot[2:, 2:] = np.eye(2)
        v = rot @ two_mode_squeezed_cm(r) @ rot.T
        formula = report_of(v).eta
        agree &= abs(formula - eta_spectrum(v)) <= 1e-9 * max(formula, 1e-300)
    clauses.append(("dual-route-agreement-1e-9", agree))
    _report("closed-form-entanglement", clauses)


def test_fig1a_shape(fig1a_sweep):
    """Low-power linear regime: entanglement on a connected detuning interval
    containing -1, zero outside it, with the maximum within 0.15 of -1."""
    grid = figure_preset("fig1a").grid()
    values = fig1a_sweep.log_negativity
    assert (fig1a_sweep.status == "ok").all()
    positive = np.where(values > 0)[0]
    connected = bool(np.all(np.diff(positive) == 1)) if len(positive) else False
    contains_minus_one = values[int(np.argmin(np.abs(grid + 1.0)))] > 0
    argmax = grid[int(np.argmax(values))]
    argmax_near = abs(argmax + 1.0) <= 0.15
    closes_right = len(positive) > 0 and positive[-1] < len(grid) - 1
    closes_left = len(positive) > 0 and positive[0] > 0
    _report(
        f"fig1a-shape (argmax={argmax:+.3f}, support=[{grid[positive[0]]:+.2f},"
        f"{grid[positive[-1]]:+.2f}], E({grid[0]:+.1f})={values[0]:.2e})",
        [
            ("positive-region-connected", connected),
            ("contains-delta=-1", contains_minus_one),
            ("argmax-within-0.15-of-minus1", argmax_near),
            ("zero-at-right-edge", closes_right),
            ("zero-at-left-edge", closes_left),
        ],
    )


def test_fig2a_shift_and_enhancement(fig2a_curves):
    """High power with nonlinearity curves: the maximum grows with beta and its
    location moves monotonically toward -0.5, landing in [-0.7, -0.3];
    the beta = 0.6 curve dominates pointwise on [-1.1, -0.16]."""
    grid, curves = fig2a_curves
    step = grid[1] - grid[0]
    betas = (0.0, 0.3, 0.6)
    maxima = [float(np.nanmax(curves[b])) for b in betas]
    argmaxes = [float(grid[int(np.nanargmax(curves[b]))]) for b in betas]
    max_nondecreasing = all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))
    monotone_shift = all(b <= a + step + 1e-12 for a, b in zip(argmaxes, argmaxes[1:]))
    final_in_window = -0.7 <= argmaxes[-1] <= -0.3
    initial_near_minus_one = abs(argmaxes[0] + 1.0) <= 0.15

    window = (grid >= -1.1) & (grid <= -0.16 + 1e-12)
    both_ok = ~np.isnan(curves[0.0]) & ~np.isnan(curves[0.6]) & window
    dominance = bool(np.all(curves[0.6][both_ok] >= curves[0.0][both_ok] - 1e-12))
    n_fail = int(np.sum(curves[0.6][both_ok] < curves[0.0][both_ok] - 1e-12))

    max_text = ", ".join(f"{m:.4f}" for m in maxima)
    argmax_text = ", ".join(f"{a:+.2f}" for a in argmaxes)
    _report(
        f"fig2a-shift-enhancement (max=[{max_text}], argmax=[{argmax_text}], "
        f"dominance-violations={n_fail}/{int(both_ok.sum())})",
        [
            ("max-nondecreasing-in-beta", max_nondecreasing),
            ("argmax-shift-monotone", monotone_shift),
            ("final-argmax-in-[-0.7,-0.3]", final_in_window),
            ("initial-argmax-near-minus1", initial_near_minus_one),
            ("pointwise-dominance-on-[-1.1,-0.16]", dominance),
        ],
    )


def test_fig2b_monotonicity():
    """At delta = -0.5 and 10 mW the log-negativity never decreases with beta."""
    result = run_sweep(figure_preset("fig2b"))
    all_ok = bool((result.status == "ok").all())
    values = result.log_negativity.tolist()
    monotone = all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
    _report(
        f"fig2b-monotonicity (E[0]={values[0]:.4f}, E[0.6]={values[-1]:.4f})",
        [("all-points-stable", all_ok), ("nondecreasing-in-beta", monotone)],
    )


def test_fig3_thermal_thresholds(params):
    """Entanglement decays monotonically with bath occupation; the linear curve
    survives to n_th = 600 +-40%, the beta = 0.6 curve to 2500 +-40%, with at
    least a factor-2 ordering between the two thresholds."""
    p10 = replace(params, power=10e-3)
    result = run_sweep(figure_preset("fig3"))
    clauses = []
    for beta, delta_norm in ((0.0, -1.0), (0.6, -0.5)):
        values = result.log_negativity[(result.curve == beta) & (result.status == "ok")].tolist()
        monotone = all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        clauses.append((f"monotone-nonincreasing-beta={beta}", monotone))
    linear = nth_entanglement_threshold(replace(p10, beta=0.0), -1.0)
    nonlinear = nth_entanglement_threshold(replace(p10, beta=0.6), -0.5)
    clauses.append(("linear-threshold-600+-40%", 360.0 <= linear <= 840.0))
    clauses.append(("nonlinear-threshold-2500+-40%", 1500.0 <= nonlinear <= 3500.0))
    clauses.append(("ordering-at-least-2x", nonlinear > 2.0 * linear))
    _report(
        f"fig3-thermal-thresholds (linear={linear:.0f}, nonlinear={nonlinear:.0f})", clauses
    )


def test_determinism_across_runs_and_batch_split():
    """fig2a emits byte-identical output across repeated runs, and evaluating
    the grid as one stack gives the same bytes as evaluating it point by point."""
    spec = figure_preset("fig2a")
    first = emit(run_sweep(spec))
    second = emit(run_sweep(spec))
    split = emit(records_point_by_point(spec))
    _report(
        "determinism (fig2a, whole grid vs point by point)",
        [
            ("byte-identical-across-runs", first == second),
            ("byte-identical-across-batch-split", first == split),
        ],
    )


def test_marginal_points_are_excluded(params):
    """Marginal operating points are flagged, not solved: the abscissa window
    (-1e-6*kappa, 0) maps to status 'marginal'."""
    # an undriven mirror with beta = 1 - 1e-12 relaxes at about -2.3e3 rad/s,
    # inside the window (-3.3e3, 0); the eigvals oracle agrees
    soft = replace(params, power=0.0, beta=1.0 - 1e-12)
    nearly_marginal = evaluate_point(soft, -0.5)
    oracle = gate_by_eigvals(soft, nearly_marginal.steady)
    point = evaluate_point(replace(params, power=10e-3), -0.2)
    _report(
        "marginal-exclusion",
        [
            ("marginal-window-flagged", nearly_marginal.status == "marginal" and oracle == 2),
            ("marginal-not-solved", nearly_marginal.covariance is None),
            ("unstable-points-reported", point.status == "unstable"),
        ],
    )
