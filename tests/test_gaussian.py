import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oment import CM_SCALE, eta_stack, gaussian, sigma
from references import (
    MATRIX_LAYOUTS,
    STACK_SHAPES,
    eta_exact,
    eta_spectrum,
    matrix_stack,
    record_gufunc_calls,
    report_of,
    sigma_three_dets,
    two_mode_squeezed_cm,
)

VACUUM = 0.5 * np.eye(4)


def rotation(theta, phi):
    def single(angle):
        return np.array(
            [[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]]
        )

    out = np.zeros((4, 4))
    out[:2, :2] = single(theta)
    out[2:, 2:] = single(phi)
    return out


def test_sigma_vacuum():
    assert sigma(VACUUM) == pytest.approx(0.5, abs=1e-15)


def test_sigma_identity():
    assert sigma(np.eye(4)) == pytest.approx(2.0, abs=1e-14)


def test_sigma_two_mode_squeezed():
    v = two_mode_squeezed_cm(0.5)
    assert sigma(v) == pytest.approx(math.cosh(2.0) / 2.0, rel=1e-13)


def test_vacuum_unentangled():
    eta = report_of(VACUUM).eta
    assert eta == pytest.approx(0.5, abs=1e-15)
    assert eta_exact(VACUUM) == 0.5
    report = report_of(VACUUM)
    assert report.log_negativity == 0.0
    assert not report.entangled


def test_two_mode_squeezed_closed_forms():
    for r in (0.1, 0.5, 1.0):
        v = two_mode_squeezed_cm(r)
        eta = report_of(v).eta
        assert eta == pytest.approx(math.exp(-2 * r) / 2.0, rel=1e-12)
        # the exact eta of the rounded entries: 8.9e-16 off exp(-2r)/2 at r = 1
        assert eta_exact(v) == pytest.approx(math.exp(-2 * r) / 2.0, rel=1e-14)
        report = report_of(v)
        assert report.log_negativity == pytest.approx(2.0 * r, abs=1e-12)
        assert report.entangled


def test_a_single_matrix_reads_python_scalars_with_the_bits_of_its_row():
    stack = np.array([two_mode_squeezed_cm(0.4), VACUUM, -np.eye(4), np.full((4, 4), np.nan)])
    stacked = eta_stack(stack)
    etas = [math.nan, 0.0, -0.0, 1e-300, 0.25, 0.5, 3.0, math.inf]
    with np.errstate(all="ignore"):
        log_negs = gaussian.log_negativity_of(np.array(etas))
        for k, matrix in enumerate(stack):
            alone = eta_stack(matrix)
            assert tuple(map(type, alone)) == (float, float, float, bool)
            assert [np.asarray(x).tobytes() for x in alone] == [x[k].tobytes() for x in stacked]
            assert type(sigma(matrix)) is float
        for eta, row in zip(etas, log_negs):
            alone = gaussian.log_negativity_of(eta)
            assert type(alone) is float and np.float64(alone).tobytes() == row.tobytes()


def test_two_mode_squeezed_half_value():
    eta = report_of(two_mode_squeezed_cm(0.5)).eta
    assert eta == pytest.approx(0.18393972058572117, rel=1e-12)


def test_product_states_separable():
    for n in (0.0, 0.5, 3.0, 100.0):
        mech = (2 * n + 1) / 2.0 * np.eye(2)
        v = np.block([[mech, np.zeros((2, 2))], [np.zeros((2, 2)), 0.5 * np.eye(2)]])
        report = report_of(v)
        assert 2.0 * report.eta >= 1.0 - 1e-12
        assert report.log_negativity == 0.0
        assert not report.entangled


def test_dual_route_agreement():
    rng = np.random.default_rng(77)
    matrices = [VACUUM, np.eye(4)] + [two_mode_squeezed_cm(r) for r in (0.05, 0.3, 0.8, 1.5)]
    for r in (0.1, 0.6):
        base = two_mode_squeezed_cm(r)
        for _ in range(20):
            rot = rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            matrices.append(rot @ base @ rot.T)
    for v in matrices:
        formula = report_of(v).eta
        spectrum = eta_spectrum(v)
        assert abs(formula - spectrum) <= 1e-9 * max(formula, 1e-300)


def test_local_rotation_invariance():
    rng = np.random.default_rng(123)
    base = two_mode_squeezed_cm(0.7)
    ref = report_of(base)
    for _ in range(25):
        rot = rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        rotated = rot @ base @ rot.T
        report = report_of(rotated)
        assert sigma(rotated) == pytest.approx(ref.sigma_v, rel=1e-10)
        assert report.det_v == pytest.approx(ref.det_v, rel=1e-10)
        assert report.eta == pytest.approx(ref.eta, rel=1e-10)
        assert report.log_negativity == pytest.approx(ref.log_negativity, abs=1e-10)


def local_symplectic(theta, squeeze):
    """A single-mode squeezer followed by a rotation: a symplectic 2x2 map."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]]) @ np.diag([math.exp(-squeeze), math.exp(squeeze)])


_ANGLES = st.floats(0.0, 2 * math.pi)
_SQUEEZES = st.floats(-1.0, 1.0)


@given(
    r=st.floats(0.01, 2.0),
    theta=_ANGLES,
    phi=_ANGLES,
    squeeze_1=_SQUEEZES,
    squeeze_2=_SQUEEZES,
)
def test_local_symplectic_maps_keep_two_mode_squeezed_log_negativity(
    r, theta, phi, squeeze_1, squeeze_2
):
    s = np.zeros((4, 4))
    s[:2, :2] = local_symplectic(theta, squeeze_1)
    s[2:, 2:] = local_symplectic(phi, squeeze_2)
    v = s @ two_mode_squeezed_cm(r) @ s.T
    assert report_of(v).log_negativity == pytest.approx(2.0 * r, abs=1e-9)


def test_threshold_behavior_of_log_negativity():
    # scaled vacua move f*eta through 1: zero above, strictly decreasing below.
    # their symplectic spectrum is degenerate, so the closed-form eta only
    # carries O(sqrt(eps)) accuracy here
    scales = np.linspace(0.2, 2.0, 37)
    values = [report_of(s * VACUUM).log_negativity for s in scales]
    for s, value in zip(scales, values):
        if s >= 1.0:
            assert value == pytest.approx(0.0, abs=1e-7)
        else:
            assert value == pytest.approx(-math.log(s), abs=1e-7)
    below = [v for s, v in zip(scales, values) if s < 1.0]
    assert all(a > b for a, b in zip(below, below[1:]))
    # continuity at the threshold
    assert report_of((1 - 1e-12) * VACUUM).log_negativity < 1e-7


def test_entangled_iff_f_eta_below_one():
    for r in (0.0, 0.1, 0.5):
        report = report_of(two_mode_squeezed_cm(r))
        assert report.entangled == (2.0 * report.eta < 1.0)
        assert report.entangled == (report.log_negativity > 0.0)


def test_negative_radicand_is_not_physical():
    c = math.sqrt(3.0)
    v = np.array(
        [
            [1.0, 0.0, c, 0.0],
            [0.0, 1.0, 0.0, c],
            [c, 0.0, 2.0, 0.0],
            [0.0, c, 0.0, 2.0],
        ]
    )
    sig, det_v, _, physical = eta_stack(v)
    assert sig * sig - 4.0 * det_v < -1e-10 * max(1.0, sig * sig)
    assert not physical


def test_negative_definite_matrix_is_not_physical():
    # sigma = 2 and det V = 1: the radicand is exactly 0, so only the
    # missing Cholesky factor shows that -I is no covariance matrix
    sig, det_v, _, physical = eta_stack(-np.eye(4))
    assert sig * sig - 4.0 * det_v == 0.0
    assert not physical


def test_non_positive_definite_matrix_leaves_the_stack_alone():
    good = [two_mode_squeezed_cm(0.4), 0.7 * np.eye(4)]
    sig, det_v, eta, physical = eta_stack(np.array([good[0], -np.eye(4), good[1]]))
    assert physical.tolist() == [True, False, True]
    for index, matrix in zip((0, 2), good):
        alone = eta_stack(matrix[None])
        for stacked, single in zip((sig, det_v, eta), alone[:3]):
            assert stacked[index].tobytes() == single[0].tobytes()


def test_nested_list_reads_as_its_array():
    stack = np.array([two_mode_squeezed_cm(0.4), -np.eye(4), 0.7 * np.eye(4)])
    from_list = eta_stack(stack.tolist())
    for listed, arrayed in zip(from_list, eta_stack(stack)):
        assert listed.tobytes() == arrayed.tobytes()
    assert from_list[3].tolist() == [True, False, True]


def test_non_finite_matrix_is_not_physical():
    for value in (np.nan, np.inf):
        v = 0.5 * np.eye(4)
        v[2, 2] = value
        _, _, _, physical = eta_stack(v)
        assert not physical


def test_non_finite_and_overflowing_matrices_are_quiet():
    identity = np.eye(4)
    stack = np.stack([identity, np.full((4, 4), np.nan), 1e200 * identity])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig, det_v, eta, physical = eta_stack(stack)
        for matrix in stack[1:]:
            assert not eta_stack(matrix)[3]
    assert physical.tolist() == [True, False, False]
    alone = eta_stack(identity[None])
    for stacked, single in zip((sig, det_v, eta), alone[:3]):
        assert stacked[0].tobytes() == single[0].tobytes()


@pytest.mark.parametrize(
    "huge, radicand",
    [
        # finite sigma = 2e200, but det V = 1e400 overflows: inf - inf
        (1e100 * np.eye(4), "nan"),
        # sigma = 1e160 squares to inf while det V = 1: the closed form reads
        # eta = 0, and the Cholesky route gives NaN
        (np.diag([1e80, 1e80, 1e-80, 1e-80]), "inf"),
    ],
)
def test_overflowing_radicand_is_not_physical(huge, radicand):
    # positive definite with a finite Cholesky factor, so only the radicand
    # sigma^2 - 4 det V shows that the closed form has no value here
    identity = np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig, det_v, eta, physical = eta_stack(np.stack([identity, huge]))
        assert not eta_stack(huge)[3]
    with np.errstate(over="ignore", invalid="ignore"):
        assert str(sig[1] * sig[1] - 4.0 * det_v[1]) == radicand
    assert physical.tolist() == [True, False]
    alone = eta_stack(identity)  # Python floats and a bool: numpy stores them with these bytes
    for stacked, single in zip((sig, det_v, eta, physical), alone):
        assert stacked[0].tobytes() == np.asarray(single).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(STACK_SHAPES),
    layout=st.sampled_from(MATRIX_LAYOUTS),
)
def test_sigma_matches_three_dets(seed, shape, layout):
    v = matrix_stack(seed, shape, layout)
    assert np.array_equal(sigma(v), sigma_three_dets(v))


def test_sigma_takes_one_det_per_stack(monkeypatch):
    calls = record_gufunc_calls(monkeypatch, ["det"])
    sigma(np.eye(4))
    sigma(np.ones((5, 2, 4, 4)))
    assert [args[0].shape for args, _ in calls["det"]] == [(3, 2, 2), (5, 2, 3, 2, 2)]


def _tilted_sigma(v):
    """sigma with the sign of det C flipped: the invariant of V, not of V~."""
    det = np.linalg.det
    return det(v[..., :2, :2]) + det(v[..., 2:, 2:]) + 2.0 * det(v[..., :2, 2:])


def _nan_route(v):
    """A Cholesky route of eta that calls every matrix positive definite and reads NaN."""
    return np.full(v.shape[:-2], np.nan), np.ones(v.shape[:-2], dtype=bool)


@pytest.mark.parametrize(
    "name, mutant",
    [("_sigma", _tilted_sigma), ("_FLIP", np.ones((4, 4))), ("_eta_cholesky", _nan_route)],
    ids=["det-C", "flip", "nan-route"],
)
def test_route_cross_check_catches_mutants(monkeypatch, name, mutant):
    # the first two compute eta of V instead of its partial transpose on one
    # route only, and an entangled state tells the two apart; a route that
    # breaks down and reads NaN is no agreement either
    v = two_mode_squeezed_cm(0.5)
    assert eta_stack(v)[3]
    monkeypatch.setattr(gaussian, name, mutant)
    assert not eta_stack(v)[3]


@given(
    r=st.floats(0.0, 2.0),
    n=st.floats(0.0, 100.0),
    theta=_ANGLES,
    phi=_ANGLES,
    squeeze_1=_SQUEEZES,
    squeeze_2=_SQUEEZES,
)
def test_library_eta_matches_the_eigvals_oracle(r, n, theta, phi, squeeze_1, squeeze_2):
    # thermal two-mode squeezed states under local rotations and squeezers
    s = np.zeros((4, 4))
    s[:2, :2] = local_symplectic(theta, squeeze_1)
    s[2:, 2:] = local_symplectic(phi, squeeze_2)
    v = (2.0 * n + 1.0) * (s @ two_mode_squeezed_cm(r) @ s.T)
    sig, _, eta, physical = eta_stack(v)
    assert physical
    # the agreement tolerance of eta_stack, conditioning term included
    tolerance = gaussian._ROUTE_AGREEMENT_TOL * eta + math.sqrt(np.finfo(float).eps) * sig / eta
    assert abs(eta - eta_spectrum(v)) <= tolerance


def test_cm_scale_composition():
    # Langevin-convention vacuum (variance 1) rescales to the standard vacuum
    raw = np.eye(4)
    report = report_of(CM_SCALE * raw)
    assert report.eta == pytest.approx(0.5, abs=1e-15)
    assert report.log_negativity == 0.0


def test_raw_composition_reads_eta_over_cm_scale():
    # E_N of the raw CM is E_N of the rescaled one's eta divided by CM_SCALE
    raw = 3.0 * two_mode_squeezed_cm(0.9)  # arbitrary Langevin-scale CM
    rescaled = report_of(CM_SCALE * raw)
    literal = report_of(raw)
    from_rescaled = float(gaussian.log_negativity_of(rescaled.eta / CM_SCALE))
    assert from_rescaled == pytest.approx(literal.log_negativity, abs=1e-12)


def test_the_two_entanglement_rules_agree_at_the_edges():
    # f*eta < 1 (entanglement_report, the threshold's checks) and E_N > 0
    # (log_negativity_of, the sweep's column): f*eta at 1 - ulp, 1, 1 + ulp,
    # 0, a subnormal and NaN
    targets = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 0.0, 1e-323, math.nan]
    eta = np.array(targets) / gaussian.ETA_FACTOR
    f_eta = gaussian.ETA_FACTOR * eta
    assert f_eta.tobytes() == np.array(targets).tobytes()  # each edge is hit exactly
    by_factor = f_eta < 1.0
    assert by_factor.tolist() == [True, False, False, True, True, False]
    with np.errstate(divide="ignore"):  # log(0), as under the pipeline's error state
        assert (gaussian.log_negativity_of(eta) > 0.0).tolist() == by_factor.tolist()
        reports = [gaussian.entanglement_report(1.0, 1.0, value) for value in eta.tolist()]
    assert [report.entangled for report in reports] == by_factor.tolist()
