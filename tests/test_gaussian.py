import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oment import (
    CM_SCALE,
    NegativeRadicandError,
    eta_spectrum,
    log_negativity,
    sigma,
)
from references import two_mode_squeezed_cm

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
    eta = log_negativity(VACUUM).eta
    assert eta == pytest.approx(0.5, abs=1e-15)
    report = log_negativity(VACUUM, f=2.0)
    assert report.log_negativity == 0.0
    assert not report.entangled


def test_two_mode_squeezed_closed_forms():
    for r in (0.1, 0.5, 1.0):
        v = two_mode_squeezed_cm(r)
        eta = log_negativity(v).eta
        assert eta == pytest.approx(math.exp(-2 * r) / 2.0, rel=1e-12)
        report = log_negativity(v, f=2.0)
        assert report.log_negativity == pytest.approx(2.0 * r, abs=1e-12)
        assert report.entangled


def test_two_mode_squeezed_half_value():
    eta = log_negativity(two_mode_squeezed_cm(0.5)).eta
    assert eta == pytest.approx(0.18393972058572117, rel=1e-12)


def test_product_states_separable():
    for n in (0.0, 0.5, 3.0, 100.0):
        mech = (2 * n + 1) / 2.0 * np.eye(2)
        v = np.block([[mech, np.zeros((2, 2))], [np.zeros((2, 2)), 0.5 * np.eye(2)]])
        report = log_negativity(v, f=2.0)
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
        formula = log_negativity(v).eta
        spectrum = eta_spectrum(v)
        assert abs(formula - spectrum) <= 1e-9 * max(formula, 1e-300)


def test_local_rotation_invariance():
    rng = np.random.default_rng(123)
    base = two_mode_squeezed_cm(0.7)
    ref = log_negativity(base, f=2.0)
    for _ in range(25):
        rot = rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        rotated = rot @ base @ rot.T
        report = log_negativity(rotated, f=2.0)
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
    assert log_negativity(v, f=2.0).log_negativity == pytest.approx(2.0 * r, abs=1e-9)


def test_threshold_behavior_of_log_negativity():
    # scaled vacua move f*eta through 1: zero above, strictly decreasing below.
    # their symplectic spectrum is degenerate, so the closed-form eta only
    # carries O(sqrt(eps)) accuracy here
    scales = np.linspace(0.2, 2.0, 37)
    values = [log_negativity(s * VACUUM, f=2.0).log_negativity for s in scales]
    for s, value in zip(scales, values):
        if s >= 1.0:
            assert value == pytest.approx(0.0, abs=1e-7)
        else:
            assert value == pytest.approx(-math.log(s), abs=1e-7)
    below = [v for s, v in zip(scales, values) if s < 1.0]
    assert all(a > b for a, b in zip(below, below[1:]))
    # continuity at the threshold
    assert log_negativity((1 - 1e-12) * VACUUM, f=2.0).log_negativity < 1e-7


def test_entangled_iff_f_eta_below_one():
    for r in (0.0, 0.1, 0.5):
        report = log_negativity(two_mode_squeezed_cm(r), f=2.0)
        assert report.entangled == (2.0 * report.eta < 1.0)
        assert report.entangled == (report.log_negativity > 0.0)


def test_negative_radicand_raises():
    c = math.sqrt(3.0)
    v = np.array(
        [
            [1.0, 0.0, c, 0.0],
            [0.0, 1.0, 0.0, c],
            [c, 0.0, 2.0, 0.0],
            [0.0, c, 0.0, 2.0],
        ]
    )
    with pytest.raises(NegativeRadicandError):
        log_negativity(v)


def test_cm_scale_composition():
    # Langevin-convention vacuum (variance 1) rescales to the standard vacuum
    raw = np.eye(4)
    report = log_negativity(CM_SCALE * raw, f=2.0)
    assert report.eta == pytest.approx(0.5, abs=1e-15)
    assert report.log_negativity == 0.0


def test_eta_factor_four_equals_literal_composition():
    # f = 4 on the rescaled CM reproduces f = 2 on the raw one
    raw = 3.0 * two_mode_squeezed_cm(0.9)  # arbitrary Langevin-scale CM
    rescaled = log_negativity(CM_SCALE * raw, f=4.0)
    literal = log_negativity(raw, f=2.0)
    assert rescaled.log_negativity == pytest.approx(literal.log_negativity, abs=1e-12)
