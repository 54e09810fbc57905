import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soarsim.thermal import ThermalParams, field_lift, lift_at, lift_jacobian


def test_lift_at_center():
    th = ThermalParams(2.5, 80.0, 0.0, 0.0)
    assert lift_at(th, (0.0, 0.0)) == pytest.approx(2.5)


def test_lift_at_one_radius():
    th = ThermalParams(2.5, 80.0, 0.0, 0.0)
    assert lift_at(th, (80.0, 0.0)) == pytest.approx(2.5 * math.exp(-1.0), rel=1e-12)
    assert lift_at(th, (80.0, 0.0)) == pytest.approx(0.91970, abs=1e-5)


def test_zero_strength_thermal():
    th = ThermalParams(0.0, 50.0, 10.0, 10.0)
    for p in [(0.0, 0.0), (10.0, 10.0), (-31.0, 4.0)]:
        assert lift_at(th, p) == 0.0


def test_invalid_radius_rejected():
    with pytest.raises(ValueError):
        ThermalParams(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ThermalParams(1.0, -5.0, 0.0, 0.0)


def test_lift_at_array_positions():
    pts = np.array([[5.0, -5.0], [65.0, -5.0]])
    out = field_lift(2.0, 60.0, 5.0, -5.0, pts[:, 0], pts[:, 1])
    assert out.shape == (2,)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(2.0 * math.exp(-1.0))
    th = ThermalParams(2.0, 60.0, 5.0, -5.0)
    assert list(out) == pytest.approx([lift_at(th, p) for p in pts], rel=1e-15)


@given(
    w0=st.floats(-10, 10),
    r0=st.floats(5, 500),
    cx=st.floats(-1000, 1000),
    cy=st.floats(-1000, 1000),
    angle=st.floats(0, 2 * math.pi),
    dist=st.floats(0, 2000),
)
@settings(max_examples=80, deadline=None)
def test_radial_symmetry(w0, r0, cx, cy, angle, dist):
    th = ThermalParams(w0, r0, cx, cy)
    p1 = (cx + dist, cy)
    p2 = (cx + dist * math.cos(angle), cy + dist * math.sin(angle))
    assert lift_at(th, p1) == pytest.approx(lift_at(th, p2), rel=1e-9, abs=1e-300)


def test_far_field_decay():
    th = ThermalParams(3.0, 120.0, 0.0, 0.0)
    assert abs(lift_at(th, (10 * th.r0, 0.0))) < 1e-40 * abs(th.w0)


def test_jacobian_at_center():
    jac = lift_jacobian(ThermalParams(2.5, 80.0, 0.0, 0.0))
    assert jac[0] == pytest.approx(1.0)
    assert jac[1] == pytest.approx(0.0)
    assert jac[2] == jac[3] == 0.0


def test_jacobian_strength_partial_at_one_radius():
    jac = lift_jacobian(ThermalParams(2.5, 80.0, 80.0, 0.0))
    assert jac[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def fd_jacobian(th: ThermalParams, step=1e-5):
    """Central finite differences of the lift observed at the origin."""
    out = []
    for i in range(4):
        hi = [th.w0, th.r0, th.cx, th.cy]
        lo = hi.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = lift_at(ThermalParams(*hi), (0.0, 0.0))
        f_lo = lift_at(ThermalParams(*lo), (0.0, 0.0))
        out.append((f_hi - f_lo) / (2 * step))
    return np.array(out)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        th = ThermalParams(
            rng.uniform(-10, 10),
            rng.uniform(5, 500),
            rng.uniform(-1000, 1000),
            rng.uniform(-1000, 1000),
        )
        jac = lift_jacobian(th)
        ref = fd_jacobian(th)
        np.testing.assert_allclose(jac, ref, rtol=1e-5, atol=1e-12)


def test_field_lift_broadcasts():
    w0 = np.array([1.0, 2.0])
    r0 = np.array([50.0, 100.0])
    out = field_lift(w0, r0, 0.0, 0.0, 50.0, 0.0)
    assert out[0] == pytest.approx(math.exp(-1.0))
    assert out[1] == pytest.approx(2.0 * math.exp(-0.25))
