import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soarsim.belief import R0_FLOOR
from soarsim.thermal import field_lift, observe

from conftest import Bell, lift_at, lift_jacobian


def test_lift_at_center():
    assert observe(2.5, 80.0, 0.0, 0.0)[0] == pytest.approx(2.5)


def test_lift_at_one_radius():
    lift, _ = observe(2.5, 80.0, 80.0, 0.0)
    assert lift == pytest.approx(2.5 * math.exp(-1.0), rel=1e-12)
    assert lift == pytest.approx(0.91970, abs=1e-5)


def test_zero_strength_thermal():
    for cx, cy in [(0.0, 0.0), (10.0, 10.0), (-31.0, 4.0)]:
        assert observe(0.0, 50.0, cx, cy)[0] == 0.0


def test_lift_at_array_positions():
    pts = np.array([[5.0, -5.0], [65.0, -5.0]])
    out = field_lift(2.0, 60.0, 5.0, -5.0, pts[:, 0], pts[:, 1])
    assert out.shape == (2,)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(2.0 * math.exp(-1.0))
    th = Bell(2.0, 60.0, 5.0, -5.0)
    assert list(out) == pytest.approx([lift_at(th, p) for p in pts], rel=1e-15)


@given(
    w0=st.floats(-10, 10),
    r0=st.floats(5, 500),
    angle=st.floats(0, 2 * math.pi),
    dist=st.floats(0, 2000),
)
@settings(max_examples=80, deadline=None)
def test_radial_symmetry(w0, r0, angle, dist):
    lift, _ = observe(w0, r0, dist, 0.0)
    turned, _ = observe(w0, r0, dist * math.cos(angle), dist * math.sin(angle))
    assert lift == pytest.approx(turned, rel=1e-9, abs=1e-300)


def test_far_field_decay():
    lift, _ = observe(3.0, 120.0, 1200.0, 0.0)
    assert abs(lift) < 1e-40 * 3.0


def test_jacobian_at_center():
    _, jac = observe(2.5, 80.0, 0.0, 0.0)
    assert jac[0] == pytest.approx(1.0)
    assert jac[1] == pytest.approx(0.0)
    assert jac[2] == jac[3] == 0.0


def test_jacobian_strength_partial_at_one_radius():
    _, jac = observe(2.5, 80.0, 80.0, 0.0)
    assert jac[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def fd_jacobian(th, step=1e-5):
    """Central finite differences of observe's lift."""
    out = []
    for i in range(4):
        hi = list(th)
        lo = hi.copy()
        hi[i] += step
        lo[i] -= step
        out.append((observe(*hi)[0] - observe(*lo)[0]) / (2 * step))
    return np.array(out)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        th = (rng.uniform(-10, 10), rng.uniform(5, 500), rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        np.testing.assert_allclose(observe(*th)[1], fd_jacobian(th), rtol=1e-5, atol=1e-12)


finite = st.floats(-1e3, 1e3).map(np.float64)


@given(w0=finite, r0=st.one_of(st.floats(R0_FLOOR, 1e3).map(np.float64), st.just(R0_FLOOR)), cx=finite, cy=finite)
# here (0.0 - cx) ** 2 and cx * cx differ in the last bit, and so do the lifts
@example(w0=np.float64(1.0), r0=np.float64(100.0), cx=np.float64(-458.7228991098864), cy=np.float64(0.0))
@settings(max_examples=300, deadline=None)
def test_observe_equals_the_reference_bell_bit_for_bit(w0, r0, cx, cy):
    # the argument types ekf_update passes: the belief mean's np.float64
    # entries, and R0_FLOOR itself when it floors r0
    lift, jac = observe(w0, r0, cx, cy)
    th = Bell(w0, r0, cx, cy)
    assert np.float64(lift).tobytes() == np.float64(lift_at(th, (0.0, 0.0))).tobytes()
    assert jac.tobytes() == lift_jacobian(th).tobytes()


def test_field_lift_broadcasts():
    w0 = np.array([1.0, 2.0])
    r0 = np.array([50.0, 100.0])
    out = field_lift(w0, r0, 0.0, 0.0, 50.0, 0.0)
    assert out[0] == pytest.approx(math.exp(-1.0))
    assert out[1] == pytest.approx(2.0 * math.exp(-0.25))
