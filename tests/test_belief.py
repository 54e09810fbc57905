import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soarsim.belief as belief_mod
from soarsim.belief import (
    R0_FLOOR,
    GaussianBelief,
    ekf_update,
    predict_shift,
    sample_thermal,
    uncertainty,
)
from soarsim.thermal import observe

from conftest import NOISE, PLANNER, Bell, lift_at, make_belief, param_error, prior


class TestPredictShift:
    def test_identity_transition(self, noise):
        b = prior()
        out = predict_shift(b, (0.0, 0.0), replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04), 0.2)
        np.testing.assert_array_equal(out.mean, b.mean)
        np.testing.assert_array_equal(out.cov, b.cov)

    def test_center_shifts_opposite_displacement(self, noise):
        b = make_belief([1.5, 80.0, 10.0, 0.0], [1, 400, 400, 400])
        out = predict_shift(b, (10.0, 0.0), noise, 0.2)
        assert out.mean[2] == 0.0 and out.mean[3] == 0.0
        assert out.mean[0] == 1.5 and out.mean[1] == 80.0

    def test_trace_grows_by_q(self, noise):
        b = prior()
        out = predict_shift(b, (3.0, -4.0), noise, dt=1.0)
        assert np.trace(out.cov) - np.trace(b.cov) == pytest.approx(sum(noise.q_diag))
        out2 = predict_shift(b, (3.0, -4.0), noise, dt=0.2)
        assert np.trace(out2.cov) - np.trace(b.cov) == pytest.approx(0.2 * sum(noise.q_diag))


class TestEkfUpdate:
    def test_zero_innovation_keeps_mean(self, noise):
        b = make_belief([2.0, 80.0, 15.0, -5.0], [1, 100, 100, 100])
        predicted, _ = observe(*b.mean)
        out = ekf_update(b, predicted, noise)
        np.testing.assert_allclose(out.mean, b.mean, atol=1e-12)
        assert np.trace(out.cov) < np.trace(b.cov)

    def test_scalar_kalman_case(self, monkeypatch):
        b = make_belief([1.5, 80.0, 0.0, 0.0], [1, 1, 1, 1])
        noise = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=1.0)
        h = np.array([1.0, 0.0, 0.0, 0.0])
        # the linearized observation map, replaced by the fixed linear map h
        monkeypatch.setattr(belief_mod, "observe", lambda *th: (float(h @ np.array(th)), h))
        out = ekf_update(b, float(h @ b.mean) + 1.0, noise)
        assert out.mean[0] == pytest.approx(1.5 + 0.5)
        assert out.cov[0, 0] == pytest.approx(0.5)
        np.testing.assert_allclose(out.cov[1:, 1:], np.eye(3), atol=1e-12)

    def test_rejects_non_finite_observation(self, noise):
        b = prior()
        with pytest.raises(ValueError):
            ekf_update(b, float("nan"), noise)
        with pytest.raises(ValueError):
            ekf_update(b, float("inf"), noise)

    def test_r0_floor_enforced(self):
        b = make_belief([2.0, 1.2, 0.0, 0.0], [1e-6, 400, 1e-6, 1e-6])
        noise = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04)
        out = b
        for _ in range(50):
            out = ekf_update(out, 0.0, noise)
        assert out.mean[1] >= R0_FLOOR

    def test_shift_then_update_equals_update(self):
        noise = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04)
        b = make_belief([1.5, 70.0, 20.0, -10.0], [1, 300, 300, 300])
        a = ekf_update(predict_shift(b, (0.0, 0.0), noise, 0.2), 0.8, noise)
        c = ekf_update(b, 0.8, noise)
        np.testing.assert_array_equal(a.mean, c.mean)
        np.testing.assert_array_equal(a.cov, c.cov)


def spiral_path(n_obs=200, r_start=65.0, r_end=12.0, v=9.0, dt=0.2):
    pts, theta = [], 0.0
    for k in range(1, n_obs + 1):
        r = r_start + (r_end - r_start) * k / n_obs
        theta += v * dt / r
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    return np.array(pts), np.array([r_start, 0.0])


def run_ekf_on_path(pts, start, truth, noise, prior_abs=(1.0, 80.0, 20.0, 20.0), dt=0.2):
    b = GaussianBelief(
        np.array([prior_abs[0], prior_abs[1], prior_abs[2] - start[0], prior_abs[3] - start[1]]),
        np.diag([1.0, 400.0, 400.0, 400.0]),
    )
    prev = start
    for p in pts:
        b = predict_shift(b, (p[0] - prev[0], p[1] - prev[1]), noise, dt)
        b = ekf_update(b, lift_at(truth, p), noise)
        prev = p
    return b


def test_convergence_on_circling_observer(noise):
    truth = Bell(2.5, 80.0, 0.0, 0.0)
    pts, start = spiral_path()
    b = run_ekf_on_path(pts, start, truth, noise)
    center_abs = pts[-1] + b.mean[2:]
    assert np.hypot(*center_abs) < 5.0
    assert abs(b.mean[0] - 2.5) < 0.2


def reference_sample_thermal(b, n, rng):
    """sample_thermal as it was written with one chol @ z product per row,
    the draws it must equal bit for bit."""
    try:
        chol = np.linalg.cholesky(b.cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(b.cov + belief_mod.JITTER * np.eye(4))
    draws = np.array([b.mean + chol @ z for z in rng.standard_normal((n, 4))])
    draws[:, 1] = np.maximum(draws[:, 1], R0_FLOOR)
    return draws


class TestSampleThermal:
    def test_draws_are_bit_identical_to_the_per_row_product(self):
        # a third each: well-conditioned, near-singular (a low-rank root: the jitter retry), r0 below the floor
        rng = np.random.default_rng(25)
        jittered = floored = 0
        for case in range(201):
            kind = case % 3
            root = rng.standard_normal((4, int(rng.integers(1, 4)) if kind == 1 else 4))
            sd = 10.0 ** rng.uniform(-1.0, 1.0 if kind == 1 else 3.0, (4, 1))
            cov = (sd * root) @ (sd * root).T + (0.0 if kind == 1 else 1e-3) * np.eye(4)
            mean = rng.uniform(-50.0, 150.0, 4)
            if kind == 2:
                mean[1] = rng.uniform(-2.0, 2.0)
            b = GaussianBelief(mean, (cov + cov.T) * 0.5)
            n, seed = int(rng.integers(1, 17)), int(rng.integers(1 << 30))
            draws = sample_thermal(b, n, np.random.default_rng(seed))
            assert draws.tobytes() == reference_sample_thermal(b, n, np.random.default_rng(seed)).tobytes()
            try:
                np.linalg.cholesky(b.cov)
            except np.linalg.LinAlgError:
                jittered += 1
            floored += bool((draws[:, 1] == R0_FLOOR).any())
        assert jittered > 30 and floored > 30

    def test_degenerate_covariance_returns_mean(self, rng):
        b = make_belief([2.0, 60.0, 5.0, -5.0], [1e-18, 1e-18, 1e-18, 1e-18])
        (w0, r0, _, _), = sample_thermal(b, 1, rng)
        assert w0 == pytest.approx(2.0, abs=1e-6)
        assert r0 == pytest.approx(60.0, abs=1e-6)

    def test_seed_determinism(self):
        b = prior()
        a = sample_thermal(b, 3, np.random.default_rng(77))
        c = sample_thermal(b, 3, np.random.default_rng(77))
        assert a.shape == (3, 4) and np.array_equal(a, c)

    def test_rows_are_the_draws_of_one_row_at_a_time(self):
        # one (n, 4) block reads the stream that n one-row draws read
        rng = np.random.default_rng(8)
        for _ in range(200):
            root = rng.standard_normal((4, 4)) * rng.uniform(0.1, 40.0, 4)
            b = GaussianBelief(rng.uniform(-50.0, 150.0, 4), root @ root.T + np.eye(4))
            n, seed = int(rng.integers(1, 17)), int(rng.integers(1 << 30))
            block = sample_thermal(b, n, np.random.default_rng(seed))
            one_at_a_time = np.random.default_rng(seed)
            rows = np.concatenate([sample_thermal(b, 1, one_at_a_time) for _ in range(n)])
            assert block.tobytes() == rows.tobytes()

    def test_monte_carlo_mean(self):
        b = make_belief([2.0, 60.0, 5.0, -5.0], [0.25, 25.0, 16.0, 16.0])
        rng = np.random.default_rng(3)
        n = 100_000
        draws = sample_thermal(b, n, rng)[:, [0, 2, 3]]
        for i, (mu, var) in enumerate([(2.0, 0.25), (5.0, 16.0), (-5.0, 16.0)]):
            assert abs(draws[:, i].mean() - mu) < 3 * math.sqrt(var / n)

    def test_r0_clamped(self, rng):
        b = make_belief([2.0, 1.0, 0.0, 0.0], [1e-12, 25.0, 1e-12, 1e-12])
        assert (sample_thermal(b, 50, rng)[:, 1] >= R0_FLOOR).all()

    def test_corrupt_covariance_raises(self, rng):
        b = prior()
        b.cov[0, 0] = -5.0
        with pytest.raises(ValueError):
            sample_thermal(b, 1, rng)


class TestUncertainty:
    def test_identity_trace(self):
        assert uncertainty(make_belief([1, 80, 0, 0], [1, 1, 1, 1]), (1, 1, 1, 1)) == pytest.approx(4.0)

    def test_weighted_trace_ignores_components(self):
        b = make_belief([1, 80, 0, 0], [7.0, 11.0, 2.0, 3.0])
        assert uncertainty(b, (0, 0, 1, 1)) == pytest.approx(5.0)

    def test_update_never_increases_uncertainty(self, rng):
        noise = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04)
        b = make_belief([1.5, 80.0, 10.0, 10.0], [1, 400, 400, 400])
        for _ in range(30):
            nxt = ekf_update(b, rng.normal(1.0, 0.5), noise)
            assert uncertainty(nxt, PLANNER.trace_weights) <= uncertainty(b, PLANNER.trace_weights) + 1e-12
            b = nxt


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_covariance_stays_spd_over_random_sequences(seed):
    rng = np.random.default_rng(seed)
    noise = NOISE
    b = prior()
    for _ in range(25):
        b = predict_shift(b, rng.normal(0, 2, 2), noise, dt=0.2)
        b = ekf_update(b, rng.normal(0.5, 1.0), noise)
    np.testing.assert_allclose(b.cov, b.cov.T, atol=1e-9)
    assert np.linalg.eigvalsh(b.cov).min() > 0


def test_single_viewpoint_radial_ambiguity():
    # observing from one fixed point shrinks radial position uncertainty but
    # cannot touch the tangential direction
    noise = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04)
    b = make_belief([2.0, 80.0, 30.0, 0.0], [1e-9, 1e-9, 400.0, 400.0])
    predicted, _ = observe(*b.mean)
    for _ in range(50):
        b = ekf_update(b, predicted, noise)
    pos_cov = b.cov[2:, 2:]
    eig = np.linalg.eigvalsh(pos_cov)
    assert eig[1] / eig[0] > 5.0
    assert b.cov[3, 3] == pytest.approx(400.0)  # tangential variance untouched


def test_noise_config_validation(tmp_path, capsys):
    assert "bad.param:1: SOAR_THML_Q_W0 must be a finite non-negative number, got -1.0" in param_error(
        tmp_path, capsys, "SOAR_THML_Q_W0=-1")
    assert "bad.param:1: SOAR_THML_R must be a finite positive number, got 0.0" in param_error(
        tmp_path, capsys, "SOAR_THML_R=0.0")


@pytest.mark.parametrize("off, error", [(0.0, None), (5e-10, None), (1e-9, None), (2e-9, "must be symmetric"),
                                        (0.5, "must be symmetric"), (math.nan, "is not finite"),
                                        (math.inf, "is not finite")])
def test_covariance_symmetry_check(off, error):
    # against a zero mirror entry allclose allows exactly its atol, 1e-9;
    # a NaN is never symmetric, and a non-finite entry is named as such
    cov = np.diag([1.0, 400.0, 400.0, 400.0])
    cov[2, 0] = off
    if error is None:
        assert GaussianBelief(np.zeros(4), cov).cov[2, 0] == off
    else:
        with pytest.raises(ValueError, match=f"^covariance {error}$"):
            GaussianBelief(np.zeros(4), cov)
