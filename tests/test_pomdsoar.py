import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soarsim.pomdsoar as planner
from soarsim.belief import R0_FLOOR, GaussianBelief, ekf_update, predict_shift, sample_thermal, uncertainty
from soarsim.dynamics import RECORD_DT, RollAction, UavState, predict_trajectory
from soarsim.environment import sink_rate
from soarsim.pomdsoar import (
    EXPLOIT,
    EXPLORE,
    choose_action,
    exploit_score,
    explore_score,
)
from conftest import AIRFRAME, NOISE, PLANNER, Bell, fine_trajectory, lift_at, make_belief, param_error


def north_uav():
    return UavState(0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 100.0)


def known_belief(th: Bell, tiny=1e-12):
    return make_belief(th, [tiny] * 4)


def hypotheses(*ths: Bell) -> np.ndarray:
    """The planner's (N, 4) hypothesis array of the given thermals."""
    return np.array(ths, dtype=float)


class TestGate:
    def test_below_threshold_exploits(self, free_airframe, noise, rng):
        cfg = replace(PLANNER, confidence_thres=100.0, n_samples=2)
        b = make_belief([2.0, 80.0, 10.0, 0.0], [12.5, 12.5, 12.5, 12.5])  # trace 50
        dec = choose_action(cfg, north_uav(), b, free_airframe, noise, rng)
        assert dec.mode == EXPLOIT

    def test_above_threshold_explores(self, free_airframe, noise, rng):
        cfg = replace(PLANNER, confidence_thres=100.0, n_samples=2)
        b = make_belief([2.0, 80.0, 10.0, 0.0], [50, 50, 50, 50])  # trace 200
        dec = choose_action(cfg, north_uav(), b, free_airframe, noise, rng)
        assert dec.mode == EXPLORE


def exploit_oracle_bank(cfg, uav, th, airframe):
    """Fine-resolution (0.02 s) net-altitude integration over each action."""
    best, best_bank = -math.inf, None
    s0 = UavState(0.0, 0.0, uav.v, uav.psi, uav.phi, uav.phi_dot, uav.h)
    for bank in cfg.bank_angles:
        x, y, phi, _ = fine_trajectory(airframe, s0, RollAction(bank, cfg.t_exploit))
        gain = 0.0
        for t in range(1, len(x)):
            gain += lift_at(th, (x[t], y[t])) * 0.02
            gain -= sink_rate(cfg.sink_s0, phi[t]) * 0.02
        if gain > best:
            best, best_bank = gain, bank
    return best_bank


def test_known_thermal_left_turn_matches_oracle(free_airframe, noise):
    # belief collapsed on a thermal 40 m to the left of a north-flying UAV
    th = Bell(2.5, 80.0, -40.0, 0.0)
    cfg = replace(PLANNER, n_samples=1)
    dec = choose_action(cfg, north_uav(), known_belief(th), free_airframe, noise, np.random.default_rng(0))
    assert dec.mode == EXPLOIT
    assert dec.chosen_bank < 0.0
    assert dec.chosen_bank == exploit_oracle_bank(cfg, north_uav(), th, free_airframe)


def test_exploit_argmax_matches_oracle_randomized(free_airframe, noise):
    rng = np.random.default_rng(2024)
    cfg = replace(PLANNER, n_samples=1)
    for _ in range(20):
        dist = rng.uniform(15.0, 60.0)
        ang = rng.uniform(0.0, 2 * math.pi)
        th = Bell(rng.uniform(1.0, 3.0), rng.uniform(40.0, 120.0), dist * math.cos(ang), dist * math.sin(ang))
        uav = UavState(0.0, 0.0, 9.0, rng.uniform(-math.pi, math.pi), 0.0, 0.0, 100.0)
        dec = choose_action(cfg, uav, known_belief(th), free_airframe, noise, np.random.default_rng(1))
        assert dec.chosen_bank == exploit_oracle_bank(cfg, uav, th, free_airframe)


def reference_sampled_lift(samples, pos):
    """The planner's own bell, as it was written before it called
    thermal.field_lift: the reference that call must match bit for bit."""
    w, r, cx, cy = (samples[:, i].copy() for i in range(4))
    dx = pos[:, None, :, 0] - cx[None, :, None]
    dy = pos[:, None, :, 1] - cy[None, :, None]
    return w[None, :, None] * np.exp(-(dx * dx + dy * dy) / (r * r)[None, :, None])


def test_sampled_lift_is_bit_identical_to_the_reference_bell():
    rng = np.random.default_rng(77)
    values = 0
    for _ in range(300):
        n, a, t = rng.integers(1, 17), rng.integers(1, 10), rng.integers(1, 70)
        b = make_belief([rng.uniform(-1.0, 4.0), rng.uniform(20.0, 200.0), rng.uniform(-150.0, 150.0),
                         rng.uniform(-150.0, 150.0)], [1.0, 900.0, 2500.0, 2500.0])
        samples = sample_thermal(b, n, rng)
        pos = rng.uniform(-400.0, 400.0, size=(a, t, 2))
        out = planner._sampled_lift(samples, pos[..., 0], pos[..., 1])
        assert out.shape == (a, n, t)
        assert np.array_equal(out, reference_sampled_lift(samples, pos))
        values += out.size
    assert values > 300_000


def sink_charge(cfg, uav, airframe) -> np.ndarray:
    """The sink exploit_score charges each action: the sink polar at each
    0.2 s waypoint of its rollout, times RECORD_DT. Adding it back to the
    scores leaves the lift the samples give along the rollouts."""
    return np.array([sum(sink_rate(cfg.sink_s0, phi) * RECORD_DT
                         for phi in predict_trajectory(airframe, uav, RollAction(bank, cfg.t_exploit))[2, 1:])
                     for bank in cfg.bank_angles])


class TestExploitScore:
    def test_zero_strength_thermal_scores_zero(self, free_airframe):
        cfg = replace(PLANNER, n_samples=1)
        samples = hypotheses(Bell(0.0, 50.0, 10.0, 10.0))
        scores = exploit_score(cfg, north_uav(), free_airframe, samples)
        lift = scores + sink_charge(cfg, north_uav(), free_airframe)
        assert np.all(np.abs(lift) <= 1e-12)

    def test_centered_wide_thermal_prefers_tightest_turn(self, free_airframe):
        # in lift alone, hugging the core wins, so max |bank| is best
        cfg = replace(PLANNER, n_samples=1)
        th = Bell(2.5, 200.0, 0.0, 0.0)
        scores = exploit_score(cfg, north_uav(), free_airframe, hypotheses(th))
        lift = scores + sink_charge(cfg, north_uav(), free_airframe)
        best = cfg.bank_angles[int(np.argmax(lift))]
        assert abs(best) == pytest.approx(math.radians(45.0))

    def test_coarse_matches_fine_integration(self, free_airframe):
        cfg = replace(PLANNER, n_samples=1)
        th = Bell(2.5, 80.0, -30.0, 20.0)
        scores = exploit_score(cfg, north_uav(), free_airframe, hypotheses(th))
        lift = scores + sink_charge(cfg, north_uav(), free_airframe)
        s0 = north_uav()
        for i, bank in enumerate(cfg.bank_angles):
            x, y, _, _ = fine_trajectory(free_airframe, s0, RollAction(bank, cfg.t_exploit))
            fine = sum(lift_at(th, (x[t], y[t])) * 0.02 for t in range(1, len(x)))
            assert abs(lift[i] - fine) <= abs(th.w0) * cfg.t_exploit * 0.02

    def test_argmax_invariant_to_resolution_scaling(self, free_airframe):
        th = Bell(2.0, 60.0, -35.0, 10.0)
        scores = exploit_score(replace(PLANNER, n_samples=1), north_uav(), free_airframe, hypotheses(th))
        scores2 = 3.7 * np.asarray(scores)
        assert int(np.argmax(scores2)) == int(np.argmax(scores))


def scalar_explore_reference(cfg, uav, b, airframe, noise, samples):
    out = []
    s0 = UavState(0.0, 0.0, uav.v, uav.psi, uav.phi, uav.phi_dot, uav.h)
    for bank in cfg.bank_angles:
        x, y, _, _ = predict_trajectory(airframe, s0, RollAction(bank, cfg.t_explore))
        traces = []
        for s in samples:
            th, bb = Bell(*s), b.copy()
            for t in range(1, len(x)):
                bb = predict_shift(bb, (x[t] - x[t - 1], y[t] - y[t - 1]), noise, RECORD_DT)
                bb = ekf_update(bb, lift_at(th, (x[t], y[t])), noise)
            traces.append(uncertainty(bb, cfg.trace_weights))
        out.append(float(np.mean(traces)))
    return np.array(out)


def reference_explore_score(cfg, uav, b, airframe, noise, samples):
    """explore_score as it was written before it worked in place on
    preallocated buffers, the chain its scores must equal bit for bit; also
    the number of steps at which the r0 floor raised some chain's mean. It
    rolls out each bank and evaluates the bell itself, apart from the
    planner's own rollout block and lift."""
    s0 = UavState(0.0, 0.0, uav.v, uav.psi, uav.phi, uav.phi_dot, uav.h)
    xy = np.stack([predict_trajectory(airframe, s0, RollAction(bank, cfg.t_explore))[:2].T
                   for bank in cfg.bank_angles])  # (A, T+1, 2)
    pos = xy[:, 1:]
    deltas = np.diff(xy, axis=1)
    obs = reference_sampled_lift(samples, pos)
    a, n = len(cfg.bank_angles), len(samples)
    means = np.broadcast_to(b.mean, (a, n, 4)).copy()
    covs = np.broadcast_to(b.cov, (a, n, 4, 4)).copy()
    q_step = np.diag(noise.q_diag) * RECORD_DT
    floored = 0
    for t in range(pos.shape[1]):
        means[:, :, 2] -= deltas[:, t, 0][:, None]
        means[:, :, 3] -= deltas[:, t, 1][:, None]
        covs += q_step
        w0 = means[..., 0]
        r0 = np.maximum(means[..., 1], R0_FLOOR)
        cx = means[..., 2]
        cy = means[..., 3]
        r2 = cx * cx + cy * cy
        inv_r02 = 1.0 / (r0 * r0)
        e = np.exp(-r2 * inv_r02)
        w = w0 * e
        h = np.stack(
            [e, 2.0 * r2 * w / r0**3, -2.0 * cx * w * inv_r02, -2.0 * cy * w * inv_r02],
            axis=-1,
        )
        cov_h = np.einsum("anij,anj->ani", covs, h)
        s = np.einsum("ani,ani->an", h, cov_h) + noise.r_obs
        k = cov_h / s[..., None]
        means += k * (obs[:, :, t] - w)[..., None]
        covs -= k[..., :, None] * cov_h[..., None, :]
        covs = (covs + covs.swapaxes(-1, -2)) * 0.5
        floored += bool((means[..., 1] < R0_FLOOR).any())
        means[..., 1] = np.maximum(means[..., 1], R0_FLOOR)
    traces = np.einsum("anii,i->an", covs, np.asarray(cfg.trace_weights))
    valid = np.isfinite(traces).all(axis=0)
    if not valid.any():
        raise ValueError("all belief samples produced non-finite explore chains")
    return traces[:, valid].mean(axis=1), floored


@st.composite
def explore_cases(draw):
    """A UAV state, a belief and its (N, 4) hypotheses. The belief's r0
    often sits near R0_FLOOR, so the floor fires inside the chains, and its
    covariance runs from small to huge and from well-conditioned to nearly
    singular: a low-rank root plus a tiny ridge."""
    uav = UavState(0.0, 0.0, draw(st.floats(6.0, 14.0)), draw(st.floats(-math.pi, math.pi)),
                   draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.5, 0.5)), 100.0)
    dist = draw(st.one_of(st.floats(0.0, 6.0), st.floats(0.0, 120.0)))
    bearing = draw(st.floats(-math.pi, math.pi))
    mean = np.array([draw(st.floats(-1.0, 4.0)), draw(st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 150.0))),
                     dist * math.cos(bearing), dist * math.sin(bearing)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.standard_normal((4, draw(st.integers(1, 4))))
    sd = np.array([draw(st.floats(0.01, 3.0)), *(10.0 ** rng.uniform(-1.0, draw(st.floats(0.0, 8.0)), 3))])
    corr = root @ root.T + 10.0 ** draw(st.floats(-12.0, 0.0)) * np.eye(4)
    d = np.sqrt(np.diag(corr))
    cov = corr / np.outer(d, d) * np.outer(sd, sd)
    samples = mean + rng.standard_normal((draw(st.integers(1, 10)), 4)) * sd
    samples[:, 1] = np.maximum(samples[:, 1], R0_FLOOR)
    return uav, GaussianBelief(mean, (cov + cov.T) * 0.5), samples


# one hypothesis whose chains overflow: 1e200 m/s of lift drives its means
# and covariances to inf and nan, so explore_score drops it and warns
DIVERGING = (north_uav(), make_belief([1.5, 2.0, 5.0, 5.0], [1.0, 4.0, 400.0, 400.0]),
             hypotheses(Bell(1e200, 2.0, 0.0, 1.0), Bell(1.5, 3.0, 6.0, 2.0)))


def check_explore_case(case):
    """Assert that explore_score gives the reference chain's scores byte for
    byte on case; the reference's count of floored steps, or None when every
    hypothesis diverges and both raise."""
    uav, b, samples = case
    try:
        with np.errstate(all="ignore"):  # the huge covariances overflow on purpose
            reference, n = reference_explore_score(PLANNER, uav, b, AIRFRAME, NOISE, samples)
    except ValueError:
        with pytest.raises(ValueError, match="non-finite explore chains"):
            explore_score(PLANNER, uav, b, AIRFRAME, NOISE, samples)
        return None
    scores = explore_score(PLANNER, uav, b, AIRFRAME, NOISE, samples)
    assert scores.tobytes() == reference.tobytes()
    return n


@example(case=DIVERGING)
# its diverging hypothesis alone: every chain is dropped, and both raise
@example(case=(*DIVERGING[:2], hypotheses(Bell(1e200, 2.0, 0.0, 1.0))))
# the prior r0 sits below R0_FLOOR: the first step linearizes at the floor,
# while the mean's own r0 is floored only after that step's update
@example(case=(north_uav(), make_belief([1.5, 0.5, 0.3, -0.2], [1.0, 4.0, 4.0, 4.0]),
               hypotheses(Bell(1.5, 1.0, 0.5, 0.5), Bell(2.0, 3.0, -1.0, 0.5))))
@given(case=explore_cases())
@settings(max_examples=120, deadline=None)
def test_explore_score_is_bit_identical_to_the_reference_chain(case):
    check_explore_case(case)


def test_the_floor_fires_mid_chain_in_a_tenth_of_a_fixed_set_of_cases():
    # the same comparison on 120 cases that derandomize fixes, so that the
    # floor's share is a property of the cases and not of one run's draws
    floored = []

    @given(case=explore_cases())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def check(case):
        n = check_explore_case(case)
        if n is not None:
            floored.append(n)

    check()
    assert sum(map(bool, floored)) > len(floored) // 10, (sum(map(bool, floored)), len(floored))


class TestExploreScore:
    def test_batched_matches_scalar_chain(self, free_airframe, noise):
        cfg = replace(PLANNER, n_samples=3)
        uav = UavState(0.0, 0.0, 9.0, 0.3, 0.1, 0.0, 100.0)
        b = make_belief([1.5, 80.0, 10.0, -20.0], [1.0, 400.0, 300.0, 300.0])
        samples = sample_thermal(b, 3, np.random.default_rng(5))
        batched = explore_score(cfg, uav, b, free_airframe, noise, samples)
        reference = scalar_explore_reference(cfg, uav, b, free_airframe, noise, samples)
        np.testing.assert_allclose(batched, reference, rtol=1e-12)

    def test_scores_non_negative(self, free_airframe, noise, rng):
        cfg = replace(PLANNER, n_samples=4)
        b = make_belief([1.5, 80.0, 5.0, 5.0], [1.0, 400.0, 400.0, 400.0])
        scores = explore_score(cfg, north_uav(), b, free_airframe, noise, sample_thermal(b, cfg.n_samples, rng))
        assert np.all(scores >= 0.0)

    def test_position_uncertainty_chain_order(self, free_airframe, noise):
        # position uncertain, everything else pinned, hypothesis at the mean.
        # A straight pass through the core only informs the along-track axis
        # (the cross-track partial is identically zero by symmetry), so its
        # final trace keeps the full prior cross-track variance; the max-bank
        # pirouette rotates the gradient direction and shrinks both axes.
        # The explicit chain oracle therefore ranks max bank ahead of straight.
        cfg = replace(PLANNER, n_samples=1)
        b = make_belief([2.5, 80.0, 0.0, 0.0], [1e-6, 1e-6, 400.0, 400.0])
        samples = hypotheses(Bell(*b.mean))
        scores = explore_score(cfg, north_uav(), b, free_airframe, noise, samples)
        oracle = scalar_explore_reference(cfg, north_uav(), b, free_airframe, noise, samples)
        banks = [math.degrees(a) for a in cfg.bank_angles]
        straight, steep = banks.index(0.0), banks.index(45.0)
        assert (scores[straight] < scores[steep]) == (oracle[straight] < oracle[steep])
        assert oracle[steep] < oracle[straight]
        assert scores[straight] > 400.0  # cross-track prior variance survives

    def test_degenerate_belief_ties_break_to_level(self, free_airframe):
        q0 = replace(NOISE, q_diag=(0, 0, 0, 0), r_obs=0.04)
        cfg = replace(PLANNER, n_samples=2, confidence_thres=0.0)  # force explore
        b = make_belief([2.0, 80.0, 5.0, 5.0], [1e-12] * 4)
        dec = choose_action(cfg, north_uav(), b, free_airframe, q0, np.random.default_rng(4))
        assert dec.mode == EXPLORE
        spread = max(s for _, s in dec.per_action_scores) - min(s for _, s in dec.per_action_scores)
        assert spread <= 10 * 1e-12
        assert dec.chosen_bank == 0.0

    def test_monte_carlo_consistency(self, free_airframe, noise):
        uav = north_uav()
        b = make_belief([1.5, 80.0, 10.0, 10.0], [1.0, 400.0, 400.0, 400.0])
        cfg_n = replace(PLANNER, n_samples=8)
        cfg_2n = replace(PLANNER, n_samples=16)
        s_n, s_2n = [], []
        for seed in range(30):
            samples_n = sample_thermal(b, cfg_n.n_samples, np.random.default_rng(seed))
            samples_2n = sample_thermal(b, cfg_2n.n_samples, np.random.default_rng(seed + 500))
            s_n.append(explore_score(cfg_n, uav, b, free_airframe, noise, samples_n)[0])
            s_2n.append(explore_score(cfg_2n, uav, b, free_airframe, noise, samples_2n)[0])
        s_n, s_2n = np.array(s_n), np.array(s_2n)
        se = math.hypot(s_n.std() / math.sqrt(len(s_n)), s_2n.std() / math.sqrt(len(s_2n)))
        assert abs(s_n.mean() - s_2n.mean()) < 5 * se
        assert 0.4 < s_2n.std() / s_n.std() < 1.0


class TestChooseAction:
    def test_determinism(self, free_airframe, noise):
        cfg = PLANNER
        b = make_belief([1.5, 80.0, 5.0, 5.0], [1.0, 400.0, 400.0, 400.0])
        a = choose_action(cfg, north_uav(), b, free_airframe, noise, np.random.default_rng(9))
        c = choose_action(cfg, north_uav(), b, free_airframe, noise, np.random.default_rng(9))
        assert a.chosen_bank == c.chosen_bank and a.mode == c.mode
        assert a.per_action_scores == c.per_action_scores

    def test_samples_drawn_once_per_cycle(self, free_airframe, noise, monkeypatch):
        calls = []
        real = sample_thermal

        def counting(b, n, rng):
            calls.append(real(b, n, rng))
            return calls[-1]

        monkeypatch.setattr(planner, "sample_thermal", counting)
        cfg = replace(PLANNER, n_samples=6)
        b = make_belief([1.5, 80.0, 5.0, 5.0], [1.0, 400.0, 400.0, 400.0])
        choose_action(cfg, north_uav(), b, free_airframe, noise, np.random.default_rng(0))
        # one block of 6 hypotheses, shared by every bank
        assert len(calls) == 1 and calls[0].shape == (6, 4)

    def test_reports_all_action_scores(self, free_airframe, noise, rng):
        cfg = replace(PLANNER, n_samples=2)
        b = make_belief([1.5, 80.0, 5.0, 5.0], [1.0, 400.0, 400.0, 400.0])
        dec = choose_action(cfg, north_uav(), b, free_airframe, noise, rng)
        assert [bank for bank, _ in dec.per_action_scores] == list(cfg.bank_angles)
        assert dec.chosen_bank in cfg.bank_angles


def test_diverging_explore_chain_is_dropped_without_numpy_warnings(caplog):
    uav, b, samples = DIVERGING
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
        warnings.simplefilter("error")
        scores = explore_score(PLANNER, uav, b, AIRFRAME, NOISE, samples)
    assert np.isfinite(scores).all()
    assert [rec.message for rec in caplog.records] == ["explore: dropped 1/2 belief samples"]


def test_failed_samples_dropped_with_warning(free_airframe, noise, caplog):
    cfg = replace(PLANNER, n_samples=2)
    good = Bell(2.0, 80.0, 5.0, 5.0)
    bad = Bell(float("nan"), 80.0, 5.0, 5.0)
    with caplog.at_level(logging.WARNING):
        scores = exploit_score(cfg, north_uav(), free_airframe, hypotheses(good, bad))
    assert np.isfinite(scores).all()
    assert [rec.message for rec in caplog.records] == ["exploit: dropped 1/2 belief samples"]
    with pytest.raises(ValueError, match="all belief samples produced non-finite altitude gains"):
        exploit_score(cfg, north_uav(), free_airframe, hypotheses(bad, bad))


def test_config_validation(tmp_path, capsys):
    assert "bad.param:1: bad value for SOAR_POMDP_BANKS: empty bank list" in param_error(
        tmp_path, capsys, "SOAR_POMDP_BANKS=")
    assert "bad.param:1: SOAR_POMDP_N must be a positive int, got 0" in param_error(
        tmp_path, capsys, "SOAR_POMDP_N=0")
    assert "bad.param:1: SOAR_POMDP_EXT must be a finite number of at least 1, got 0.5" in param_error(
        tmp_path, capsys, "SOAR_POMDP_EXT=0.5")
    assert PLANNER.t_exploit == pytest.approx(12.0)
