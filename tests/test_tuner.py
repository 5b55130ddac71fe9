import numpy as np
import pytest

from aqmsim.engine import MS, US
from aqmsim.tuner import (QLearningTuner, action_to_params, discretize, power_reward,
                          q_update, select_action)
from helpers import value_iteration


class TestDiscretize:
    def test_zero_maps_to_level_zero(self):
        assert discretize(0.0, 100.0) == 0

    def test_value_at_max_clamps_to_top_level(self):
        assert discretize(200.0, 200.0) == 99

    def test_midpoint(self):
        assert discretize(100.0, 200.0) == 50

    def test_zero_reference(self):
        assert discretize(5.0, 0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            discretize(-1.0, 10.0)


class TestActionGrid:
    def test_lowest_action(self):
        assert action_to_params(0) == (50 * US, 1 * MS)

    def test_highest_action_is_linux_default(self):
        assert action_to_params(99) == (5 * MS, 100 * MS)

    def test_interior_point(self):
        assert action_to_params(9) == (500 * US, 10 * MS)

    def test_every_action_keeps_target_below_interval(self):
        for a in range(100):
            target, interval = action_to_params(a)
            assert 0 < target < interval
            assert interval == 20 * target

    def test_out_of_range(self):
        for bad in (-1, 100):
            with pytest.raises(ValueError):
                action_to_params(bad)


class TestSelectAction:
    def test_all_zero_row_tie_breaks_to_zero(self):
        q = np.zeros((100, 100))
        rng = np.random.default_rng(0)
        assert select_action(q, 5, 0.0, rng) == 0

    def test_unique_max_selected(self):
        q = np.zeros((100, 100))
        q[7, 42] = 3.0
        rng = np.random.default_rng(0)
        assert select_action(q, 7, 0.0, rng) == 42

    def test_full_exploration_is_uniform(self):
        q = np.zeros((100, 100))
        rng = np.random.default_rng(99)
        counts = np.zeros(100)
        n = 10_000
        for _ in range(n):
            counts[select_action(q, 0, 1.0, rng)] += 1
        expected = n / 100
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 99 dof: the 0.999 quantile is ~148; a uniform sampler sits far below
        assert chi2 < 148

    def test_state_bounds(self):
        q = np.zeros((100, 100))
        with pytest.raises(ValueError):
            select_action(q, 100, 0.0, np.random.default_rng(0))


class TestQUpdate:
    def test_two_step_hand_sequence(self):
        q = np.zeros((100, 100))
        q_update(q, 3, 4, 1.0, 3, alpha=0.5, gamma=0.8)
        assert q[3, 4] == pytest.approx(0.5, abs=1e-12)
        # max over the next-state row is now 0.5
        q_update(q, 3, 4, 1.0, 3, alpha=0.5, gamma=0.8)
        assert q[3, 4] == pytest.approx(0.95, abs=1e-12)

    def test_zero_alpha_is_noop(self):
        q = np.zeros((100, 100))
        q[1, 1] = 0.25
        q_update(q, 1, 1, 10.0, 2, alpha=0.0, gamma=0.8)
        assert q[1, 1] == 0.25

    def test_rejects_non_finite_reward(self):
        q = np.zeros((100, 100))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                q_update(q, 0, 0, bad, 0, 0.5, 0.8)

    def test_bounded_by_rmax_over_one_minus_gamma(self):
        q = np.zeros((100, 100))
        rng = np.random.default_rng(5)
        gamma = 0.8
        bound = 1.0 / (1.0 - gamma)
        for _ in range(100_000):
            s = int(rng.integers(100))
            a = int(rng.integers(100))
            s2 = int(rng.integers(100))
            q_update(q, s, a, float(rng.random()), s2, alpha=0.5, gamma=gamma)
        assert float(np.abs(q).max()) <= bound + 1e-9

    def test_frozen_environment_contracts_geometrically(self):
        q = np.zeros((100, 100))
        r_star = 0.7
        gamma = 0.8
        alpha = 0.5
        q[2, :] = 0.3  # frozen next-state row
        target = r_star + gamma * 0.3
        errors = []
        for _ in range(30):
            q_update(q, 1, 0, r_star, 2, alpha, gamma)
            errors.append(abs(q[1, 0] - target))
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= (1 - alpha) * prev + 1e-12

    def test_reward_scaling_scales_q_and_preserves_argmax(self):
        rng = np.random.default_rng(17)
        steps = [(int(rng.integers(10)), int(rng.integers(10)),
                  float(rng.random()), int(rng.integers(10)))
                 for _ in range(500)]
        qa, qb = np.zeros((10, 10)), np.zeros((10, 10))
        c = 37.5
        for s, a, r, s2 in steps:
            q_update(qa, s, a, r, s2, 0.5, 0.8)
            q_update(qb, s, a, c * r, s2, 0.5, 0.8)
        assert np.allclose(qb, c * qa, rtol=1e-12)
        assert np.array_equal(np.argmax(qa, axis=1), np.argmax(qb, axis=1))


class TestPowerReward:
    def test_raw_power_example(self):
        assert power_reward(20e6, 0.040, 1.0) == pytest.approx(5e8)

    def test_power_then_normalizer_float_order(self):
        # The two orders differ in the last bit here; the epoch rows hold
        # throughput / rtt / normalizer.
        assert power_reward(20e6, 0.0377, 3.7e8) == 20e6 / 0.0377 / 3.7e8
        assert power_reward(20e6, 0.0377, 3.7e8) != 20e6 / (0.0377 * 3.7e8)

    def test_zero_throughput_zero_reward(self):
        assert power_reward(0.0, 0.05, 1e6) == 0.0

    def test_zero_rtt_rejected(self):
        with pytest.raises(ValueError, match="RTT"):
            power_reward(1e6, 0.0, 1.0)

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError, match="throughput"):
            power_reward(-1.0, 0.05, 1.0)

    def test_normalizer_validation(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="normalizer"):
                power_reward(1.0, 1.0, bad)


def _tuner(epsilon=0.0):
    return QLearningTuner(0.5, 0.8, epsilon, np.random.default_rng(1))


class TestReferenceMaxima:
    def test_non_decreasing(self):
        tuner = _tuner()
        tuner.decide(observed_count=5.0)
        tuner.decide(observed_count=2.0)
        assert tuner.max_obs_ref == 5.0
        tuner.learn(1.0, predicted=30.0)
        assert tuner.max_obs_ref == 5.0

    def test_start_at_one(self):
        tuner = _tuner()
        assert tuner.max_obs_ref == 1.0
        tuner.decide(observed_count=0.5)
        tuner.learn(1.0, predicted=0.0)
        assert tuner.max_obs_ref == 1.0


class TestDecisionFlow:

    def test_first_epoch_exploit_applies_action_zero(self):
        tuner = _tuner()
        action = tuner.decide(observed_count=0.0)
        assert action == 0 and tuner.pending == (0, 0)
        assert action_to_params(action) == (50 * US, 1 * MS)
        assert tuner.q.shape == (100, 100) and not tuner.q.any()
        tuner.learn(5.0, predicted=0.0)
        assert np.count_nonzero(tuner.q) == 1

    def test_zero_prediction_updates_against_level_zero(self):
        tuner = _tuner()
        tuner.decide(observed_count=3.0)
        tuner.learn(2.0, predicted=0.0)
        assert tuner.updates == 1
        # alpha 0.5 times reward 2 at the pending (state, action)
        assert tuner.q[tuner.pending] == 1.0

    def test_learn_without_pending_decision_is_logged_only(self):
        tuner = _tuner()
        tuner.learn(1.0, predicted=7.0)
        assert tuner.updates == 0
        assert not tuner.q.any()

    def test_reference_maxima_grow_with_observations(self):
        tuner = _tuner()
        tuner.decide(observed_count=250.0)
        assert tuner.max_obs_ref == 250.0
        tuner.learn(1.0, predicted=400.0)
        assert tuner.max_obs_ref == 250.0

    def test_successor_is_read_against_the_observed_maximum(self):
        # The state and its successor share one scale: a forecast of 100
        # against an observed maximum of 200 is level 50, not the top level
        # that a maximum of forecasts alone would give it.
        tuner = _tuner()
        tuner.q[50, 0], tuner.q[99, 0] = 10.0, 40.0
        tuner.decide(observed_count=200.0)
        assert tuner.pending == (99, 0)
        tuner.learn(1.0, predicted=100.0)
        # alpha 0.5 toward reward 1 plus gamma 0.8 times row 50's best, 10,
        # from the pending value 40
        assert tuner.q[99, 0] == 40.0 + 0.5 * (1.0 + 0.8 * 10.0 - 40.0)


class TestToyMdpConvergence:
    def test_q_learning_matches_value_iteration(self):
        # 3 states, 2 actions, deterministic ring with a rewarding shortcut.
        transitions = [[1, 2], [2, 0], [0, 1]]
        rewards = [[0.0, 0.5], [0.0, 1.0], [0.2, 0.0]]
        gamma = 0.8
        oracle = np.array(value_iteration(transitions, rewards, gamma))

        q = np.zeros((3, 2))
        visits = np.zeros((3, 2))
        rng = np.random.default_rng(42)
        s = 0
        for _ in range(100_000):
            a = int(rng.integers(2))  # off-policy uniform behavior
            visits[s, a] += 1
            alpha = 1.0 / visits[s, a] ** 0.7
            s2 = transitions[s][a]
            q_update(q, s, a, rewards[s][a], s2, alpha, gamma)
            s = s2
        assert float(np.abs(q - oracle).max()) < 1e-2
