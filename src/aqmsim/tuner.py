"""Tabular Q-learning agent that retunes the AQM target/interval pair.

States are discretized congestion levels: the observed per-interval count of
ECE-marked packets (current state) and the forecaster's next-interval
estimate (next state), both scaled against their running maxima. Actions map
to a fixed grid of 100 target values with interval locked at 20x target. The
reward is the connection's power: throughput divided by measured RTT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import US

N_LEVELS = 100
N_ACTIONS = 100
ACTION_STEP_NS = 50 * US
INTERVAL_FACTOR = 20  # target is 5% of interval


@dataclass
class TunerConfig:
    alpha: float = 0.5
    gamma: float = 0.8
    epsilon: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class RewardSample:
    """Probe-measured goodput and round trip for one decision epoch."""
    throughput_bps: float
    mrtt_s: float

    def power(self) -> float:
        if self.mrtt_s <= 0:
            raise ValueError("measured RTT must be positive")
        if self.throughput_bps < 0:
            raise ValueError("throughput must be nonnegative")
        return self.throughput_bps / self.mrtt_s


class QTable:
    """100x100 action-value matrix plus the discretization reference maxima."""

    def __init__(self, n_states: int = N_LEVELS, n_actions: int = N_ACTIONS):
        self.values = np.zeros((n_states, n_actions))
        self.max_obs_ref = 1.0
        self.max_pred_ref = 1.0

    def note_observed(self, value: float) -> None:
        if value > self.max_obs_ref:
            self.max_obs_ref = float(value)

    def note_predicted(self, value: float) -> None:
        if value > self.max_pred_ref:
            self.max_pred_ref = float(value)


def discretize(value: float, max_ref: float, levels: int = N_LEVELS) -> int:
    """floor(levels * value / max_ref), clamped into [0, levels-1]."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    if max_ref <= 0:
        return 0
    level = int(levels * value / max_ref)
    if level < 0:
        return 0
    if level > levels - 1:
        return levels - 1
    return level


def action_to_params(index: int) -> tuple:
    """Grid point: target = (index+1) * 50 us, interval = 20 * target."""
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index {index} outside [0, {N_ACTIONS - 1}]")
    target = (index + 1) * ACTION_STEP_NS
    return target, INTERVAL_FACTOR * target


def select_action(q: QTable, state: int, epsilon: float, rng) -> int:
    """Epsilon-greedy over one table row; argmax ties break to lowest index."""
    if not 0 <= state < q.values.shape[0]:
        raise ValueError(f"state {state} out of range")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, q.values.shape[1]))
    return int(np.argmax(q.values[state]))


def q_update(q: QTable, s: int, a: int, r: float, s_next: int,
             alpha: float, gamma: float) -> None:
    if not math.isfinite(r):
        raise ValueError(f"non-finite reward: {r}")
    row = q.values
    best_next = row[s_next].max()
    row[s, a] += alpha * (r + gamma * best_next - row[s, a])


def power_reward(sample: RewardSample, normalizer: float) -> float:
    """Normalized power; the normalizer (bottleneck_bps / base_rtt) keeps
    rewards O(1) and, scaling every reward equally, leaves argmax unchanged."""
    if normalizer <= 0:
        raise ValueError("normalizer must be positive")
    return sample.power() / normalizer


@dataclass
class EpochDecision:
    state: int
    action: int
    target_ns: int
    interval_ns: int


class QLearningTuner:
    """Drives one decision per epoch: observe, select, apply, later learn."""

    def __init__(self, config: TunerConfig, predictor, rng,
                 reward_normalizer: float, table: QTable | None = None):
        self.config = config
        self.predictor = predictor
        self.rng = rng
        self.reward_normalizer = reward_normalizer
        self.table = table if table is not None else QTable()
        self.pending: EpochDecision | None = None
        self.updates = 0

    def decide(self, observed_count: float) -> EpochDecision:
        """Pick and record the action for the next epoch."""
        self.table.note_observed(observed_count)
        s = discretize(observed_count, self.table.max_obs_ref)
        a = select_action(self.table, s, self.config.epsilon, self.rng)
        target, interval = action_to_params(a)
        self.pending = EpochDecision(s, a, target, interval)
        return self.pending

    def learn(self, sample: RewardSample, recent_counts) -> tuple:
        """Close out the pending decision with its measured reward.

        Returns (reward, predicted_next_count) for logging; no-op when no
        decision is outstanding.
        """
        reward = power_reward(sample, self.reward_normalizer)
        predicted = self.predictor.predict_next_count(recent_counts)
        if self.pending is None:
            return reward, predicted
        self.table.note_predicted(predicted)
        s_next = discretize(predicted, self.table.max_pred_ref)
        q_update(self.table, self.pending.state, self.pending.action, reward,
                 s_next, self.config.alpha, self.config.gamma)
        self.updates += 1
        return reward, predicted
