"""Tabular Q-learning agent that retunes the AQM target/interval pair.

States are discretized congestion levels, all scaled against the running
maximum of the observed counts of ECE-marked packets. A decision's state is
the last 100 ms bin measured before it. Its successor is the caller's
forecast of the bin after the next decision's state, the first 100 ms that
decision's action governs: the next state's own bin is already measured
when `decide` runs. Actions map to a fixed grid of 100 target values with
interval locked at 20x target. The reward is the connection's power:
throughput divided by measured RTT.
"""
from __future__ import annotations

import math

import numpy as np

from .engine import US

N_LEVELS = 100
N_ACTIONS = 100
ACTION_STEP_NS = 50 * US
INTERVAL_FACTOR = 20  # target is 5% of interval


def discretize(value: float, max_ref: float) -> int:
    """floor(N_LEVELS * value / max_ref), clamped into [0, N_LEVELS-1]."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    if max_ref <= 0:
        return 0
    return min(int(N_LEVELS * value / max_ref), N_LEVELS - 1)


def action_to_params(index: int) -> tuple:
    """Grid point: target = (index+1) * 50 us, interval = 20 * target."""
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index {index} outside [0, {N_ACTIONS - 1}]")
    target = (index + 1) * ACTION_STEP_NS
    return target, INTERVAL_FACTOR * target


def select_action(q: np.ndarray, state: int, epsilon: float, rng) -> int:
    """Epsilon-greedy over one table row; argmax ties break to lowest index."""
    if not 0 <= state < q.shape[0]:
        raise ValueError(f"state {state} out of range")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, q.shape[1]))
    return int(np.argmax(q[state]))


def q_update(q: np.ndarray, s: int, a: int, r: float, s_next: int,
             alpha: float, gamma: float) -> None:
    """Watkins' one-step update of q[s, a] in place."""
    if not math.isfinite(r):
        raise ValueError(f"non-finite reward: {r}")
    best_next = q[s_next].max()
    q[s, a] += alpha * (r + gamma * best_next - q[s, a])


def power_reward(throughput_bps: float, rtt_s: float, normalizer: float) -> float:
    """Normalized power, throughput / RTT / normalizer; the normalizer
    (bottleneck_bps / base_rtt) keeps rewards O(1) and, scaling every reward
    equally, leaves argmax unchanged."""
    if rtt_s <= 0:
        raise ValueError("measured RTT must be positive")
    if throughput_bps < 0:
        raise ValueError("throughput must be nonnegative")
    if normalizer <= 0:
        raise ValueError("normalizer must be positive")
    return throughput_bps / rtt_s / normalizer


class QLearningTuner:
    """Drives one decision per epoch: observe, select, apply, later learn
    from the reward and a forecast count that the caller supplies.

    `q` is the 100x100 action-value table; states and successors are
    discretized against `max_obs_ref`, never below 1."""

    def __init__(self, alpha: float, gamma: float, epsilon: float, rng):
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon
        self.rng = rng
        self.q = np.zeros((N_LEVELS, N_ACTIONS))
        self.max_obs_ref = 1.0
        self.pending = None  # (state, action) of the decision awaiting its reward
        self.updates = 0

    def decide(self, observed_count: float) -> int:
        """Pick, record and return the action index for the next epoch."""
        self.max_obs_ref = max(self.max_obs_ref, float(observed_count))
        s = discretize(observed_count, self.max_obs_ref)
        a = select_action(self.q, s, self.epsilon, self.rng)
        self.pending = (s, a)
        return a

    def learn(self, reward: float, predicted: float) -> None:
        """Close out the pending decision with its reward, its next state
        the forecast next count; with no decision outstanding, do nothing."""
        if self.pending is None:
            return
        s_next = discretize(predicted, self.max_obs_ref)
        q_update(self.q, *self.pending, reward, s_next, self.alpha, self.gamma)
        self.updates += 1
