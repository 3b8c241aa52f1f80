"""Action selection from predicted measurement changes, and goal providers.

An action's utility is the horizon-weighted sum of goal-weighted predicted
measurement changes; the agent takes the argmax, breaking ties toward the
lowest action index. Goal vectors come from a provider queried every step on
the current measurements: a constant, the health-threshold rule, the fixed
defensive vector, or an evolved goal network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import goal_net
from .env import N_ACTIONS, GridBattleEnv, Measurements, normalize_measurements

# Aggressive default goal: some weight on ammo and health, full weight on kills.
STATIC_GOAL = (0.5, 0.5, 1.0)
# Retreat goal used by the hardcoded rule when health drops below 50%.
RETREAT_GOAL = (0.0, 1.0, -1.0)
# Fully defensive goal: max ammo/health weight, max negative kill weight.
DEFENSIVE_GOAL = (1.0, 1.0, -1.0)

HARDCODED_HEALTH_THRESHOLD = 50  # strict: retreat only when health < 50

def default_horizon_weights(n_offsets: int) -> tuple[float, ...]:
    """Long-horizon emphasis for any offset count: the last offset weighs 1,
    the two before it 0.5, the rest 0: (0, 0, 0, 0.5, 0.5, 1) for the six
    default offsets."""
    if n_offsets < 1:
        raise ValueError("need at least one temporal offset")
    w = [0.0] * n_offsets
    w[-1] = 1.0
    if n_offsets >= 2:
        w[-2] = 0.5
    if n_offsets >= 3:
        w[-3] = 0.5
    return tuple(w)


def action_utilities(predictions: np.ndarray, g, w) -> np.ndarray:
    """Utility of every action from an (A, K, 3) prediction tensor:
    sum_k w_k * (g . predicted_delta_at_offset_k)."""
    preds = np.asarray(predictions, dtype=float)
    return (preds @ np.asarray(g, dtype=float)) @ np.asarray(w, dtype=float)


def select_action(net, obs: np.ndarray, m: Measurements, g,
                  w=None) -> int:
    """Argmax-utility action; ties resolve to the lowest action index."""
    predictions = net.forward(obs, m, g)
    if w is None:
        w = default_horizon_weights(predictions.shape[1])
    return int(np.argmax(action_utilities(predictions, g, w)))


# -- goal providers ----------------------------------------------------------


@dataclass(frozen=True)
class StaticGoal:
    goal: tuple[float, float, float] = STATIC_GOAL

    def __call__(self, m: Measurements) -> np.ndarray:
        return np.array(self.goal, dtype=float)


@dataclass(frozen=True)
class HardcodedGoal:
    """Aggressive goal normally; retreat goal when health is below 50%."""

    def __call__(self, m: Measurements) -> np.ndarray:
        if m.health < HARDCODED_HEALTH_THRESHOLD:
            return np.array(RETREAT_GOAL)
        return np.array(STATIC_GOAL)


class NetworkGoal:
    """Goal network queried each step on the normalized measurements."""

    def __init__(self, net: goal_net.FeedForwardNet):
        self.net = net

    def __call__(self, m: Measurements) -> np.ndarray:
        return goal_net.activate(self.net, normalize_measurements(m))


def parse_goal_spec(spec: str):
    """Build a provider from a spec string:
    ``static:a,b,c`` | ``hardcoded`` | ``defensive`` | ``evolved:<genome file>``.
    """
    spec = spec.strip()
    if spec == "hardcoded":
        return HardcodedGoal()
    if spec == "defensive":
        return StaticGoal(DEFENSIVE_GOAL)
    if spec == "static":
        return StaticGoal()
    if spec.startswith("static:"):
        parts = spec[len("static:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"static goal needs 3 components: {spec!r}")
        goal = tuple(float(p) for p in parts)
        if not all(-1.0 <= v <= 1.0 for v in goal):  # NaN fails too
            raise ValueError(f"goal components must lie in [-1, 1]: {spec!r}")
        return StaticGoal(goal)
    if spec.startswith("evolved:"):
        path = spec[len("evolved:"):]
        genome = goal_net.load_genome(path)
        return NetworkGoal(goal_net.decode(genome))
    raise ValueError(f"unknown goal provider spec {spec!r}")


def goal_spec_label(spec: str) -> str:
    """Short label for reports: 'static', 'hardcoded', 'defensive', 'evolved'."""
    return spec.split(":", 1)[0]


# -- episode rollout ---------------------------------------------------------


def play_episode(env: GridBattleEnv, seed: int, net, provider,
                 horizon_weights=None, epsilon: float = 0.0,
                 rng: np.random.Generator | None = None):
    """Play one full episode with goal-conditioned action selection, yielding
    ``(obs, m, g, action)`` before each step, so the env shows that step's
    state while the caller holds it; once exhausted, the env holds the
    finished episode. The provider is queried on the current measurements
    every step, so goals may change mid-episode. Given ``rng``, each step
    draws ``rng.random()``, even at ``epsilon`` 0, and acts at random when
    the draw is below ``epsilon``."""
    if horizon_weights is None:
        horizon_weights = default_horizon_weights(net.n_offsets)
    horizon_weights = np.asarray(horizon_weights, dtype=float)
    m = env.reset(seed)
    done = False
    while not done:
        g = provider(m)
        obs = env.observe()
        if rng is not None and rng.random() < epsilon:
            action = int(rng.integers(N_ACTIONS))
        else:
            action = select_action(net, obs, m, g, horizon_weights)
        yield obs, m, g, action
        m, done = env.step(action)
