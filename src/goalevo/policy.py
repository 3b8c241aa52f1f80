"""Action selection from predicted measurement changes, goal providers, and
the lockstep episode rollout.

An action's utility is the horizon-weighted sum of goal-weighted predicted
measurement changes; the agent takes the argmax, breaking ties toward the
lowest action index. Goal vectors come from a provider queried every step on
the current measurements: a constant, the health-threshold rule, the fixed
defensive vector, or an evolved goal network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import goal_net
from .env import N_ACTIONS, Measurements, normalize_measurements

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
    return ((0.0,) * n_offsets + (0.5, 0.5, 1.0))[-n_offsets:]


def action_utilities(predictions: np.ndarray, g, w) -> np.ndarray:
    """Utility of every action from an (A, K, 3) prediction tensor and a goal
    of 3, or per lane from an (L, A, K, 3) stack and (L, 3) goals:
    sum_k w_k * (g . predicted_delta_at_offset_k). The goal enters as a
    one-column matrix, so each lane takes the products it would alone."""
    preds = np.asarray(predictions, dtype=float)
    g = np.asarray(g, dtype=float)[..., None, :, None]
    return (preds @ g)[..., 0] @ np.asarray(w, dtype=float)


def select_action(net, obs: np.ndarray, m, g, w=None):
    """Argmax-utility action, or a list of one per lane given stacked lanes
    (see ``PredictorNet.forward``); ties resolve to the lowest action
    index."""
    predictions = net.forward(obs, m, g)
    if w is None:
        w = default_horizon_weights(predictions.shape[-2])
    return action_utilities(predictions, g, w).argmax(axis=-1).tolist()


# -- goal providers ----------------------------------------------------------


def _read_only(goal) -> np.ndarray:
    array = np.array(goal, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StaticGoal:
    goal: tuple[float, float, float] = STATIC_GOAL
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_array", _read_only(self.goal))

    def __call__(self, m: Measurements) -> np.ndarray:
        return self._array


_AGGRESSIVE = _read_only(STATIC_GOAL)
_RETREAT = _read_only(RETREAT_GOAL)


@dataclass(frozen=True)
class HardcodedGoal:
    """Aggressive goal normally; retreat goal when health is below 50%."""

    def __call__(self, m: Measurements) -> np.ndarray:
        if m.health < HARDCODED_HEALTH_THRESHOLD:
            return _RETREAT
        return _AGGRESSIVE


class NetworkGoal:
    """Goal network queried on the normalized measurements, once per distinct
    measurement triple: the goal of a triple seen before is its cached,
    read-only array."""

    def __init__(self, net: goal_net.FeedForwardNet):
        self.net = net
        self._goals: dict[Measurements, np.ndarray] = {}

    def __call__(self, m: Measurements) -> np.ndarray:
        g = self._goals.get(m)
        if g is None:
            g = self._goals[m] = goal_net.activate(self.net,
                                                   normalize_measurements(m))
            g.flags.writeable = False
        return g


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


def run_episodes(envs, seeds, net, providers, horizon_weights=None,
                 epsilon: float = 0.0, rng: np.random.Generator | None = None):
    """Play one episode per lane in lockstep, lane i playing ``seeds[i]`` in
    ``envs[i]`` with ``providers[i]``.

    Before each step it yields the live lanes, in lane order, as a list of
    ``(i, obs, m, g, action)``; while the caller holds the list, each live
    lane's env shows that step's state. A lane leaves once its episode ends,
    and once the rollout is exhausted each env holds its finished episode.
    Providers are queried on the current measurements every step, so goals
    may change mid-episode. Given ``rng``, each live lane draws
    ``rng.random()`` per step, in lane order and even at ``epsilon`` 0, and
    acts at random when the draw is below ``epsilon``. The other lanes are
    scored by one stacked predictor pass per step, and each picks the action
    it would pick played alone."""
    if horizon_weights is None:
        horizon_weights = default_horizon_weights(net.n_offsets)
    horizon_weights = np.asarray(horizon_weights, dtype=float)
    ms = [env.reset(seed) for env, seed in zip(envs, seeds)]
    done = [False] * len(ms)
    live = list(range(len(ms)))
    while live:
        obs = [envs[i].observe() for i in live]
        gs = [providers[i](ms[i]) for i in live]
        actions = [int(rng.integers(N_ACTIONS))
                   if rng is not None and rng.random() < epsilon else None
                   for _ in live]
        greedy = [j for j, a in enumerate(actions) if a is None]
        if greedy:
            picks = select_action(net, [obs[j] for j in greedy],
                                  [ms[live[j]] for j in greedy],
                                  [gs[j] for j in greedy], horizon_weights)
            for j, a in zip(greedy, picks):
                actions[j] = a
        yield [(i, obs[j], ms[i], gs[j], actions[j])
               for j, i in enumerate(live)]
        for i, a in zip(live, actions):
            ms[i], done[i] = envs[i].step(a)
        live = [i for i in live if not done[i]]
