"""Multi-horizon measurement predictor.

A plain MLP maps (observation, normalized measurements, goal vector) to the
predicted change of each measurement at several future offsets, one block per
action. It is trained self-supervised from replayed episodes: the targets are
the measurement changes that actually followed, and only the taken action's
block enters the loss. Goal vectors are drawn uniformly from [-1, 1]^3 at
each episode start, so the model never commits to one objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .configio import ConfigError
from .env import (DEFAULT_OBS_RADIUS, MEASUREMENT_SCALES, N_ACTIONS,
                  Measurements, normalize_measurements, observation_size)
from .seeds import derive_seed

DEFAULT_OFFSETS = (1, 2, 4, 8, 16, 32)
N_MEASUREMENTS = 3
LEAKY_SLOPE = 0.01

MODEL_FORMAT = "goalevo-predictor"
MODEL_VERSION = 1


@dataclass(frozen=True)
class PredictorConfig:
    temporal_offsets: tuple[int, ...] = DEFAULT_OFFSETS
    hidden_sizes: tuple[int, ...] = (128, 128)
    learning_rate: float = 1e-3
    momentum: float = 0.9  # adam beta1
    batch_size: int = 64
    replay_capacity: int = 100_000
    # epsilon anneals linearly, once per episode, from start to end over the
    # first half of the episodes
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    training_episodes: int = 2000
    train_interval: int = 8  # one gradient step per this many env steps

    def validate(self) -> None:
        offs = self.temporal_offsets
        if len(offs) < 1:
            raise ConfigError("need at least one temporal offset")
        if any(o <= 0 for o in offs):
            raise ConfigError("temporal offsets must be positive")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ConfigError("temporal offsets must be strictly increasing")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ConfigError("replay capacity must hold at least one batch")
        if self.training_episodes < 1 or self.train_interval < 1:
            raise ConfigError("training_episodes and train_interval must be >= 1")


def _leaky_grad(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


class PredictorNet:
    """MLP regressor with leaky-rectifier hidden layers and a linear output
    that reshapes to one (offset, measurement) block per action."""

    def __init__(self, obs_dim: int,
                 offsets=PredictorConfig.temporal_offsets,
                 hidden_sizes=PredictorConfig.hidden_sizes,
                 n_actions: int = N_ACTIONS,
                 learning_rate: float = PredictorConfig.learning_rate,
                 momentum: float = PredictorConfig.momentum,
                 rng: np.random.Generator | None = None):
        self.obs_dim = int(obs_dim)
        self.offsets = tuple(int(o) for o in offsets)
        self.n_actions = int(n_actions)
        self.n_offsets = len(self.offsets)
        self.input_dim = self.obs_dim + 2 * N_MEASUREMENTS
        self.output_dim = self.n_actions * self.n_offsets * N_MEASUREMENTS
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)

        sizes = [self.input_dim, *hidden_sizes, self.output_dim]
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for d_in, d_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(2.0 / d_in)
            self.weights.append(rng.normal(0.0, scale, size=(d_out, d_in)))
            self.biases.append(np.zeros(d_out))
        self._reset_optimizer_state()

    def _reset_optimizer_state(self) -> None:
        params = self.weights + self.biases
        self._vel = [np.zeros_like(p) for p in params]  # adam m
        self._sq = [np.zeros_like(p) for p in params]   # adam v
        self._t = 0

    # -- forward -------------------------------------------------------------

    def input_vector(self, obs: np.ndarray, m: Measurements, g) -> np.ndarray:
        if len(obs) != self.obs_dim:
            raise ValueError(
                f"observation has length {len(obs)}, expected {self.obs_dim}")
        x = np.empty(self.input_dim)
        x[:self.obs_dim] = obs
        x[self.obs_dim:self.obs_dim + N_MEASUREMENTS] = normalize_measurements(m)
        x[self.obs_dim + N_MEASUREMENTS:] = g
        return x

    def forward(self, obs: np.ndarray, m: Measurements, g) -> np.ndarray:
        """Predicted measurement deltas, shaped (action, offset, measurement)."""
        x = self.input_vector(obs, m, g)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = w @ x + b
            np.maximum(x, LEAKY_SLOPE * x, out=x)
        out = self.weights[-1] @ x + self.biases[-1]
        return out.reshape(self.n_actions, self.n_offsets, N_MEASUREMENTS)


# -- experience ---------------------------------------------------------------


@dataclass
class ExperienceSample:
    """One training tuple. Targets are measurement deltas divided by the
    shared normalization scales (no clipping, unlike observation levels);
    offsets that overrun the episode end are masked out of the loss."""

    obs: np.ndarray          # float32 observation vector
    m_norm: np.ndarray       # (3,) normalized measurements at t
    goal: np.ndarray         # (3,) goal vector held for the episode
    action: int
    targets: np.ndarray      # (K, 3) scaled deltas, zeros where masked
    mask: np.ndarray         # (K,) bool, True where the offset fits the episode


def episode_to_samples(observations, measurements, goal, actions,
                       offsets) -> list[ExperienceSample]:
    """Turn one finished episode into training samples.

    ``measurements`` holds the raw (ammo, health, kills) arrays and has one
    more entry than ``observations``/``actions`` (the values after the final
    transition). Offset tau is valid at step t when t + tau is still inside
    the episode.
    """
    horizon = len(actions)
    if len(measurements) != horizon + 1:
        raise ValueError(
            "need final measurements: len(measurements) == len(actions)+1")
    offsets = tuple(offsets)
    goal = np.asarray(goal, dtype=float)
    raw = [np.asarray(m, dtype=float) for m in measurements]
    samples = []
    for t in range(horizon):
        targets = np.zeros((len(offsets), N_MEASUREMENTS))
        mask = np.zeros(len(offsets), dtype=bool)
        for k, tau in enumerate(offsets):
            if t + tau <= horizon:
                targets[k] = (raw[t + tau] - raw[t]) / MEASUREMENT_SCALES
                mask[k] = True
        samples.append(ExperienceSample(
            obs=np.asarray(observations[t], dtype=np.float32),
            m_norm=np.clip(raw[t] / MEASUREMENT_SCALES, 0.0, 1.0),
            goal=goal,
            action=int(actions[t]),
            targets=targets,
            mask=mask,
        ))
    return samples


class ReplayBuffer:
    """Uniform-sampling ring buffer."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._items: list[ExperienceSample] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def append(self, sample: ExperienceSample) -> None:
        if len(self._items) < self.capacity:
            self._items.append(sample)
        else:
            self._items[self._next] = sample
        self._next = (self._next + 1) % self.capacity

    def extend(self, samples) -> None:
        for s in samples:
            self.append(s)

    def sample(self, rng: np.random.Generator,
               batch_size: int) -> list[ExperienceSample]:
        idx = rng.integers(len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


# -- loss and training --------------------------------------------------------


def _assemble(net: PredictorNet, batch):
    if len(batch) == 0:
        raise ValueError("empty batch")
    x = np.empty((len(batch), net.input_dim))
    actions = np.empty(len(batch), dtype=int)
    targets = np.empty((len(batch), net.n_offsets, N_MEASUREMENTS))
    mask = np.empty((len(batch), net.n_offsets), dtype=bool)
    for i, s in enumerate(batch):
        x[i, :net.obs_dim] = s.obs
        x[i, net.obs_dim:net.obs_dim + 3] = s.m_norm
        x[i, net.obs_dim + 3:] = s.goal
        actions[i] = s.action
        targets[i] = s.targets
        mask[i] = s.mask
    return x, actions, targets, mask


def _loss(net: PredictorNet, batch, need_grads: bool):
    """Batched forward pass, loss and, if asked, the backward pass."""
    x, actions, targets, mask = _assemble(net, batch)
    n_valid = int(mask.sum()) * N_MEASUREMENTS
    if n_valid == 0:
        raise ValueError("batch has no valid targets (all offsets masked)")

    acts = [x]
    zs = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(np.maximum(z, LEAKY_SLOPE * z))
    out = acts[-1] @ net.weights[-1].T + net.biases[-1]
    preds = out.reshape(len(batch), net.n_actions, net.n_offsets, N_MEASUREMENTS)
    rows = np.arange(len(batch))
    taken = preds[rows, actions]                       # (B, K, 3)
    err = (taken - targets) * mask[:, :, None]
    loss = float(np.sum(err * err) / n_valid)
    if not need_grads:
        return loss, None, None

    d_out = np.zeros_like(preds)
    d_out[rows, actions] = 2.0 * err / n_valid
    delta = d_out.reshape(len(batch), net.output_dim)

    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ acts[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * _leaky_grad(zs[layer - 1])
    return loss, grads_w, grads_b


def gradients(net: PredictorNet, batch):
    """Loss plus analytic parameter gradients for a batch.

    The loss is the mean squared error over the valid (offset, measurement)
    entries of each sample's taken action.
    """
    return _loss(net, batch, need_grads=True)


def batch_loss(net: PredictorNet, batch) -> float:
    """Loss on a batch without updating anything."""
    return _loss(net, batch, need_grads=False)[0]


ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def train_step(net: PredictorNet, batch) -> float:
    """One Adam update (beta1 from the momentum field, standard beta2 and
    epsilon); returns the pre-update loss."""
    loss, grads_w, grads_b = gradients(net, batch)
    params = net.weights + net.biases
    grads = grads_w + grads_b
    net._t += 1
    beta1 = net.momentum
    corr1 = 1.0 - beta1 ** net._t
    corr2 = 1.0 - ADAM_BETA2 ** net._t
    for p, g, m, v in zip(params, grads, net._vel, net._sq):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= net.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
    return loss


# -- collection loop ----------------------------------------------------------


@dataclass
class EpochStats:
    episode: int
    loss: float  # mean update loss during the episode; NaN if no updates ran
    epsilon: float
    goal: np.ndarray = field(default_factory=lambda: np.zeros(3))
    action_counts: np.ndarray = field(default_factory=lambda: np.zeros(N_ACTIONS,
                                                                       dtype=int))


def epsilon_at(step: int, start: float, end: float, decay_steps: int) -> float:
    frac = min(1.0, step / max(1, decay_steps))
    return start + (end - start) * frac


def collect_and_train(env_factory, config: PredictorConfig, seed: int,
                      horizon_weights=None, net: PredictorNet | None = None,
                      progress=None):
    """Run epsilon-greedy episodes with per-episode random goals, filling a
    replay buffer and applying periodic gradient steps.

    Returns the trained net and one EpochStats per episode. Passing ``net``
    continues training an existing network instead of building a fresh one.
    """
    from .policy import default_horizon_weights, select_action

    config.validate()
    if horizon_weights is None:
        horizon_weights = default_horizon_weights(len(config.temporal_offsets))
    horizon_weights = np.asarray(horizon_weights, dtype=float)
    env = env_factory()
    decay_episodes = max(1, config.training_episodes // 2)

    if net is None:
        net = PredictorNet(
            observation_size(DEFAULT_OBS_RADIUS),
            offsets=config.temporal_offsets,
            hidden_sizes=config.hidden_sizes,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            rng=np.random.default_rng(derive_seed(seed, 0)),
        )
    rng = np.random.default_rng(derive_seed(seed, 1))
    replay = ReplayBuffer(config.replay_capacity)

    log: list[EpochStats] = []
    for ep in range(config.training_episodes):
        goal = rng.uniform(-1.0, 1.0, size=3)
        env.reset(derive_seed(seed, 2, ep))
        observations, actions = [], []
        m_raw = [env.measurements.as_array()]
        action_counts = np.zeros(N_ACTIONS, dtype=int)
        eps = epsilon_at(ep, config.epsilon_start, config.epsilon_end,
                         decay_episodes)
        done = False
        while not done:
            obs = env.observe()
            m = env.measurements
            if rng.random() < eps:
                action = int(rng.integers(N_ACTIONS))
            else:
                action = select_action(net, obs, m, goal, horizon_weights)
            observations.append(obs)
            actions.append(action)
            action_counts[action] += 1
            m, done = env.step(action)
            m_raw.append(m.as_array())
        replay.extend(episode_to_samples(observations, m_raw, goal, actions,
                                         config.temporal_offsets))
        losses = []
        if len(replay) >= config.batch_size:
            for _ in range(max(1, len(actions) // config.train_interval)):
                losses.append(train_step(net, replay.sample(rng,
                                                            config.batch_size)))
        stats = EpochStats(ep, float(np.mean(losses)) if losses else float("nan"),
                           eps, goal=goal, action_counts=action_counts)
        log.append(stats)
        if progress is not None:
            progress(stats)
    return net, log


def write_loss_csv(log: list[EpochStats], path: str | Path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "loss", "epsilon"))
        for row in log:
            writer.writerow((row.episode, repr(row.loss), repr(row.epsilon)))


# -- persistence --------------------------------------------------------------


def save_predictor(net: PredictorNet, path: str | Path,
                   config_echo: dict | None = None) -> None:
    """Write a self-describing model file: one JSON header line with layer
    shapes and a config echo, followed by the flat little-endian float64
    parameter arrays in header order."""
    arrays = []
    names = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays += [w, b]
        names += [f"w{i}", f"b{i}"]
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "obs_dim": net.obs_dim,
        "offsets": list(net.offsets),
        "n_actions": net.n_actions,
        "hidden_sizes": [w.shape[0] for w in net.weights[:-1]],
        "learning_rate": net.learning_rate,
        "momentum": net.momentum,
        "arrays": [{"name": n, "shape": list(a.shape)}
                   for n, a in zip(names, arrays)],
        "config": config_echo or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_predictor(path: str | Path):
    """Inverse of save_predictor; returns (net, config echo)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line)
    if header.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a predictor model file")
    net = PredictorNet(
        header["obs_dim"],
        offsets=header["offsets"],
        hidden_sizes=header["hidden_sizes"],
        n_actions=header["n_actions"],
        learning_rate=header["learning_rate"],
        momentum=header["momentum"],
    )
    offset = 0
    arrays = []
    for meta in header["arrays"]:
        shape = tuple(meta["shape"])
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=offset).reshape(shape).astype(float)
        arrays.append(arr)
        offset += count * 8
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes in model file")
    for i in range(len(net.weights)):
        net.weights[i] = arrays[2 * i]
        net.biases[i] = arrays[2 * i + 1]
    net._reset_optimizer_state()
    return net, header.get("config", {})
