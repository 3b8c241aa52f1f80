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
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .configio import ConfigError, bounded, check_bounds
from .env import (MEASUREMENT_SCALES, N_ACTIONS, normalize_measurements,
                  observation_size)
from .policy import StaticGoal, run_episodes
from .seeds import derive_seed

DEFAULT_OFFSETS = (1, 2, 4, 8, 16, 32)
N_MEASUREMENTS = 3
LEAKY_SLOPE = 0.01

MODEL_FORMAT = "goalevo-predictor"
MODEL_VERSION = 1


@dataclass(frozen=True)
class PredictorConfig:
    temporal_offsets: tuple[int, ...] = bounded(DEFAULT_OFFSETS, 0,
                                                open_lo=True)
    hidden_sizes: tuple[int, ...] = bounded((128, 128), 1)
    learning_rate: float = bounded(1e-3, 0.0, open_lo=True)
    momentum: float = bounded(0.9, 0.0, 1.0, open_hi=True)  # adam beta1
    batch_size: int = bounded(64, 1)
    replay_capacity: int = 100_000
    # epsilon anneals linearly, once per episode, from start to end over the
    # first half of the episodes
    epsilon_start: float = bounded(1.0, 0.0, 1.0)
    epsilon_end: float = bounded(0.1, 0.0, 1.0)
    training_episodes: int = bounded(2000, 1)
    train_interval: int = bounded(8, 1)  # env steps per gradient step

    def __post_init__(self) -> None:
        check_bounds(self)
        offs = self.temporal_offsets
        if not offs or any(b <= a for a, b in zip(offs, offs[1:])):
            raise ConfigError("temporal_offsets must be non-empty and "
                              f"strictly increasing, got {offs!r}")
        if self.replay_capacity < self.batch_size:
            raise ConfigError("replay_capacity must be >= batch_size")


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

        # He-normal weights from ``rng``; without one, every parameter starts
        # at zero (``load_predictor`` overwrites them all)
        sizes = [self.input_dim, *hidden_sizes, self.output_dim]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for d_in, d_out in zip(sizes, sizes[1:]):
            self.weights.append(
                np.zeros((d_out, d_in)) if rng is None
                else rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in)))
            self.biases.append(np.zeros(d_out))
        params = self.weights + self.biases
        self._vel = [np.zeros_like(p) for p in params]  # adam m
        self._sq = [np.zeros_like(p) for p in params]   # adam v
        self._t = 0
        self._work: _Workspace | None = None  # train_step's, on first call

    # -- forward -------------------------------------------------------------

    def forward(self, obs: np.ndarray, m, g) -> np.ndarray:
        """Predicted measurement deltas, shaped (action, offset, measurement),
        for one observation with its Measurements and goal; or, for L lanes
        given as (L, D) observations, L Measurements and (L, 3) goals, one
        such block per lane, shaped (L, action, offset, measurement). The
        layers run on an (L, 1, D) stack, one vector product per lane, so a
        lane's block is bit for bit the one it gets alone; an (L, D) matrix
        product may sum in another order."""
        obs = np.asarray(obs)
        if obs.shape[-1] != self.obs_dim:
            raise ValueError(f"observation has length {obs.shape[-1]}, "
                             f"expected {self.obs_dim}")
        x = np.concatenate([
            obs.reshape(-1, self.obs_dim),
            normalize_measurements(m).reshape(-1, N_MEASUREMENTS),
            np.asarray(g, dtype=float).reshape(-1, N_MEASUREMENTS)], axis=1)
        out = _layers(self, x[:, None])[-1].reshape(
            -1, self.n_actions, self.n_offsets, N_MEASUREMENTS)
        return out if obs.ndim == 2 else out[0]


def _layers(net: PredictorNet, x: np.ndarray,
            outs: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """The input of each layer, then the output, for a stack of input rows:
    (L, 1, D) lanes for acting, a (B, D) batch for learning; acting and
    learning share this one pass. Given ``outs``, one array per layer output,
    the layers write into them."""
    acts = [x]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(acts[-1], w.T, out=None if outs is None else outs[layer])
        z += b
        if layer < len(net.weights) - 1:
            np.maximum(z, LEAKY_SLOPE * z, out=z)
        acts.append(z)
    return acts


# -- experience ---------------------------------------------------------------


@dataclass
class Experience:
    """Training rows, one per agent step, stacked field by field. Targets are
    measurement deltas divided by the shared normalization scales (no
    clipping, unlike observation levels); offsets that overrun the episode
    end are masked out of the loss."""

    obs: np.ndarray          # (N, D) float32 observation vectors
    m_norm: np.ndarray       # (N, 3) normalized measurements at t
    goal: np.ndarray         # (N, 3) goal vector held for the episode
    action: np.ndarray       # (N,) int
    targets: np.ndarray      # (N, K, 3) scaled deltas, zeros where masked
    mask: np.ndarray         # (N, K) bool, True where the offset fits the episode

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, rows) -> Experience:
        """The rows selected by a slice or an index array."""
        return Experience(*(a[rows] for a in vars(self).values()))


def episode_to_samples(observations, measurements, goal, actions,
                       offsets) -> Experience:
    """Turn one finished episode into training rows.

    ``measurements`` holds the raw (ammo, health, kills) triples and has one
    more entry than ``observations``/``actions`` (the values after the final
    transition). Offset tau is valid at step t when t + tau is still inside
    the episode.
    """
    horizon = len(actions)
    if len(measurements) != horizon + 1:
        raise ValueError(
            "need final measurements: len(measurements) == len(actions)+1")
    raw = np.asarray(measurements, dtype=float)
    targets = np.zeros((horizon, len(offsets), N_MEASUREMENTS))
    mask = np.zeros((horizon, len(offsets)), dtype=bool)
    for k, tau in enumerate(offsets):
        fit = max(0, horizon + 1 - tau)  # steps t with t + tau <= horizon
        targets[:fit, k] = (raw[tau:] - raw[:fit]) / MEASUREMENT_SCALES
        mask[:fit, k] = True
    return Experience(
        obs=np.asarray(observations, dtype=np.float32),
        m_norm=normalize_measurements(raw[:-1]),
        goal=np.tile(np.asarray(goal, dtype=float), (horizon, 1)),
        action=np.asarray(actions, dtype=int),
        targets=targets,
        mask=mask,
    )


class ReplayBuffer:
    """Uniform-sampling ring of experience rows, one preallocated array per
    field, allocated on the first ``extend`` once the row shapes are known."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._rows: Experience | None = None
        self._added = 0

    def __len__(self) -> int:
        return min(self.capacity, self._added)

    def extend(self, rows: Experience) -> None:
        """Append rows in order, overwriting the oldest once full."""
        if self._rows is None:
            self._rows = Experience(*(
                np.empty((self.capacity, *a.shape[1:]), dtype=a.dtype)
                for a in vars(rows).values()))
        n = len(rows)
        kept = min(n, self.capacity)  # earlier rows would be overwritten
        slots = (self._added + np.arange(n - kept, n)) % self.capacity
        for ring, new in zip(vars(self._rows).values(), vars(rows).values()):
            ring[slots] = new[n - kept:]
        self._added += n

    def sample(self, rng: np.random.Generator, batch_size: int) -> Experience:
        return self._rows[rng.integers(len(self), size=batch_size)]


# -- loss and training --------------------------------------------------------


def _stack(samples) -> Experience:
    """One row per object, from its attributes named like Experience fields."""
    return Experience(*(np.array([getattr(s, f.name) for s in samples])
                        for f in fields(Experience)))


class _Workspace:
    """The arrays a training step writes into, for one net and batch length:
    input rows, layer outputs, output and hidden deltas, parameter gradients
    and one Adam scratch array per parameter."""

    def __init__(self, net: PredictorNet, rows: int):
        widths = [w.shape[0] for w in net.weights]  # hidden sizes, output
        self.rows = rows
        self.x = np.empty((rows, net.input_dim))
        self.acts = [np.empty((rows, n)) for n in widths]
        self.d_out = np.empty((rows, net.output_dim))
        self.deltas = [np.empty((rows, n)) for n in widths[:-1]]
        self.grads_w = [np.empty_like(w) for w in net.weights]
        self.grads_b = [np.empty_like(b) for b in net.biases]
        self.scratch = [np.empty_like(p) for p in net.weights + net.biases]


def gradients(net: PredictorNet, batch, work: _Workspace | None = None):
    """Loss plus analytic parameter gradients for a batch: an Experience or a
    sequence of per-sample objects.

    The loss is the mean squared error over the valid (offset, measurement)
    entries of each sample's taken action. The gradient arrays are new and
    the caller's, unless ``work`` is given (``train_step`` passes the net's
    workspace): then they are the workspace's, overwritten by the next call.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    if not isinstance(batch, Experience):
        batch = _stack(batch)
    if work is None:
        work = _Workspace(net, len(batch))
    x = np.concatenate([batch.obs, batch.m_norm, batch.goal], axis=1,
                       out=work.x)
    n_valid = int(batch.mask.sum()) * N_MEASUREMENTS
    if n_valid == 0:
        raise ValueError("batch has no valid targets (all offsets masked)")

    acts = _layers(net, x, work.acts)
    preds = acts[-1].reshape(len(batch), net.n_actions, net.n_offsets, N_MEASUREMENTS)
    rows = np.arange(len(batch))
    taken = preds[rows, batch.action]                  # (B, K, 3)
    err = (taken - batch.targets) * batch.mask[:, :, None]
    loss = float(np.sum(err * err) / n_valid)

    delta = work.d_out
    delta.fill(0.0)
    delta.reshape(preds.shape)[rows, batch.action] = 2.0 * err / n_valid
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[layer], out=work.grads_w[layer])
        np.sum(delta, axis=0, out=work.grads_b[layer])
        if layer > 0:
            delta = np.matmul(delta, net.weights[layer],
                              out=work.deltas[layer - 1])
            # leaky(z) > 0 exactly where z > 0, so the slope reads off acts
            delta *= np.where(acts[layer] <= 0, LEAKY_SLOPE, 1.0)
    return loss, work.grads_w, work.grads_b


def batch_loss(net: PredictorNet, batch) -> float:
    """Loss on a batch without updating anything."""
    return gradients(net, batch)[0]


ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def train_step(net: PredictorNet, batch) -> float:
    """One Adam update (beta1 from the momentum field, standard beta2 and
    epsilon); returns the pre-update loss. Besides the parameters and the
    Adam moments, the net keeps the arrays the step writes into (``_work``:
    input rows, layer outputs, deltas, gradients, Adam scratch) for the next
    step, rebuilt when the batch length changes. Each update keeps the
    operands and order of the textbook formulas, so results match bitwise."""
    work = net._work
    if work is None or work.rows != len(batch):
        work = net._work = _Workspace(net, len(batch))
    loss, grads_w, grads_b = gradients(net, batch, work)
    params = net.weights + net.biases
    grads = grads_w + grads_b
    net._t += 1
    beta1 = net.momentum
    corr1 = 1.0 - beta1 ** net._t
    corr2 = 1.0 - ADAM_BETA2 ** net._t
    for p, g, m, v, s in zip(params, grads, net._vel, net._sq, work.scratch):
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=s)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        v += np.multiply(s, g, out=s)
        # p -= lr * (m / corr1) / (sqrt(v / corr2) + eps), g as 2nd scratch
        np.multiply(np.divide(m, corr1, out=s), net.learning_rate, out=s)
        np.sqrt(np.divide(v, corr2, out=g), out=g)
        g += ADAM_EPS
        p -= np.divide(s, g, out=s)
    return loss


# -- collection loop ----------------------------------------------------------


@dataclass
class EpochStats:
    episode: int
    loss: float  # mean update loss during the episode; NaN if no updates ran
    epsilon: float


def epsilon_at(step: int, start: float, end: float, decay_steps: int) -> float:
    frac = min(1.0, step / max(1, decay_steps))
    return start + (end - start) * frac


def collect_and_train(env_factory, config: PredictorConfig, seed: int,
                      horizon_weights=None, progress=None):
    """Run epsilon-greedy episodes with per-episode random goals, filling a
    replay buffer and applying periodic gradient steps.

    Returns the trained net and one EpochStats per episode.
    """
    env = env_factory()

    net = PredictorNet(
        observation_size(),
        offsets=config.temporal_offsets,
        hidden_sizes=config.hidden_sizes,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
        rng=np.random.default_rng(derive_seed(seed, 0)),
    )
    rng = np.random.default_rng(derive_seed(seed, 1))
    replay = ReplayBuffer(config.replay_capacity)

    history: list[EpochStats] = []
    for ep in range(config.training_episodes):
        goal = rng.uniform(-1.0, 1.0, size=3)
        eps = epsilon_at(ep, config.epsilon_start, config.epsilon_end,
                         config.training_episodes // 2)
        observations, measurements, actions = [], [], []
        for ((_, obs, m, _, action),) in run_episodes(
                [env], [derive_seed(seed, 2, ep)], net,
                [StaticGoal(tuple(goal))], horizon_weights, epsilon=eps,
                rng=rng):
            observations.append(obs.astype(np.float32))
            measurements.append(m)
            actions.append(action)
        measurements.append(env.measurements)
        replay.extend(episode_to_samples(observations, measurements, goal,
                                         actions, config.temporal_offsets))
        losses = []
        if len(replay) >= config.batch_size:
            for _ in range(max(1, len(actions) // config.train_interval)):
                losses.append(train_step(net, replay.sample(rng,
                                                            config.batch_size)))
        stats = EpochStats(ep, float(np.mean(losses)) if losses else float("nan"),
                           eps)
        history.append(stats)
        if progress is not None:
            progress(stats)
    return net, history


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
    """Inverse of save_predictor; returns (net, config echo). A header of the
    wrong shape or a parameter that is not finite raises ValueError naming
    the file."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: model header is not JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a predictor model file")
    # the layer shapes first, so that a header alone allocates nothing
    try:
        obs_dim, n_actions = int(header["obs_dim"]), int(header["n_actions"])
        offsets = [int(o) for o in header["offsets"]]
        hidden = [operator.index(h) for h in header["hidden_sizes"]]
        rates = float(header["learning_rate"]), float(header["momentum"])
        shapes = [tuple(meta["shape"]) for meta in header["arrays"]]
        sizes = [obs_dim + 2 * N_MEASUREMENTS, *hidden,
                 n_actions * len(offsets) * N_MEASUREMENTS]
        if min(sizes) < 0:
            raise ValueError(f"negative layer size in {sizes}")
    except KeyError as exc:
        raise ValueError(f"{path}: model header lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: model header holds a value of the wrong "
                         f"type ({exc})") from None
    layers = [shape for d_in, d_out in zip(sizes, sizes[1:])
              for shape in ((d_out, d_in), (d_out,))]
    if shapes != layers:
        raise ValueError(f"{path}: model arrays {shapes} do not match the "
                         f"layer shapes {layers} of its header")
    counts = [math.prod(shape) for shape in shapes]
    if len(blob) != 8 * sum(counts):
        raise ValueError(f"{path}: model payload has {len(blob)} bytes, but "
                         f"its header shapes need {8 * sum(counts)}")
    net = PredictorNet(obs_dim, offsets, hidden, n_actions, *rates)
    offset = 0
    for i, (shape, count) in enumerate(zip(shapes, counts)):
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=offset).reshape(shape).astype(float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: model parameters must be finite")
        (net.weights, net.biases)[i % 2][i // 2] = arr
        offset += count * 8
    return net, header.get("config", {})
