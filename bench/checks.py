"""Output checks for the benchmark's workloads.

Each check reads artifacts a goalevo command wrote and raises ``CheckFailed``
when they are wrong. The expected values are computed here, apart from the
program: rank tests by scipy, goal networks by a clamped-linear evaluator of
the genome text, the predictor by a numpy forward pass of the weights parsed
from the documented model format. Where no independent value exists, a
property the method must have is checked instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Normalization scales of the environment's measurements (ammo, health,
# kills); goal networks and the predictor see clip(m / scale, 0, 1).
MEASUREMENT_SCALES = (40.0, 100.0, 10.0)
MAX_HEALTH = 100
LEAKY_SLOPE = 0.01
MODEL_FORMAT = "goalevo-predictor"
ACTIONS = ("move_forward", "turn_left", "turn_right", "move_backward",
           "attack", "noop")
TRACE_HEADER = ["step", "action", "ammo", "health", "kills",
                "agent_x", "agent_y"]
INPUT_IDS = (0, 1, 2)
OUTPUT_IDS = (3, 4, 5)
# The sweep command's default grids: (axis, first, last, step), and the
# values held while another axis is swept.
SWEEP_AXES = (("ammo", 0, 40, 1), ("health", 0, 100, 5), ("kills", 0, 25, 1))
SWEEP_HELD = {"ammo": 10, "health": 60, "kills": 5}
TOL = 1e-12


class CheckFailed(AssertionError):
    """An artifact is not what the command must have produced."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def normalize(ammo: float, health: float, kills: float) -> np.ndarray:
    raw = np.array([ammo, health, kills], dtype=float)
    return np.clip(raw / np.array(MEASUREMENT_SCALES), 0.0, 1.0)


# -- manifests and determinism -------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_manifest(out_dir: Path, root: Path) -> dict:
    """Every output and input hash in manifest.json equals a fresh digest,
    and the outputs are exactly the other files of the directory. Input
    paths are relative to ``root``. Returns the manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    files = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    require(set(manifest["outputs"]) == files,
            f"manifest lists {sorted(manifest['outputs'])}, directory holds "
            f"{sorted(files)}")
    for name, digest in manifest["outputs"].items():
        require(sha256(out_dir / name) == digest,
                f"manifest hash of {name} does not match the file")
    for name, entry in manifest["inputs"].items():
        require(sha256(root / entry["path"]) == entry["sha256"],
                f"manifest hash of input {name} does not match the file")
    return manifest


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def check_same_bytes(reference: dict[str, bytes],
                     current: dict[str, bytes]) -> None:
    """A command repeated with the same config and seed writes
    byte-identical artifacts."""
    require(set(reference) == set(current),
            f"files differ from the first run: {sorted(reference)} vs "
            f"{sorted(current)}")
    for name, data in reference.items():
        require(current[name] == data,
                f"{name} differs from the first run of the same seed")


# -- train-predictor -------------------------------------------------------------


def check_loss(path: Path, episodes: int, epsilon_start: float = 1.0,
               epsilon_end: float = 0.1) -> None:
    """One row per episode; losses are NaN until the replay holds a batch,
    then finite and non-negative; epsilon anneals linearly over the first
    half of the episodes."""
    rows = read_rows(path)
    require(len(rows) == episodes,
            f"loss.csv has {len(rows)} rows, expected {episodes}")
    decay = max(1, episodes // 2)
    started = False
    for i, row in enumerate(rows):
        require(int(row["epoch"]) == i, f"loss.csv row {i}: epoch {row['epoch']}")
        loss = float(row["loss"])
        if math.isnan(loss):
            require(not started, f"loss.csv row {i}: NaN after updates began")
        else:
            started = True
            require(math.isfinite(loss) and loss >= 0.0,
                    f"loss.csv row {i}: loss {loss}")
        expected = epsilon_start + (epsilon_end - epsilon_start) * min(
            1.0, i / decay)
        require(abs(float(row["epsilon"]) - expected) <= TOL,
                f"loss.csv row {i}: epsilon {row['epsilon']}, schedule "
                f"gives {expected!r}")
    require(started, "loss.csv: no episode ran a gradient update")


def parse_model(path: Path) -> tuple[dict, list[np.ndarray]]:
    """Read a model file: one JSON header line, then the little-endian
    float64 arrays named in the header, in header order."""
    blob = Path(path).read_bytes()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    require(header.get("format") == MODEL_FORMAT,
            f"{path}: format {header.get('format')!r}")
    body = blob[newline + 1:]
    arrays = []
    offset = 0
    for meta in header["arrays"]:
        shape = tuple(meta["shape"])
        size = int(np.prod(shape)) * 8
        require(offset + size <= len(body), f"{path}: truncated arrays")
        arrays.append(np.frombuffer(body[offset:offset + size], dtype="<f8")
                      .reshape(shape))
        offset += size
    require(offset == len(body), f"{path}: {len(body) - offset} trailing bytes")
    sizes = [header["obs_dim"] + 6, *header["hidden_sizes"],
             header["n_actions"] * len(header["offsets"]) * 3]
    require(len(arrays) == 2 * (len(sizes) - 1),
            f"{path}: {len(arrays)} arrays for {len(sizes) - 1} layers")
    for i, (d_in, d_out) in enumerate(zip(sizes, sizes[1:])):
        require(arrays[2 * i].shape == (d_out, d_in)
                and arrays[2 * i + 1].shape == (d_out,),
                f"{path}: layer {i} has shapes {arrays[2 * i].shape}, "
                f"{arrays[2 * i + 1].shape}")
    return header, arrays


def model_forward(header: dict, arrays: list[np.ndarray], obs: np.ndarray,
                  measurements, goal) -> np.ndarray:
    """Plain numpy forward pass: leaky-rectifier hidden layers, linear
    output, shaped (action, offset, measurement)."""
    x = np.concatenate([obs, normalize(*measurements), goal])
    for w, b in zip(arrays[0:-2:2], arrays[1:-2:2]):
        z = w @ x + b
        x = np.where(z > 0, z, LEAKY_SLOPE * z)
    out = arrays[-2] @ x + arrays[-1]
    return out.reshape(header["n_actions"], len(header["offsets"]), 3)


def check_model(path: Path, hidden_sizes=(128, 128), samples: int = 8) -> None:
    """The model file parses from its documented format, and a numpy
    forward pass of its weights matches ``PredictorNet.forward``."""
    from goalevo.env import Measurements
    from goalevo.predictor import load_predictor

    header, arrays = parse_model(path)
    require(tuple(header["hidden_sizes"]) == tuple(hidden_sizes),
            f"{path}: hidden sizes {header['hidden_sizes']}")
    net, _ = load_predictor(path)
    rng = np.random.default_rng(0)
    for _ in range(samples):
        obs = (rng.random(header["obs_dim"]) < 0.2).astype(float)
        m = (int(rng.integers(0, 41)), int(rng.integers(1, 101)),
             int(rng.integers(0, 11)))
        goal = rng.uniform(-1.0, 1.0, 3)
        expected = model_forward(header, arrays, obs, m, goal)
        got = net.forward(obs, Measurements(*m), goal)
        require(np.allclose(got, expected, rtol=1e-9, atol=1e-9),
                f"{path}: PredictorNet.forward differs from the numpy "
                f"forward by {np.max(np.abs(got - expected)):.3g}")


# -- goal networks -------------------------------------------------------------


class GoalNet:
    """Clamped-linear feedforward net read from the genome text format:
    ``node <id> <bias> <in|hidden|out>`` and
    ``conn <innovation> <src> <dst> <weight> <enabled 0|1>``."""

    def __init__(self, text: str):
        self.bias: dict[int, float] = {}
        self.kind: dict[int, str] = {}
        incoming: dict[int, list[tuple[int, float]]] = {}
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "node" and len(parts) == 4:
                self.bias[int(parts[1])] = float(parts[2])
                self.kind[int(parts[1])] = parts[3]
            elif parts[0] == "conn" and len(parts) == 6:
                if parts[5] == "1":
                    incoming.setdefault(int(parts[3]), []).append(
                        (int(parts[2]), float(parts[4])))
            else:
                raise CheckFailed(f"genome line not in the format: {line!r}")
        for nid in INPUT_IDS:
            require(self.kind.get(nid) == "in", f"genome: node {nid} is not an input")
        for nid in OUTPUT_IDS:
            require(self.kind.get(nid) == "out", f"genome: node {nid} is not an output")
        for dst, sources in incoming.items():
            for src, _ in sources:
                require(src in self.kind and dst in self.kind,
                        f"genome: connection {src} -> {dst} names a missing node")
        self.incoming = incoming
        self.order = self._topological_order()

    def _topological_order(self) -> list[int]:
        indeg = {nid: len(self.incoming.get(nid, ())) for nid in self.kind}
        users: dict[int, list[int]] = {}
        for dst, sources in self.incoming.items():
            for src, _ in sources:
                users.setdefault(src, []).append(dst)
        ready = [nid for nid, d in indeg.items() if d == 0]
        order = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for dst in users.get(nid, ()):
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    ready.append(dst)
        require(len(order) == len(self.kind),
                "genome: enabled connections form a cycle")
        return order

    def __call__(self, inputs) -> np.ndarray:
        value = dict(zip(INPUT_IDS, (float(x) for x in inputs)))
        for nid in self.order:
            if nid in INPUT_IDS:
                continue
            total = self.bias[nid] + sum(value[src] * w
                                         for src, w in self.incoming.get(nid, ()))
            value[nid] = min(1.0, max(-1.0, total))
        return np.array([value[nid] for nid in OUTPUT_IDS])


def check_genome(path: Path, grid: int = 5) -> GoalNet:
    """The genome decodes to an acyclic net whose goal outputs stay in
    [-1, 1] over a grid of normalized measurements."""
    net = GoalNet(Path(path).read_text())
    axis = np.linspace(0.0, 1.0, grid)
    for a in axis:
        for h in axis:
            for k in axis:
                out = net((a, h, k))
                require(bool(np.all(np.abs(out) <= 1.0)),
                        f"{path}: goal outputs {out} outside [-1, 1]")
    return net


def check_sweep(path: Path, genome_path: Path) -> None:
    """Every sweep row sits on the default grids, and its goal outputs equal
    this module's evaluation of the genome."""
    net = GoalNet(Path(genome_path).read_text())
    rows = read_rows(path)
    expected_cells = [(axis, v) for axis, lo, hi, step in SWEEP_AXES
                      for v in range(lo, hi + 1, step)]
    require(len(rows) == len(expected_cells),
            f"sweep.csv has {len(rows)} rows, expected {len(expected_cells)}")
    for row, (axis, value) in zip(rows, expected_cells):
        m = dict(SWEEP_HELD, **{axis: value})
        require(row["axis"] == axis
                and [int(row[k]) for k in ("ammo", "health", "kills")]
                == [m["ammo"], m["health"], m["kills"]],
                f"sweep.csv row {row} is off the {axis} grid")
        got = np.array([float(row[k]) for k in
                        ("goal_ammo", "goal_health", "goal_kills")])
        require(bool(np.all(np.abs(got) <= 1.0)),
                f"sweep.csv: goal outputs {got} outside [-1, 1]")
        expected = net(normalize(m["ammo"], m["health"], m["kills"]))
        require(np.allclose(got, expected, rtol=0.0, atol=1e-9),
                f"sweep.csv at {m}: goals {got}, genome gives {expected}")


# -- evolve ----------------------------------------------------------------------


def check_generations(out_dir: Path, manifest: dict, population: int,
                      generations: int, episodes_per_eval: int) -> None:
    """One row per generation; best >= mean; fitness sums are whole; the
    manifest's best fitness and evaluation count agree with the table; the
    best genome decodes with goals in [-1, 1]."""
    rows = read_rows(out_dir / "generations.csv")
    require(len(rows) == generations,
            f"generations.csv has {len(rows)} rows, expected {generations}")
    for i, row in enumerate(rows):
        best, mean = float(row["best_fitness"]), float(row["mean_fitness"])
        require(int(row["generation"]) == i, f"generations.csv row {i}: "
                f"generation {row['generation']}")
        require(best >= mean, f"generations.csv row {i}: best {best} < mean {mean}")
        for value, count, what in ((best, episodes_per_eval, "best"),
                                   (mean, episodes_per_eval * population, "mean")):
            total = value * count
            require(abs(total - round(total)) <= 1e-6,
                    f"generations.csv row {i}: {what} x {count} = {total} "
                    f"is not a whole fitness sum")
        for col in ("mean_goal_ammo", "mean_goal_health", "mean_goal_kills"):
            require(abs(float(row[col])) <= 1.0,
                    f"generations.csv row {i}: {col} {row[col]} outside [-1, 1]")
    config = manifest["config"]
    column_max = max(float(row["best_fitness"]) for row in rows)
    require(config["best_fitness"] == column_max,
            f"manifest best_fitness {config['best_fitness']} is not the "
            f"column maximum {column_max}")
    require(config["n_evaluations"] == population * generations,
            f"manifest n_evaluations {config['n_evaluations']} != "
            f"{population} x {generations}")
    check_genome(out_dir / "best_genome.txt")


# -- evaluate --------------------------------------------------------------------


def whole_kills(fitness: float, death_penalty: float) -> int:
    """The kill count behind a fitness of kills - (penalty if died)."""
    kills = fitness if fitness >= 0 else fitness + death_penalty
    require(kills >= 0 and kills == int(kills),
            f"fitness {fitness} is not kills - death penalty")
    return int(kills)


def check_fitness(path: Path, labels: list[str], episodes: int, seed: int,
                  death_penalty: float) -> dict[str, list[float]]:
    """One row per provider x episode on the shared episode seeds, each
    fitness of the form kills - (death penalty if the agent died).
    Returns the fitness values per provider label."""
    rows = read_rows(path)
    require(len(rows) == len(labels) * episodes,
            f"fitness.csv has {len(rows)} rows, expected "
            f"{len(labels)} x {episodes}")
    values: dict[str, list[float]] = {}
    for n, row in enumerate(rows):
        label, episode = labels[n // episodes], n % episodes
        require(row["provider"] == label and int(row["episode"]) == episode
                and int(row["seed"]) == seed + 1 + episode,
                f"fitness.csv row {n}: {row}")
        fitness = float(row["fitness"])
        whole_kills(fitness, death_penalty)
        values.setdefault(label, []).append(fitness)
    return values


def check_comparisons(path: Path, values: dict[str, list[float]]) -> None:
    """One row per provider pair; each mean is the mean of fitness.csv and
    each U and p equals scipy's two-sided Mann-Whitney U test (exact for
    tie-free samples of at most 8, otherwise asymptotic with continuity
    correction)."""
    from scipy.stats import mannwhitneyu

    labels = list(values)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    rows = read_rows(path)
    require(len(rows) == len(pairs),
            f"comparisons.csv has {len(rows)} rows, expected {len(pairs)}")
    for row, (a, b) in zip(rows, pairs):
        require((row["label_a"], row["label_b"]) == (a, b),
                f"comparisons.csv row {row} is not the pair {a}, {b}")
        x, y = values[a], values[b]
        for col, sample in (("mean_a", x), ("mean_b", y)):
            require(abs(float(row[col]) - float(np.mean(sample))) <= TOL,
                    f"comparisons.csv {a} vs {b}: {col} {row[col]}, "
                    f"fitness.csv gives {np.mean(sample)!r}")
        pooled = np.concatenate([x, y])
        if np.all(pooled == pooled[0]):
            u, p = len(x) * len(y) / 2.0, 1.0
        else:
            tie_free = len(np.unique(pooled)) == len(pooled)
            method = ("exact" if tie_free and min(len(x), len(y)) <= 8
                      else "asymptotic")
            res = mannwhitneyu(x, y, alternative="two-sided",
                               use_continuity=True, method=method)
            u, p = float(res.statistic), float(res.pvalue)
        require(abs(float(row["U"]) - u) <= TOL * max(1.0, u),
                f"comparisons.csv {a} vs {b}: U {row['U']}, scipy gives {u!r}")
        require(abs(float(row["p"]) - p) <= TOL,
                f"comparisons.csv {a} vs {b}: p {row['p']}, scipy gives {p!r}")


def check_trace(path: Path, initial_ammo: int, initial_health: int,
                episode_length: int, fitness: float,
                death_penalty: float) -> None:
    """The first row holds the starting measurements and no kills; steps
    count up from 0; kills never fall; health stays in 0..100 and ammo
    non-negative; the agent moves at most one cell a step; the episode's
    fitness counts at most one kill more than the last row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        require(next(reader) == TRACE_HEADER, f"{path}: header")
        rows = list(reader)
    require(1 <= len(rows) <= episode_length, f"{path}: {len(rows)} steps")
    first = rows[0]
    require((int(first[2]), int(first[3]), int(first[4]))
            == (initial_ammo, initial_health, 0),
            f"{path}: first row {first} is not the starting measurements")
    prev = None
    for i, row in enumerate(rows):
        step, action = int(row[0]), row[1]
        ammo, health, kills, x, y = (int(v) for v in row[2:])
        require(step == i, f"{path} row {i}: step {step}")
        require(action in ACTIONS, f"{path} row {i}: action {action!r}")
        require(0 <= health <= MAX_HEALTH, f"{path} row {i}: health {health}")
        require(ammo >= 0, f"{path} row {i}: ammo {ammo}")
        if prev is not None:
            require(kills >= prev[0], f"{path} row {i}: kills fell")
            require(abs(x - prev[1]) + abs(y - prev[2]) <= 1,
                    f"{path} row {i}: the agent jumped from {prev[1:]} to {(x, y)}")
        prev = (kills, x, y)
    extra = whole_kills(fitness, death_penalty) - prev[0]
    require(extra in (0, 1), f"{path}: the episode ended with {extra} kills "
            f"more than its last row")
