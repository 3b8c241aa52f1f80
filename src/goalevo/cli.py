"""Experiment commands: predictor training, goal evolution, comparative
evaluation with rank tests, and goal-network measurement sweeps.

Every command takes ``--config <key = value file>``, ``--seed`` and
``--out <dir>``, writes CSV artifacts plus a manifest with the fully resolved
configuration and the SHA-256 of every input and output, and prints the paths
it wrote. Exit code is 0 on success, nonzero with a message otherwise.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, goal_net, neat, policy, predictor, stats
from .configio import (ConfigError, apply_overrides, bounded, check_bounds,
                       coerce_value, parse_kv_file)
from .env import (ACTION_NAMES, N_ACTIONS, GridBattleEnv, Measurements,
                  _initial_world, episode_fitness, normalize_measurements,
                  observation_size, scenario_from_overrides)

DEFAULT_EVALUATION_EPISODES = 20

MODEL_FILE = "predictor.model"
LOSS_FILE = "loss.csv"
GENOME_FILE = "best_genome.txt"
GENERATIONS_FILE = "generations.csv"
FITNESS_FILE = "fitness.csv"
COMPARISONS_FILE = "comparisons.csv"
SWEEP_FILE = "sweep.csv"
MANIFEST_FILE = "manifest.json"
TRACE_HEADER = ("step", "action", "ammo", "health", "kills",
                "agent_x", "agent_y")


def _parse_horizon_weights(config: dict[str, str], n_offsets: int):
    raw = config.pop("horizon_weights", None)
    if raw is None:
        return None
    weights = coerce_value("horizon_weights", raw, "tuple[float, ...]")
    if not np.isfinite(weights).all():
        raise ConfigError(f"horizon_weights must be finite, got {raw!r}")
    if len(weights) != n_offsets:
        raise ConfigError(f"horizon_weights has {len(weights)} values, but the "
                          f"predictor has {n_offsets} temporal offsets")
    return weights


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, seed: int, resolved: dict,
                    inputs: dict[str, Path], outputs: list[Path]) -> None:
    """Write the manifest, then print each output and the manifest path."""
    manifest = {
        "tool": "goalevo",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": resolved,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in inputs.items()},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = out_dir / MANIFEST_FILE
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for p in (*outputs, path):
        print(p)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _input_path(config: dict[str, str], key: str) -> Path:
    raw = config.pop(key, "")
    if not raw:
        raise ConfigError(f"config key {key!r} is required")
    if not Path(raw).exists():
        raise ConfigError(f"config key {key!r} names a missing file: {raw}")
    return Path(raw)


def _load_model(config: dict[str, str]):
    """The model file named by ``predictor_path`` and its net, which must be
    made for this environment's observations and actions."""
    path = _input_path(config, "predictor_path")
    net, _ = predictor.load_predictor(path)
    if (net.obs_dim, net.n_actions) != (observation_size(), N_ACTIONS):
        raise ConfigError(
            f"{path}: model is made for {net.obs_dim} observation values and "
            f"{net.n_actions} actions, but the environment has "
            f"{observation_size()} and {N_ACTIONS}")
    return path, net


def _out_dir(path: str, unread: dict[str, str]) -> Path:
    """Make the output directory once a command has taken every config key
    it reads out of ``unread``; a key still there is one it does not read."""
    if unread:
        raise ConfigError(f"unknown config key {next(iter(unread))!r}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------


def cmd_train_predictor(config: dict[str, str], seed: int, out: str) -> int:
    """Goal-agnostic predictor training on the (default: original) scenario."""
    scenario = scenario_from_overrides(config, "scenario.")
    pred_config = apply_overrides(predictor.PredictorConfig(), config,
                                  "predictor.")
    horizon = _parse_horizon_weights(config, len(pred_config.temporal_offsets))
    longest = pred_config.temporal_offsets[-1]  # the offsets increase
    if longest > scenario.episode_length:  # no sample could have its target
        raise ConfigError(
            f"predictor.temporal_offsets reaches {longest} steps, more than "
            f"scenario.episode_length = {scenario.episode_length}")
    out_dir = _out_dir(out, config)

    net, log = predictor.collect_and_train(
        lambda: GridBattleEnv(scenario), pred_config, seed,
        horizon_weights=horizon)

    configs = {"scenario": dataclasses.asdict(scenario),
               "predictor": dataclasses.asdict(pred_config)}
    model_path = out_dir / MODEL_FILE
    predictor.save_predictor(net, model_path,
                             config_echo={**configs, "seed": seed})
    loss_path = _write_csv(out_dir / LOSS_FILE, ("epoch", "loss", "epsilon"),
                           ((row.episode, repr(row.loss), repr(row.epsilon))
                            for row in log))
    _write_manifest(out_dir, "train-predictor", seed,
                    {**configs, "horizon_weights": horizon}, {},
                    [model_path, loss_path])
    return 0


def cmd_evolve(config: dict[str, str], seed: int, out: str) -> int:
    """Evolve a goal network on the configured scenario; the predictor stays
    frozen, only goals adapt."""
    scenario = scenario_from_overrides(config, "scenario.")
    evo_config = apply_overrides(neat.EvolutionConfig(), config, "evolution.")
    model_path, net = _load_model(config)
    horizon = _parse_horizon_weights(config, net.n_offsets)
    out_dir = _out_dir(out, config)

    result = neat.evolve(evo_config, net, scenario, seed,
                         horizon_weights=horizon)

    genome_path = out_dir / GENOME_FILE
    goal_net.save_genome(result.best_genome, genome_path)
    gen_path = _write_csv(
        out_dir / GENERATIONS_FILE,
        ("generation", "best_fitness", "mean_fitness", "mean_goal_ammo",
         "mean_goal_health", "mean_goal_kills", "events"),
        ((row.generation, repr(row.best_fitness), repr(row.mean_fitness),
          repr(float(row.mean_goal[0])), repr(float(row.mean_goal[1])),
          repr(float(row.mean_goal[2])), row.events)
         for row in result.generations))
    resolved = {
        "scenario": dataclasses.asdict(scenario),
        "evolution": dataclasses.asdict(evo_config),
        "horizon_weights": horizon,
        "n_evaluations": result.n_evaluations,
        "best_fitness": result.best_fitness,
    }
    _write_manifest(out_dir, "evolve", seed, resolved,
                    {"predictor": model_path}, [genome_path, gen_path])
    return 0


def _parse_providers(config: dict[str, str]):
    raw = config.pop("providers", "")
    specs = [part.strip() for part in raw.split("|")]
    if not all(specs):
        raise ConfigError(f"config key 'providers' needs a goal provider spec "
                          f"in each '|'-separated part, got {raw!r}")
    providers = []
    labels: list[str] = []
    for spec in specs:
        label = policy.goal_spec_label(spec)
        n_before = labels.count(label)
        labels.append(label)
        try:
            provider = policy.parse_goal_spec(spec)
        except (ValueError, OSError) as exc:
            raise ConfigError(
                f"config key 'providers', spec {spec!r}: {exc}") from exc
        providers.append((f"{label}#{n_before + 1}" if n_before else label,
                          spec, provider))
    return providers


def cmd_evaluate(config: dict[str, str], seed: int, out: str) -> int:
    """Evaluate each goal provider over shared episode seeds and report all
    pairwise rank tests."""
    scenario = scenario_from_overrides(config, "scenario.")
    episodes = coerce_value("evaluation_episodes", config.pop(
        "evaluation_episodes", str(DEFAULT_EVALUATION_EPISODES)), "int")
    if episodes < 1:
        raise ConfigError("evaluation_episodes must be >= 1")
    write_traces = coerce_value("write_traces",
                                config.pop("write_traces", "false"), "bool")
    model_path, net = _load_model(config)
    horizon = _parse_horizon_weights(config, net.n_offsets)
    providers = _parse_providers(config)
    # paired comparisons: every provider sees the same episode seeds
    episode_seeds = [seed + 1 + i for i in range(episodes)]
    for ep_seed in episode_seeds:  # a layout with too few free cells fails
        _initial_world(scenario, ep_seed)  # here; the episodes reuse them
    out_dir = _out_dir(out, config)

    envs = [GridBattleEnv(scenario) for _ in episode_seeds]
    fitness = {}  # provider label -> episode fitness values
    fitness_rows = []
    extra_outputs = []
    for label, spec, provider in providers:
        steps = policy.run_episodes(envs, episode_seeds, net,
                                    [provider] * episodes, horizon)
        if write_traces:
            # lane 0 leads each step's lanes while it lives; each row reads
            # the env while the episode is paused there
            lane0 = itertools.takewhile(lambda lanes: lanes[0][0] == 0, steps)
            extra_outputs.append(_write_csv(
                out_dir / f"trace_{label.replace('#', '_')}.csv",
                TRACE_HEADER,
                ((t, ACTION_NAMES[a], m.ammo, m.health, m.kills,
                  envs[0].agent_col, envs[0].agent_row)
                 for t, ((_, _, m, _, a), *_) in enumerate(lane0))))
        for _ in steps:  # play the episodes out
            pass
        values = fitness[label] = [episode_fitness(env) for env in envs]
        for i, (ep_seed, fit) in enumerate(zip(episode_seeds, values)):
            fitness_rows.append((label, spec, i, ep_seed, repr(fit)))

    fitness_path = _write_csv(out_dir / FITNESS_FILE,
                              ("provider", "spec", "episode", "seed", "fitness"),
                              fitness_rows)
    comparisons_path = _write_csv(
        out_dir / COMPARISONS_FILE,
        ("label_a", "label_b", "mean_a", "mean_b", "U", "p"),
        ((label_a, label_b, *map(repr, (float(np.mean(a)), float(np.mean(b)),
                                        *stats.mann_whitney_u(a, b))))
         for (label_a, a), (label_b, b)
         in itertools.combinations(fitness.items(), 2)))

    inputs = {"predictor": model_path}
    for label, spec, _ in providers:
        if spec.startswith("evolved:"):
            inputs[f"genome_{label}"] = Path(spec[len("evolved:"):])
    resolved = {
        "scenario": dataclasses.asdict(scenario),
        "providers": [spec for _, spec, _ in providers],
        "evaluation_episodes": episodes,
        "episode_seeds": episode_seeds,
        "horizon_weights": horizon,
    }
    _write_manifest(out_dir, "evaluate", seed, resolved, inputs,
                    [fitness_path, comparisons_path, *extra_outputs])
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive measurement grids plus the values held while another axis
    is swept."""

    ammo_min: int = 0
    ammo_max: int = 40
    ammo_step: int = bounded(1, 1)
    health_min: int = 0
    health_max: int = 100
    health_step: int = bounded(5, 1)
    kills_min: int = 0
    kills_max: int = 25
    kills_step: int = bounded(1, 1)
    ammo_default: int = 10
    health_default: int = 60
    kills_default: int = 5

    def __post_init__(self) -> None:
        check_bounds(self)
        for axis in ("ammo", "health", "kills"):
            if getattr(self, f"{axis}_min") > getattr(self, f"{axis}_max"):
                raise ConfigError(f"{axis}_min must not exceed {axis}_max")

    def axis_values(self, axis: str) -> list[int]:
        lo = getattr(self, f"{axis}_min")
        hi = getattr(self, f"{axis}_max")
        step = getattr(self, f"{axis}_step")
        return list(range(lo, hi + 1, step))


def sweep_rows(net: goal_net.FeedForwardNet, spec: SweepSpec):
    """Grid each measurement axis with the others held at their defaults and
    record the goal outputs."""
    rows = []
    held = Measurements(spec.ammo_default, spec.health_default,
                        spec.kills_default)
    for axis in Measurements._fields:
        for value in spec.axis_values(axis):
            m = held._replace(**{axis: value})
            goal = goal_net.activate(net, normalize_measurements(m))
            rows.append((axis, *m, *goal.tolist()))
    return rows


def cmd_sweep(config: dict[str, str], seed: int, out: str) -> int:
    """Activate a goal network over measurement grids and dump (m, g) rows."""
    spec = apply_overrides(SweepSpec(), config, "sweep.")
    genome_path = _input_path(config, "genome_path")
    try:
        net = goal_net.decode(goal_net.load_genome(genome_path))
    except ValueError as exc:
        raise ConfigError(f"{genome_path}: {exc}") from exc
    out_dir = _out_dir(out, config)

    sweep_path = _write_csv(
        out_dir / SWEEP_FILE,
        ("axis", "ammo", "health", "kills",
         "goal_ammo", "goal_health", "goal_kills"),
        (row[:4] + tuple(repr(v) for v in row[4:])
         for row in sweep_rows(net, spec)))

    resolved = {"sweep": dataclasses.asdict(spec), "genome": str(genome_path)}
    _write_manifest(out_dir, "sweep", seed, resolved, {"genome": genome_path},
                    [sweep_path])
    return 0


# -- entry point ----------------------------------------------------------------


_COMMANDS = {
    "train-predictor": (cmd_train_predictor, "train the measurement predictor"),
    "evolve": (cmd_evolve, "evolve a goal network against a frozen predictor"),
    "evaluate": (cmd_evaluate, "compare goal providers with rank tests"),
    "sweep": (cmd_sweep, "sweep measurements through a goal network"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalevo",
        description="Train a measurement predictor, evolve goal networks, "
                    "compare goal providers, and sweep evolved goals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command][0]
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config = parse_kv_file(args.config) if args.config else {}
        return command(config, args.seed, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
