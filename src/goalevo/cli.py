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
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, goal_net, neat, policy, predictor, stats
from .configio import ConfigError, apply_overrides, parse_bool, parse_kv_file
from .env import (GridBattleEnv, Measurements, episode_fitness,
                  normalize_measurements, scenario_from_overrides,
                  write_trace_csv)

DEFAULT_EVALUATION_EPISODES = 20

MODEL_FILE = "predictor.model"
LOSS_FILE = "loss.csv"
GENOME_FILE = "best_genome.txt"
GENERATIONS_FILE = "generations.csv"
FITNESS_FILE = "fitness.csv"
COMPARISONS_FILE = "comparisons.csv"
SWEEP_FILE = "sweep.csv"
MANIFEST_FILE = "manifest.json"


def _split_prefixed(config: dict[str, str], prefix: str) -> dict[str, str]:
    return {k[len(prefix):]: v for k, v in config.items()
            if k.startswith(prefix)}


def _load_config(path: str | None) -> dict[str, str]:
    return parse_kv_file(path) if path else {}


def _parse_horizon_weights(config: dict[str, str]):
    raw = config.get("horizon_weights")
    if raw is None:
        return None
    return tuple(float(p) for p in raw.split(","))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, seed: int, resolved: dict,
                    inputs: dict[str, Path], outputs: list[Path]) -> Path:
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
    return path


def _announce(paths) -> None:
    for p in paths:
        print(p)


def _scenario_from_config(config: dict[str, str]):
    return scenario_from_overrides(_split_prefixed(config, "scenario."))


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------


def cmd_train_predictor(config: dict[str, str], seed: int, out: str) -> int:
    """Goal-agnostic predictor training on the (default: original) scenario."""
    out_dir = _out_dir(out)
    scenario = _scenario_from_config(config)
    pred_config = apply_overrides(predictor.PredictorConfig(),
                                  _split_prefixed(config, "predictor."))
    pred_config.validate()
    horizon = _parse_horizon_weights(config)

    net, log = predictor.collect_and_train(
        lambda: GridBattleEnv(scenario), pred_config, seed,
        horizon_weights=horizon)

    model_path = out_dir / MODEL_FILE
    predictor.save_predictor(net, model_path, config_echo={
        "scenario": dataclasses.asdict(scenario),
        "predictor": dataclasses.asdict(pred_config),
        "seed": seed,
    })
    loss_path = out_dir / LOSS_FILE
    predictor.write_loss_csv(log, loss_path)
    resolved = {
        "scenario": dataclasses.asdict(scenario),
        "predictor": dataclasses.asdict(pred_config),
        "horizon_weights": horizon,
    }
    manifest = _write_manifest(out_dir, "train-predictor", seed, resolved,
                               {}, [model_path, loss_path])
    _announce([model_path, loss_path, manifest])
    return 0


def _require_model(config: dict[str, str]) -> Path:
    raw = config.get("predictor_path")
    if not raw:
        raise ConfigError("config key 'predictor_path' is required")
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"predictor model not found: {path}")
    return path


def cmd_evolve(config: dict[str, str], seed: int, out: str) -> int:
    """Evolve a goal network on the configured scenario; the predictor stays
    frozen, only goals adapt."""
    out_dir = _out_dir(out)
    scenario = _scenario_from_config(config)
    evo_config = apply_overrides(neat.EvolutionConfig(),
                                 _split_prefixed(config, "evolution."))
    evo_config.validate()
    horizon = _parse_horizon_weights(config)
    model_path = _require_model(config)
    net, _ = predictor.load_predictor(model_path)

    result = neat.evolve(evo_config, net, scenario, seed,
                         horizon_weights=horizon)

    genome_path = out_dir / GENOME_FILE
    goal_net.save_genome(result.best_genome, genome_path)
    gen_path = out_dir / GENERATIONS_FILE
    write_generation_csv(result, gen_path)
    resolved = {
        "scenario": dataclasses.asdict(scenario),
        "evolution": dataclasses.asdict(evo_config),
        "horizon_weights": horizon,
        "n_evaluations": result.n_evaluations,
        "best_fitness": result.best_fitness,
    }
    manifest = _write_manifest(out_dir, "evolve", seed, resolved,
                               {"predictor": model_path},
                               [genome_path, gen_path])
    _announce([genome_path, gen_path, manifest])
    return 0


def write_generation_csv(result: neat.EvolutionResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("generation", "best_fitness", "mean_fitness",
                         "mean_goal_ammo", "mean_goal_health",
                         "mean_goal_kills", "events"))
        for row in result.generations:
            writer.writerow((row.generation, repr(row.best_fitness),
                             repr(row.mean_fitness),
                             repr(float(row.mean_goal[0])),
                             repr(float(row.mean_goal[1])),
                             repr(float(row.mean_goal[2])),
                             row.events))


def _parse_providers(config: dict[str, str]):
    raw = config.get("providers") or config.get("goal")
    if not raw:
        raise ConfigError("config key 'providers' (or 'goal') is required")
    specs = [part.strip() for part in raw.split("|") if part.strip()]
    providers = []
    labels: list[str] = []
    for spec in specs:
        label = policy.goal_spec_label(spec)
        if label in labels:
            label = f"{label}#{labels.count(label) + 1}"
        labels.append(policy.goal_spec_label(spec))
        try:
            providers.append((label, spec, policy.parse_goal_spec(spec)))
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc
    return providers


def cmd_evaluate(config: dict[str, str], seed: int, out: str) -> int:
    """Evaluate each goal provider over shared episode seeds and report all
    pairwise rank tests."""
    out_dir = _out_dir(out)
    scenario = _scenario_from_config(config)
    horizon = _parse_horizon_weights(config)
    episodes = int(config.get("evaluation_episodes",
                              DEFAULT_EVALUATION_EPISODES))
    if episodes < 1:
        raise ConfigError("evaluation_episodes must be >= 1")
    write_traces = parse_bool(config.get("write_traces", "false"))
    model_path = _require_model(config)
    net, _ = predictor.load_predictor(model_path)
    providers = _parse_providers(config)

    # paired comparisons: every provider sees the same episode seeds
    episode_seeds = [seed + 1 + i for i in range(episodes)]
    env = GridBattleEnv(scenario)
    sample_sets = []
    fitness_rows = []
    extra_outputs = []
    for label, spec, provider in providers:
        values = []
        for i, ep_seed in enumerate(episode_seeds):
            record = policy.run_episode(env, ep_seed, net, provider, horizon,
                                        collect_trace=write_traces and i == 0)
            fit = episode_fitness(record, scenario)
            values.append(fit)
            fitness_rows.append((label, spec, i, ep_seed, repr(fit)))
            if write_traces and i == 0:
                trace_path = out_dir / f"trace_{label.replace('#', '_')}.csv"
                write_trace_csv(record.trace, trace_path)
                extra_outputs.append(trace_path)
        sample_sets.append(stats.SampleSet(label, tuple(values)))

    fitness_path = out_dir / FITNESS_FILE
    with open(fitness_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("provider", "spec", "episode", "seed", "fitness"))
        writer.writerows(fitness_rows)

    comparisons_path = out_dir / COMPARISONS_FILE
    with open(comparisons_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("label_a", "label_b", "mean_a", "mean_b", "U", "p"))
        for i in range(len(sample_sets)):
            for j in range(i + 1, len(sample_sets)):
                row = stats.compare_sample_sets(sample_sets[i], sample_sets[j])
                writer.writerow((row["label_a"], row["label_b"],
                                 repr(row["mean_a"]), repr(row["mean_b"]),
                                 repr(row["U"]), repr(row["p"])))

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
    manifest = _write_manifest(out_dir, "evaluate", seed, resolved, inputs,
                               [fitness_path, comparisons_path, *extra_outputs])
    _announce([fitness_path, comparisons_path, manifest])
    return 0


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive measurement grids plus the values held while another axis
    is swept."""

    ammo_min: int = 0
    ammo_max: int = 40
    ammo_step: int = 1
    health_min: int = 0
    health_max: int = 100
    health_step: int = 5
    kills_min: int = 0
    kills_max: int = 25
    kills_step: int = 1
    ammo_default: int = 10
    health_default: int = 60
    kills_default: int = 5

    def axis_values(self, axis: str) -> list[int]:
        lo = getattr(self, f"{axis}_min")
        hi = getattr(self, f"{axis}_max")
        step = getattr(self, f"{axis}_step")
        return list(range(lo, hi + 1, step))


def sweep_rows(net: goal_net.FeedForwardNet, spec: SweepSpec):
    """Grid each measurement axis with the others held at their defaults and
    record the goal outputs."""
    rows = []
    defaults = {"ammo": spec.ammo_default, "health": spec.health_default,
                "kills": spec.kills_default}
    for axis in ("ammo", "health", "kills"):
        for value in spec.axis_values(axis):
            m = dict(defaults)
            m[axis] = value
            meas = Measurements(m["ammo"], m["health"], m["kills"])
            goal = goal_net.activate(net, normalize_measurements(meas))
            rows.append((axis, m["ammo"], m["health"], m["kills"],
                         float(goal[0]), float(goal[1]), float(goal[2])))
    return rows


def cmd_sweep(config: dict[str, str], seed: int, out: str) -> int:
    """Activate a goal network over measurement grids and dump (m, g) rows."""
    out_dir = _out_dir(out)
    raw_genome = config.get("genome_path")
    if not raw_genome:
        raise ConfigError("config key 'genome_path' is required")
    genome_path = Path(raw_genome)
    if not genome_path.exists():
        raise ConfigError(f"genome file not found: {genome_path}")
    spec = apply_overrides(SweepSpec(), _split_prefixed(config, "sweep."))
    net = goal_net.decode(goal_net.load_genome(genome_path))

    rows = sweep_rows(net, spec)
    sweep_path = out_dir / SWEEP_FILE
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("axis", "ammo", "health", "kills",
                         "goal_ammo", "goal_health", "goal_kills"))
        for row in rows:
            writer.writerow(row[:4] + tuple(repr(v) for v in row[4:]))

    resolved = {"sweep": dataclasses.asdict(spec), "genome": str(genome_path)}
    manifest = _write_manifest(out_dir, "sweep", seed, resolved,
                               {"genome": genome_path}, [sweep_path])
    _announce([sweep_path, manifest])
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalevo",
        description="Train a measurement predictor, evolve goal networks, "
                    "compare goal providers, and sweep evolved goals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("train-predictor", "train the measurement predictor"),
            ("evolve", "evolve a goal network against a frozen predictor"),
            ("evaluate", "compare goal providers with rank tests"),
            ("sweep", "sweep measurements through a goal network")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")
    return parser


_COMMANDS = {
    "train-predictor": cmd_train_predictor,
    "evolve": cmd_evolve,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](config, args.seed, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
