"""The goalevo benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload through the program's CLI as a closed loop: one client,
one command at a time, each in a fresh process started by ``launch.py``.
A round is the workload's list of commands; every round of a run repeats
the same commands on the same configs, which are generated from ``--seed``.
Each command's outputs are checked (``checks.py``) and compared byte for
byte with the first round's.

The first round always runs traced: it gives the exact step and update
counts and the reference artifacts. With ``--trace 0`` the rounds that
follow run untraced for ``--seconds`` seconds and give the end-to-end
metrics. With ``--trace 1`` traced and untraced rounds alternate for
``--seconds`` seconds; the traced ones give the per-layer metrics and the
two kinds together the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

# Fixed inputs, as paths relative to the root of the checkout: a predictor
# trained on `original` and a goal genome evolved on `original`.
PREDICTOR = "bench/inputs/predictor.model"
GENOME = "bench/inputs/genome_original.txt"
WORK = HERE / "out"
# One BLAS thread per process: the evolve pool already runs one worker per
# CPU, and a single thread keeps timings steady.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150

# train_original: the smoke profile's update rate on the default net.
TRAIN_EPISODES = 6
TRAIN_INTERVAL = 3
# evolve_hard: a population as wide as the smoke profile's, two workers.
EVOLVE_POPULATION = 20
EVOLVE_GENERATIONS = 5
EPISODES_PER_EVAL = 8
EVOLVE_WORKERS = 2
# evaluate_original: four providers; more than 8 episodes each, so every
# rank test takes the asymptotic path.
PROVIDERS = (("static", "static:0.5,0.5,1.0"), ("hardcoded", "hardcoded"),
             ("defensive", "defensive"), ("evolved", f"evolved:{GENOME}"))
EVALUATION_EPISODES = 20
# The `original` scenario's start and length, for the trace checks.
ORIGINAL_AMMO, ORIGINAL_HEALTH, ORIGINAL_LENGTH = 20, 100, 525


@dataclass
class Command:
    """One CLI command of a round and the checks on its outputs."""

    name: str
    argv: list[str]
    check: Callable[[Path], None]


@dataclass
class Workload:
    commands: Callable[[Path, int], list[Command]]
    # The workload's own unit of work, the name of its rate, and how many
    # units one round completes, given the first round's span counts.
    item: str
    rate: str
    items: Callable[[dict], int]


def _train_original(work: Path, seed: int) -> list[Command]:
    config = work / "train.cfg"
    config.write_text(f"predictor.training_episodes = {TRAIN_EPISODES}\n"
                      f"predictor.train_interval = {TRAIN_INTERVAL}\n")

    def check(out: Path) -> None:
        checks.check_manifest(out, ROOT)
        checks.check_loss(out / "loss.csv", TRAIN_EPISODES)
        checks.check_model(out / "predictor.model")

    return [Command("train-predictor", _argv("train-predictor", config, seed,
                                             work), check)]


def _evolve_hard(work: Path, seed: int) -> list[Command]:
    config = work / "evolve.cfg"
    config.write_text("scenario.preset_name = hard\n"
                      f"predictor_path = {PREDICTOR}\n"
                      f"evolution.population_size = {EVOLVE_POPULATION}\n"
                      f"evolution.generations = {EVOLVE_GENERATIONS}\n"
                      f"evolution.episodes_per_eval = {EPISODES_PER_EVAL}\n"
                      f"evolution.n_workers = {EVOLVE_WORKERS}\n")

    def check(out: Path) -> None:
        manifest = checks.check_manifest(out, ROOT)
        checks.check_generations(out, manifest, EVOLVE_POPULATION,
                                 EVOLVE_GENERATIONS, EPISODES_PER_EVAL)

    return [Command("evolve", _argv("evolve", config, seed, work), check)]


def _evaluate_original(work: Path, seed: int) -> list[Command]:
    config = work / "evaluate.cfg"
    config.write_text(
        "scenario.preset_name = original\n"
        f"predictor_path = {PREDICTOR}\n"
        f"providers = {' | '.join(spec for _, spec in PROVIDERS)}\n"
        f"evaluation_episodes = {EVALUATION_EPISODES}\n"
        "write_traces = true\n")
    sweep_config = work / "sweep.cfg"
    sweep_config.write_text(f"genome_path = {GENOME}\n")
    labels = [label for label, _ in PROVIDERS]

    def check_evaluate(out: Path) -> None:
        checks.check_manifest(out, ROOT)
        values = checks.check_fitness(out / "fitness.csv", labels,
                                      EVALUATION_EPISODES, seed, 0.0)
        checks.check_comparisons(out / "comparisons.csv", values)
        for label in labels:
            checks.check_trace(out / f"trace_{label}.csv", ORIGINAL_AMMO,
                               ORIGINAL_HEALTH, ORIGINAL_LENGTH,
                               values[label][0], 0.0)

    def check_sweep(out: Path) -> None:
        checks.check_manifest(out, ROOT)
        checks.check_sweep(out / "sweep.csv", ROOT / GENOME)

    return [Command("evaluate", _argv("evaluate", config, seed, work),
                    check_evaluate),
            Command("sweep", _argv("sweep", sweep_config, seed, work),
                    check_sweep)]


def _argv(command: str, config: Path, seed: int, work: Path) -> list[str]:
    return [command, "--config", str(config.relative_to(ROOT)),
            "--seed", str(seed), "--out", str((work / command).relative_to(ROOT))]


WORKLOADS = {
    "train_original": Workload(
        _train_original, "gradient steps", "grad_steps_per_s",
        lambda counts: counts.get("predictor.train_step", 0)),
    # The checks hold the manifest's n_evaluations to this product.
    "evolve_hard": Workload(
        _evolve_hard, "genome evaluations", "genome_evals_per_s",
        lambda counts: EVOLVE_POPULATION * EVOLVE_GENERATIONS),
    "evaluate_original": Workload(
        _evaluate_original, "evaluation episodes", "eval_episodes_per_s",
        lambda counts: len(PROVIDERS) * EVALUATION_EPISODES),
}
RATES = {"grad_steps_per_s": "steps/s", "genome_evals_per_s": "evaluations/s",
         "eval_episodes_per_s": "episodes/s"}


# -- running commands ------------------------------------------------------------


@dataclass
class Outcome:
    setup_s: float
    wall_s: float
    peak_mib: float
    failure: str | None = None
    check_failed: bool = False
    spans: dict | None = None


@dataclass
class Round:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def peak_mib(self) -> float:
        return max(o.peak_mib for o in self.outcomes)


def run_command(command: Command, work: Path, traced: bool,
                reference: dict[str, dict[str, bytes]]) -> Outcome:
    out = ROOT / command.argv[-1]
    shutil.rmtree(out, ignore_errors=True)
    result = work / "result.json"
    trace = work / "trace.npz"
    result.unlink(missing_ok=True)
    log = work / f"{command.name}.log"
    env = dict(os.environ, **THREADS)
    args = [sys.executable, str(HERE / "launch.py"), str(result),
            str(trace) if traced else "-", *command.argv]
    spawn = tracer.now()
    with open(log, "w") as fh:
        # A session of its own, so a hung command is stopped together with
        # any pool workers it forked.
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return Outcome(float("nan"), tracer.now() - spawn, 0.0,
                           f"{command.name}: no exit within "
                           f"{COMMAND_TIMEOUT_S} s")
    if code != 0 or not result.exists():
        tail = log.read_text()[-2000:]
        return Outcome(float("nan"), tracer.now() - spawn, 0.0,
                       f"{command.name}: exit code {code}\n{tail}")
    report = json.loads(result.read_text())
    outcome = Outcome(report["ready"] - spawn, report["done"] - report["ready"],
                      report["peak_kib"] / 1024.0)
    if traced:
        outcome.spans = tracer.load(trace)
    try:
        command.check(out)
        artifacts = checks.read_artifacts(out)
        if command.name in reference:
            checks.check_same_bytes(reference[command.name], artifacts)
        else:
            reference[command.name] = artifacts
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError,
            StopIteration) as exc:
        outcome.failure = f"{command.name}: {type(exc).__name__}: {exc}"
        outcome.check_failed = True
    return outcome


def run_round(commands: list[Command], work: Path, traced: bool,
              reference: dict) -> Round:
    done = Round(traced)
    for command in commands:
        outcome = run_command(command, work, traced, reference)
        done.outcomes.append(outcome)
        status = outcome.failure or "ok"
        print(f"  {command.name:16s} {'traced' if traced else 'timed':6s} "
              f"setup {outcome.setup_s:.3f} s  cli {outcome.wall_s:.3f} s  "
              f"peak {outcome.peak_mib:.1f} MiB  {status}", flush=True)
    return done


# -- metrics -------------------------------------------------------------------


def merge_spans(rounds: list[Round]) -> tuple[dict, dict]:
    """All spans of the given rounds: name -> {"dur", "self"} arrays, and
    the summed result sizes."""
    spans: dict[str, dict[str, list]] = {}
    sizes: dict[str, int] = {}
    for r in rounds:
        for outcome in r.outcomes:
            if outcome.spans is None:
                continue
            for name, arrays in outcome.spans["spans"].items():
                entry = spans.setdefault(name, {"dur": [], "self": []})
                entry["dur"].append(arrays["dur"])
                entry["self"].append(arrays["self"])
            for name, size in outcome.spans["sizes"].items():
                sizes[name] = sizes.get(name, 0) + size
    merged = {name: {k: np.concatenate(v) for k, v in entry.items()}
              for name, entry in spans.items()}
    return merged, sizes


def span_counts(r: Round) -> dict[str, int]:
    spans, _ = merge_spans([r])
    return {name: len(entry["dur"]) for name, entry in spans.items()}


def end_to_end(timed: list[Round], steps: int) -> dict:
    setups = [o.setup_s for r in timed for o in r.outcomes
              if not np.isnan(o.setup_s)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "env_steps_per_s": (statistics.median(steps / r.wall_s for r in timed),
                            "steps/s"),
        "peak_rss_mib": (statistics.median(r.peak_mib for r in timed), "MiB"),
    }


def per_layer(traced: list[Round], untraced: list[Round], rate: str,
              items: int) -> dict:
    spans, sizes = merge_spans(traced)
    n = len(traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)

    def dur(name):
        return spans.get(name, {}).get("dur", np.zeros(0))

    def own(name):
        return spans.get(name, {}).get("self", np.zeros(0))

    def quantile(values, q, scale):
        return float(np.quantile(values, q) * scale) if len(values) else 0.0

    def layer_self(layer):
        return sum(float(e["self"].sum()) for name, e in spans.items()
                   if name.split(".", 1)[0] == layer) / n

    # The workload's own rate, from its untraced rounds; the rates of the
    # other workloads' units read 0.
    metrics = {name: (items / untraced_wall if name == rate else 0.0, unit)
               for name, unit in RATES.items()}
    for name in ("predictor.train_step", "env.step", "env.reset",
                 "predictor.forward", "goal_net.activate", "neat.evaluate"):
        metrics[f"{name}.calls"] = (len(dur(name)) / n, "count")
    for name in ("predictor.train_step", "predictor.gradients",
                 "predictor.replay_sample", "env.step", "env.observe",
                 "env.reset", "predictor.forward", "goal_net.activate",
                 "policy.provider", "goal_net.decode"):
        metrics[f"{name}.us_p50"] = (quantile(dur(name), 0.5, 1e6), "us")
    for name in ("env.step", "predictor.forward"):
        metrics[f"{name}.us_p99"] = (quantile(dur(name), 0.99, 1e6), "us")
    metrics["predictor.optimizer.us_p50"] = (
        quantile(own("predictor.train_step"), 0.5, 1e6), "us")
    metrics["policy.select_action.self_us_p50"] = (
        quantile(own("policy.select_action"), 0.5, 1e6), "us")
    samples = sizes.get("predictor.episode_to_samples", 0)
    metrics["predictor.episode_to_samples.us_per_sample"] = (
        float(dur("predictor.episode_to_samples").sum()) * 1e6 / samples
        if samples else 0.0, "us")
    for name in ("predictor.save_predictor", "predictor.load_predictor"):
        metrics[f"{name}.ms"] = (quantile(dur(name), 0.5, 1e3), "ms")
    metrics["neat.evaluate.ms_p50"] = (quantile(dur("neat.evaluate"), 0.5,
                                                1e3), "ms")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    pool_wall = float(dur(tracer.POOL_MAP).sum())
    busy = float(dur(tracer.WORKER_ENTRY).sum())
    metrics["neat.pool.idle_share"] = (
        1.0 - busy / (EVOLVE_WORKERS * pool_wall) if pool_wall else 0.0,
        "share")
    metrics["trace.overhead_share"] = (
        1.0 - untraced_wall / statistics.median(r.wall_s for r in traced),
        "share")
    return metrics


# -- environment -------------------------------------------------------------------


def environment() -> dict:
    import scipy

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "goalevo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **THREADS,
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "goalevo" / "cli.py", ROOT / PREDICTOR,
                           ROOT / GENOME) if not p.exists()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a "
              "checkout of the goalevo repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    for key, value in environment().items():
        print(f"env {key} = {value}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        commands = workload.commands(work, args.seed)
        reference: dict = {}
        print(f"workload {args.workload}, seed {args.seed}: "
              f"{' + '.join(c.name for c in commands)} per round")
        first = run_round(commands, work, True, reference)
        rounds = [first]
        start = tracer.now()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            rounds.append(run_round(commands, work, traced, reference))
            timed = [r for r in rounds[1:] if not r.traced]
            if tracer.now() - start >= args.seconds and timed:
                break
        counts = span_counts(first)
        steps = counts.get("env.step", 0)
        items = workload.items(counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for r in rounds for o in r.outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    correct = not any(o.check_failed for o in outcomes)
    print(f"rounds {len(rounds)} ({sum(r.traced for r in rounds)} traced); "
          f"per round: {steps} env steps, {items} {workload.item}")
    if args.trace:
        metrics = per_layer([r for r in rounds if r.traced], timed,
                            workload.rate, items)
    else:
        metrics = end_to_end(timed, steps)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"attempted {len(outcomes)} operations, failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
