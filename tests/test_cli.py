import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from goalevo import cli, goal_net
from goalevo.configio import ConfigError
from goalevo.env import (ACTION_NAMES, GridBattleEnv, ScenarioConfig,
                         observation_size)
from goalevo.goal_net import ConnGene, Genome, NodeGene
from goalevo.neat import EvolutionConfig
from goalevo.predictor import PredictorConfig, PredictorNet, save_predictor
from goalevo.stats import mann_whitney_u

TINY_SCENARIO = """
scenario.preset_name = original
scenario.grid_width = 15
scenario.grid_height = 15
scenario.n_monsters = 2
scenario.n_ammo_packs = 2
scenario.n_health_kits = 2
scenario.episode_length = 40
"""

TINY_PREDICTOR = TINY_SCENARIO + """
predictor.training_episodes = 6
predictor.hidden_sizes = 8
predictor.temporal_offsets = 1,2
predictor.batch_size = 16
predictor.replay_capacity = 5000
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """One tiny trained model shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("train")
    cfg = root / "train.cfg"
    cfg.write_text(TINY_PREDICTOR)
    out = root / "run"
    assert cli.main(["train-predictor", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    return out / "predictor.model"


def evolve_config(model_path):
    return TINY_SCENARIO + f"""
predictor_path = {model_path}
evolution.population_size = 6
evolution.generations = 3
evolution.episodes_per_eval = 2
"""


# -- train-predictor ---------------------------------------------------------


def test_train_predictor_outputs(tmp_path, trained_model):
    run_dir = trained_model.parent
    assert trained_model.exists()
    loss = read_csv(run_dir / "loss.csv")
    assert loss[0] == ["epoch", "loss", "epsilon"]
    assert len(loss) == 1 + 6  # one row per training episode
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "train-predictor"
    assert manifest["seed"] == 3
    assert manifest["config"]["predictor"]["training_episodes"] == 6
    digest = hashlib.sha256(trained_model.read_bytes()).hexdigest()
    assert manifest["outputs"]["predictor.model"] == digest


def test_train_predictor_deterministic_for_seed(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_PREDICTOR)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train-predictor", "--config", str(cfg), "--seed", "9",
                         "--out", str(out)]) == 0
        outs.append((out / "predictor.model").read_bytes())
    assert outs[0] == outs[1]


def test_train_predictor_loss_decreases(trained_model):
    rows = read_csv(trained_model.parent / "loss.csv")[1:]
    losses = [float(r[1]) for r in rows if r[1] != "nan"]
    assert losses[-1] < losses[0]


# -- evolve -----------------------------------------------------------------


def test_evolve_requires_model(tmp_path):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(TINY_SCENARIO + "evolution.generations = 1\n")
    assert cli.main(["evolve", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1


def test_evolve_missing_model_file(tmp_path, capsys):
    error = fails_before_work(tmp_path, capsys, "evolve", TINY_SCENARIO
                              + "predictor_path = /nonexistent/model\n")
    assert "'predictor_path'" in error and "/nonexistent/model" in error


def test_evolve_outputs_and_determinism(tmp_path, trained_model):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(evolve_config(trained_model))
    genomes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["evolve", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
        genomes.append((out / "best_genome.txt").read_bytes())

        rows = read_csv(out / "generations.csv")
        assert rows[0] == ["generation", "best_fitness", "mean_fitness",
                           "mean_goal_ammo", "mean_goal_health",
                           "mean_goal_kills", "events"]
        assert len(rows) == 1 + 3  # one row per generation

        manifest = json.loads((out / "manifest.json").read_text())
        model_hash = hashlib.sha256(trained_model.read_bytes()).hexdigest()
        assert manifest["inputs"]["predictor"]["sha256"] == model_hash
        assert manifest["config"]["evolution"]["population_size"] == 6
        assert manifest["config"]["n_evaluations"] == 18
    assert genomes[0] == genomes[1]
    goal_net.decode(goal_net.load_genome(tmp_path / "a" / "best_genome.txt"))


def test_evolve_artifacts_independent_of_worker_count(tmp_path, trained_model):
    """Population 6 over 4 workers gives blocks of unequal size."""
    artifacts = []
    for workers in (1, 2, 4):
        cfg = tmp_path / f"evolve_{workers}.cfg"
        cfg.write_text(evolve_config(trained_model)
                       + f"evolution.n_workers = {workers}\n")
        out = tmp_path / f"workers_{workers}"
        assert cli.main(["evolve", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("best_genome.txt", "generations.csv")})
    assert artifacts[0] == artifacts[1] == artifacts[2]


# -- evaluate ----------------------------------------------------------------


def test_evaluate_pairwise_reports(tmp_path, trained_model):
    genome_path = tmp_path / "g.txt"
    nodes = {i: NodeGene(i, 0.0, "in") for i in range(3)}
    nodes.update({i: NodeGene(i, 0.3, "out") for i in range(3, 6)})
    goal_net.save_genome(Genome(nodes=nodes, conns={}), genome_path)

    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"""
predictor_path = {trained_model}
providers = static:0.5,0.5,1.0 | hardcoded | evolved:{genome_path}
evaluation_episodes = 4
""")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "100",
                     "--out", str(out)]) == 0

    fitness = read_csv(out / "fitness.csv")
    assert fitness[0] == ["provider", "spec", "episode", "seed", "fitness"]
    assert len(fitness) == 1 + 3 * 4
    # paired seeds shared across providers: 101..104
    seeds = {row[0]: [r[3] for r in fitness[1:] if r[0] == row[0]]
             for row in fitness[1:]}
    for label, s in seeds.items():
        assert s == ["101", "102", "103", "104"]

    comparisons = read_csv(out / "comparisons.csv")
    assert comparisons[0] == ["label_a", "label_b", "mean_a", "mean_b", "U", "p"]
    assert len(comparisons) == 1 + 3  # C(3,2)
    values = {}
    for row in fitness[1:]:
        values.setdefault(row[0], []).append(float(row[4]))
    for row in comparisons[1:]:
        assert 0.0 <= float(row[5]) <= 1.0
        a, b = values[row[0]], values[row[1]]
        assert row[2:] == [repr(float(np.mean(a))), repr(float(np.mean(b))),
                           *map(repr, mann_whitney_u(a, b))]

    manifest = json.loads((out / "manifest.json").read_text())
    assert "genome_evolved" in manifest["inputs"]
    assert manifest["config"]["evaluation_episodes"] == 4
    assert manifest["config"]["episode_seeds"] == [101, 102, 103, 104]


def test_evaluate_same_provider_twice_identical(tmp_path, trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"""
predictor_path = {trained_model}
providers = hardcoded | hardcoded
evaluation_episodes = 3
""")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
    rows = read_csv(out / "fitness.csv")[1:]
    by_label = {}
    for label, spec, ep, seed, fit in rows:
        by_label.setdefault(label, []).append((ep, seed, fit))
    a, b = list(by_label.values())
    assert a == b
    comparisons = read_csv(out / "comparisons.csv")[1:]
    assert float(comparisons[0][5]) == 1.0  # identical samples: p = 1


def test_evaluate_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """Acting is a vector product per lane and layer, whose sums OpenBLAS
    orders alike at any thread count; a full-size model makes the products
    large enough to be split over two threads."""
    model = tmp_path / "predictor.model"
    save_predictor(PredictorNet(observation_size(),
                                rng=np.random.default_rng(8)), model)
    genome = constant_genome(tmp_path)
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {model}\n"
                   f"providers = hardcoded | evolved:{genome}\n"
                   "evaluation_episodes = 3\nwrite_traces = true\n")
    src = str(Path(cli.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "goalevo.cli", "evaluate", "--config",
             str(cfg), "--seed", "4", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src,
                 "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes() for name in (
            "fitness.csv", "comparisons.csv", "trace_hardcoded.csv",
            "trace_evolved.csv")})
    assert outputs[0] == outputs[1]


def test_evaluate_unknown_provider_is_usage_error(tmp_path, trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = berserk\n")
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1


def test_evaluate_traces_written_when_requested(tmp_path, trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = defensive\nevaluation_episodes = 2\n"
                   "write_traces = true\n")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
    trace_path = out / "trace_defensive.csv"
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "step,action,ammo,health,kills,agent_x,agent_y"
    trace = read_csv(trace_path)
    assert trace[0] == ["step", "action", "ammo", "health", "kills",
                       "agent_x", "agent_y"]
    assert len(trace) > 1
    # one row per step: step, action name, ammo, health, kills, x, y
    step, action, *numbers = trace[1]
    assert step == "0" and action in ACTION_NAMES
    assert numbers[:3] == ["20", "100", "0"]  # the original preset's start
    assert all(0 <= int(v) < 15 for v in numbers[3:])
    assert all(len(row) == 7 for row in trace)
    # replayed on the episode's seed (seed + 1), each row holds the state
    # before its step, and the rows end with the episode
    manifest = json.loads((out / "manifest.json").read_text())
    env = GridBattleEnv(ScenarioConfig(**manifest["config"]["scenario"]))
    env.reset(2)
    done = False
    for t, (step, action, *numbers) in enumerate(trace[1:]):
        assert not done and step == str(t)
        assert [int(v) for v in numbers] == [env.ammo, env.health, env.kills,
                                             env.agent_col, env.agent_row]
        _, done = env.step(ACTION_NAMES.index(action))
    assert done


def test_traced_evaluate_prints_every_path_it_wrote(tmp_path, capsys,
                                                    trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = defensive | hardcoded\nevaluation_episodes = 1\n"
                   "write_traces = true\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == str(out / "manifest.json")
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(printed) == sorted(
        str(out / name) for name in [*manifest["outputs"], "manifest.json"])
    assert sorted(printed) == sorted(str(p) for p in out.iterdir())
    assert len(printed) == 5  # fitness, comparisons, two traces, manifest


def test_traced_evaluate_keeps_nothing_per_step(tmp_path, trained_model):
    """Tracing a 400-step episode costs no memory per step: the rows go
    straight to the file."""
    peaks = {}
    # the first run warms the caches; the next two are measured
    for run, traces in enumerate(("false", "false", "true")):
        cfg = tmp_path / f"eval{run}.cfg"
        cfg.write_text(
            "scenario.grid_width = 15\nscenario.grid_height = 15\n"
            "scenario.n_monsters = 0\nscenario.episode_length = 400\n"
            f"predictor_path = {trained_model}\nproviders = defensive\n"
            f"evaluation_episodes = 1\nwrite_traces = {traces}\n")
        tracemalloc.start()
        try:
            assert cli.main(["evaluate", "--config", str(cfg), "--seed", "1",
                             "--out", str(tmp_path / f"out{run}")]) == 0
            peaks[traces] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(read_csv(tmp_path / "out2" / "trace_defensive.csv")) == 401
    assert peaks["true"] - peaks["false"] <= 64 * 1024


def test_evaluate_write_traces_accepts_yes(tmp_path, trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = defensive | hardcoded\nevaluation_episodes = 2\n"
                   "write_traces = yes\n")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("trace_*.csv")) == \
        ["trace_defensive.csv", "trace_hardcoded.csv"]


def test_evaluate_write_traces_rejects_non_boolean(tmp_path, trained_model,
                                                   capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = defensive\nevaluation_episodes = 2\n"
                   "write_traces = maybe\n")
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "maybe" in err[0]


# -- sweep ------------------------------------------------------------------


def constant_genome(tmp_path, value=0.25):
    nodes = {i: NodeGene(i, 0.0, "in") for i in range(3)}
    nodes.update({i: NodeGene(i, value, "out") for i in range(3, 6)})
    path = tmp_path / "const_genome.txt"
    goal_net.save_genome(Genome(nodes=nodes, conns={}), path)
    return path


def test_sweep_grid_and_constant_outputs(tmp_path):
    genome_path = constant_genome(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"genome_path = {genome_path}\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["axis", "ammo", "health", "kills",
                       "goal_ammo", "goal_health", "goal_kills"]
    # default grids: ammo 0..40 step 1, health 0..100 step 5, kills 0..25 step 1
    assert len(rows) == 1 + 41 + 21 + 26
    for row in rows[1:]:
        assert (float(row[4]), float(row[5]), float(row[6])) == (0.25, 0.25, 0.25)
    axes = {row[0] for row in rows[1:]}
    assert axes == {"ammo", "health", "kills"}


def test_sweep_respects_custom_grid_and_is_deterministic(tmp_path):
    genome_path = constant_genome(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"genome_path = {genome_path}\n"
                   "sweep.ammo_max = 10\nsweep.ammo_step = 2\n"
                   "sweep.health_max = 20\nsweep.kills_max = 4\n")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg), "--seed", "0",
                         "--out", str(out)]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = read_csv(tmp_path / "a" / "sweep.csv")
    assert len(rows) == 1 + 6 + 5 + 5


def test_sweep_missing_genome(tmp_path, capsys):
    error = fails_before_work(tmp_path, capsys, "sweep",
                              "genome_path = /nonexistent/genome.txt\n")
    assert "'genome_path'" in error and "/nonexistent/genome.txt" in error


@pytest.mark.parametrize("old, new", [
    ("node 5 0.25 out\n", ""),                    # output node missing
    ("node 0 0.0 in\n", "node 0 0.0 hidden\n"),  # input node of the wrong type
    ("", "conn 9 0 7 1.0 1\n"),                   # connection to an unknown node
    ("", "bogus\n"),                              # a line that does not parse
    ("", "node 6 0.0 hidden\nnode 7 0.0 hidden\n"  # a cycle
         "conn 9 6 7 1.0 1\nconn 10 7 6 1.0 1\n"),
    ("node 3 0.25 out\n", "node 3 nan out\n"),  # a bias that is not a number
    ("", "conn 9 0 3 inf 1\n"),                  # an infinite weight
    ("", "node 99 0.5 hidden\nconn 9999 99 0 25.0 1\n"),  # into an input
])
def test_sweep_rejects_incomplete_genome(tmp_path, capsys, trained_model, old,
                                         new):
    """``evaluate`` loads genome files the same way and must reject them too."""
    genome_path = constant_genome(tmp_path)
    text = genome_path.read_text()
    assert old in text
    genome_path.write_text(text.replace(old, new) if old else text + new)
    for command, config in (
            ("sweep", f"genome_path = {genome_path}\n"),
            ("evaluate", TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                         f"providers = hardcoded | evolved:{genome_path}\n")):
        error = fails_before_work(tmp_path, capsys, command, config)
        assert str(genome_path) in error


# -- entry point --------------------------------------------------------------


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "goalevo.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train-predictor" in proc.stdout


def test_the_program_imports_without_scipy():
    """scipy is a test oracle only; importing it costs every command more
    than its own start-up."""
    code = ("import sys, goalevo.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario.monster_speed = 3\n")
    assert cli.main(["train-predictor", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1
    assert "'scenario.monster_speed'" in capsys.readouterr().err


def fails_before_work(tmp_path, capsys, command, config_text, seed="0"):
    """Run ``command`` on the config; it must exit 1 with one error line and
    without creating its output directory. Returns the error line."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--seed", seed,
                     "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


@pytest.mark.parametrize("command, line, key", [
    ("evaluate", "evaluation_episode = 1", "evaluation_episode"),  # typo
    ("evaluate", "goal = hardcoded", "goal"),  # not an alias of providers
    ("evolve", "providers = hardcoded", "providers"),  # read by evaluate only
    ("sweep", "predictor.batch_size = 8", "predictor.batch_size"),
    ("evolve", "evolution.populaton_size = 8", "evolution.populaton_size"),
])
def test_keys_a_command_does_not_read_are_rejected(tmp_path, capsys,
                                                   trained_model, command,
                                                   line, key):
    valid = {
        "evaluate": TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                    "providers = hardcoded\n",
        "evolve": evolve_config(trained_model),
        "sweep": f"genome_path = {constant_genome(tmp_path)}\n",
    }[command]
    error = fails_before_work(tmp_path, capsys, command, valid + line + "\n")
    assert repr(key) in error


@pytest.mark.parametrize("command", ["train-predictor", "evolve", "evaluate"])
def test_horizon_weights_must_match_the_offset_count(tmp_path, capsys,
                                                     trained_model, command):
    config = {  # the tiny predictor has temporal offsets 1,2
        "train-predictor": TINY_PREDICTOR,
        "evolve": evolve_config(trained_model),
        "evaluate": TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                    "providers = hardcoded\n",
    }[command]
    error = fails_before_work(tmp_path, capsys, command,
                              config + "horizon_weights = 1,1,1\n")
    assert "horizon_weights" in error


@pytest.mark.parametrize("command, line, key", [
    ("evaluate", "evaluation_episodes = x", "evaluation_episodes"),
    ("evaluate", "evaluation_episodes = 2.5", "evaluation_episodes"),
    ("evaluate", "write_traces = maybe", "write_traces"),
    ("evaluate", "horizon_weights = a,b", "horizon_weights"),
    ("evaluate", "providers = |", "providers"),
    ("evaluate", "providers = evolved:/nope.txt", "providers"),
    ("evolve", "horizon_weights = 1,b", "horizon_weights"),
    ("train-predictor", "horizon_weights = a,b", "horizon_weights"),
    ("train-predictor", "predictor.batch_size = many", "predictor.batch_size"),
    ("evaluate", "scenario.n_monsters = many", "scenario.n_monsters"),
])
def test_values_that_do_not_parse_name_their_key(tmp_path, capsys,
                                                 trained_model, command,
                                                 line, key):
    config = {
        "train-predictor": TINY_PREDICTOR,
        "evolve": evolve_config(trained_model),
        "evaluate": TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                    "providers = hardcoded\n",
    }[command]
    error = fails_before_work(tmp_path, capsys, command, config + line + "\n")
    assert repr(key) in error and repr(line.split(" = ")[1]) in error


@pytest.mark.parametrize("command, line, key", [
    ("train-predictor", "predictor.momentum = 1.0", "momentum"),
    ("train-predictor", "predictor.learning_rate = -1", "learning_rate"),
    ("train-predictor", "predictor.epsilon_start = 3", "epsilon_start"),
    ("train-predictor", "predictor.hidden_sizes = -5", "hidden_sizes"),
    ("sweep", "sweep.ammo_step = 0", "ammo_step"),
    ("sweep", "sweep.ammo_min = 50", "ammo_min"),
    ("evolve", "evolution.stagnation_generations = 0",
     "stagnation_generations"),
    ("evolve", "evolution.add_connection_rate = 1.5", "add_connection_rate"),
    ("evolve", "evolution.delete_connection_rate = -0.1",
     "delete_connection_rate"),
    ("evolve", "evolution.add_node_rate = 7", "add_node_rate"),
    ("evolve", "evolution.delete_node_rate = nan", "delete_node_rate"),
    ("evolve", "evolution.weight_mutate_rate = 2", "weight_mutate_rate"),
    ("evolve", "evolution.weight_replace_rate = -1", "weight_replace_rate"),
    ("evolve", "evolution.weight_perturb_sigma = -1", "weight_perturb_sigma"),
    ("evolve", "evolution.weight_perturb_sigma = inf",
     "weight_perturb_sigma"),
    ("evolve", "evolution.compatibility_threshold = -3",
     "compatibility_threshold"),
    ("evolve", "evolution.compatibility_threshold = 0",
     "compatibility_threshold"),
    ("evolve", "evolution.c_excess = -1", "c_excess"),
    ("evolve", "evolution.c_disjoint = inf", "c_disjoint"),
    ("evolve", "evolution.c_weight = -0.5", "c_weight"),
    ("evolve", "evolution.weight_min = nan", "weight_min"),
    ("evolve", "evolution.weight_max = inf", "weight_max"),
    ("evolve", "evolution.weight_min = -inf", "weight_min"),
    ("evolve", "evolution.weight_min = 40", "weight_min"),
    ("evaluate", "scenario.monster_health = 0", "monster_health"),
    ("evaluate", "scenario.death_penalty = nan", "death_penalty"),
    ("evaluate", "scenario.n_monsters = 2000", "n_monsters"),
    ("train-predictor", "predictor.temporal_offsets = 1,41",
     "scenario.episode_length"),
    ("train-predictor", "scenario.wall_layout_seed = -3", "wall_layout_seed"),
    ("evaluate", "horizon_weights = nan,1", "horizon_weights"),
    ("train-predictor", "--seed -1", "--seed"),
])
def test_out_of_range_values_name_their_key(tmp_path, capsys, trained_model,
                                            command, line, key):
    config = {
        "train-predictor": TINY_PREDICTOR,
        "evolve": evolve_config(trained_model),
        "evaluate": TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                    "providers = hardcoded\n",
        "sweep": f"genome_path = {constant_genome(tmp_path)}\n",
    }[command]
    if line.startswith("--seed"):  # a command-line flag, not a config line
        error = fails_before_work(tmp_path, capsys, command, config,
                                  seed=line.split()[1])
    else:
        error = fails_before_work(tmp_path, capsys, command,
                                  config + line + "\n")
        assert line.split(" = ")[0] in error  # as the file spells the key
    assert key in error


def test_evaluate_checks_every_episode_world_before_work(tmp_path, capsys,
                                                         trained_model):
    # 49 entities fit the 7x7 interior, but every seeded wall layout of a
    # 9x9 grid takes some of its cells
    error = fails_before_work(
        tmp_path, capsys, "evaluate",
        "scenario.grid_width = 9\nscenario.grid_height = 9\n"
        "scenario.n_monsters = 34\n"
        f"predictor_path = {trained_model}\nproviders = hardcoded\n")
    assert "free cells" in error


@pytest.mark.parametrize("config_class", [PredictorConfig, EvolutionConfig,
                                          ScenarioConfig, cli.SweepSpec])
def test_every_numeric_config_field_must_be_finite(config_class):
    """Walks every field, so a field added later is checked too: each number
    must be finite whether or not the field declares bounds."""
    default = config_class()
    numeric = ("int", "float", "tuple[int, ...]", "tuple[float, ...]")
    assert all(f.type in numeric + ("bool", "str")
               for f in dataclasses.fields(default))
    for f in dataclasses.fields(default):
        if f.type not in numeric:
            continue
        for bad in (math.nan, math.inf, -math.inf):
            value = (bad,) if f.type.startswith("tuple") else bad
            with pytest.raises(ConfigError, match=f.name):
                dataclasses.replace(default, **{f.name: value})


def test_evaluate_accepts_horizon_weights_of_the_offset_count(tmp_path,
                                                              trained_model):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(TINY_SCENARIO + f"predictor_path = {trained_model}\n"
                   "providers = hardcoded\nevaluation_episodes = 1\n"
                   "horizon_weights = 0.5,1\n")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["horizon_weights"] == [0.5, 1.0]


@pytest.mark.parametrize("damage", ["header lacks obs_dim", "truncated",
                                    "trailing bytes", "one array too few",
                                    "binary header", "header is not JSON",
                                    "header is a JSON list",
                                    "made for another environment",
                                    "four actions", "hidden sizes a number",
                                    "obs_dim a list", "arrays a number",
                                    "offsets null", "last bias NaN"])
def test_evaluate_rejects_a_damaged_model_file(tmp_path, capsys,
                                               trained_model, damage):
    """``evolve`` loads the model the same way and must reject it too."""
    model = tmp_path / "damaged.model"
    if damage == "made for another environment":
        save_predictor(PredictorNet(10, offsets=(1, 2), hidden_sizes=(8,)),
                       model)
    elif damage == "four actions":  # an agent that can never attack
        save_predictor(PredictorNet(observation_size(), offsets=(1, 2),
                                    hidden_sizes=(8,), n_actions=4), model)
    else:
        model.write_bytes(damaged_model_bytes(trained_model, damage))
    for command, config in (
            ("evaluate", TINY_SCENARIO + f"predictor_path = {model}\n"
                         "providers = hardcoded\n"),
            ("evolve", evolve_config(model))):
        error = fails_before_work(tmp_path, capsys, command, config)
        assert str(model) in error


def damaged_model_bytes(model, damage):
    header, payload = model.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    if damage == "header lacks obs_dim":
        del fields["obs_dim"]
    elif damage == "truncated":
        payload = payload[:-8]
    elif damage == "trailing bytes":
        payload += bytes(8)
    elif damage == "one array too few":  # the last bias is nowhere
        bias = fields["arrays"].pop()
        payload = payload[:-8 * bias["shape"][0]]
    elif damage == "hidden sizes a number":
        fields["hidden_sizes"] = 128
    elif damage == "obs_dim a list":
        fields["obs_dim"] = [fields["obs_dim"]]
    elif damage == "arrays a number":
        fields["arrays"] = 5
    elif damage == "offsets null":
        fields["offsets"] = None
    elif damage == "last bias NaN":
        payload = payload[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    header = json.dumps(fields).encode()
    if damage == "binary header":  # json guesses UTF-16 and cannot decode
        header = b"\x00\xd8" + bytes(range(11, 256))
    elif damage == "header is not JSON":
        header = b"goalevo predictor"
    elif damage == "header is a JSON list":
        header = b"[1, 2]"
    return header + b"\n" + payload


def documented_keys():
    """Each command's config keys, as README's "Config keys" list gives
    them; a prefix reads ``<prefix>.*``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("The keys mean:")[0]
    keys = {}
    for item in section.split("\n- ")[1:]:
        command, *names = re.findall(r"`([^`]+)`", item)
        keys[command] = names
    return keys


@pytest.mark.parametrize("command", ["train-predictor", "evolve", "evaluate",
                                     "sweep"])
def test_each_command_accepts_every_key_it_documents(tmp_path, trained_model,
                                                     command):
    """A key the command reads only after its unread-key check would fail
    here as unknown."""
    genome = constant_genome(tmp_path)
    lines = {
        "scenario.*": TINY_SCENARIO,
        "predictor.*": "predictor.training_episodes = 2\n"
                       "predictor.hidden_sizes = 8\n"
                       "predictor.temporal_offsets = 1,2\n"
                       "predictor.batch_size = 16\n",
        "evolution.*": "evolution.population_size = 4\n"
                       "evolution.generations = 1\n"
                       "evolution.episodes_per_eval = 1\n",
        "sweep.*": "sweep.kills_max = 4\n",
        "predictor_path": f"predictor_path = {trained_model}\n",
        "genome_path": f"genome_path = {genome}\n",
        "providers": f"providers = hardcoded | evolved:{genome}\n",
        "evaluation_episodes": "evaluation_episodes = 1\n",
        "write_traces": "write_traces = true\n",
        "horizon_weights": "horizon_weights = 0.5,1\n",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(lines[key] for key in documented_keys()[command]))
    assert cli.main([command, "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 0
