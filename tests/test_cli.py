import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from goalevo import cli, goal_net
from goalevo.goal_net import ConnGene, Genome, NodeGene

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


def test_evolve_missing_model_file(tmp_path):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(TINY_SCENARIO + "predictor_path = /nonexistent/model\n")
    assert cli.main(["evolve", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1


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
    artifacts = []
    for workers in (1, 2):
        cfg = tmp_path / f"evolve_{workers}.cfg"
        cfg.write_text(evolve_config(trained_model)
                       + f"evolution.n_workers = {workers}\n")
        out = tmp_path / f"workers_{workers}"
        assert cli.main(["evolve", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("best_genome.txt", "generations.csv")})
    assert artifacts[0] == artifacts[1]


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
    for row in comparisons[1:]:
        assert 0.0 <= float(row[5]) <= 1.0

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
    trace = read_csv(out / "trace_defensive.csv")
    assert trace[0] == ["step", "action", "ammo", "health", "kills",
                       "agent_x", "agent_y"]
    assert len(trace) > 1


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


def test_sweep_missing_genome(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("genome_path = /nonexistent/genome.txt\n")
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("old, new", [
    ("node 5 0.25 out\n", ""),                    # output node missing
    ("node 0 0.0 in\n", "node 0 0.0 hidden\n"),  # input node of the wrong type
    ("", "conn 9 0 7 1.0 1\n"),                   # connection to an unknown node
])
def test_sweep_rejects_incomplete_genome(tmp_path, capsys, old, new):
    genome_path = constant_genome(tmp_path)
    text = genome_path.read_text()
    assert old in text
    genome_path.write_text(text.replace(old, new) if old else text + new)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"genome_path = {genome_path}\n")
    assert cli.main(["sweep", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# -- entry point --------------------------------------------------------------


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "goalevo.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train-predictor" in proc.stdout


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario.monster_speed = 3\n")
    assert cli.main(["train-predictor", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 1
    assert "monster_speed" in capsys.readouterr().err
