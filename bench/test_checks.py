"""Each output check accepts what the program writes and rejects a
deliberately corrupted copy.

    python3 -m pytest bench

The artifacts come from the program's own CLI at a tiny size (short
episodes, a population of four), so the suite runs in seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SEED = 5
EPISODES = 9
TRAIN_EPISODES = 2
POPULATION, GENERATIONS, EPISODES_PER_EVAL = 4, 2, 2
LABELS = ["static", "hardcoded", "evolved"]
SHORT = "scenario.episode_length = 60\n"


def _cli(tmp: Path, command: str, config: str, out: str) -> Path:
    from goalevo import cli

    cfg = tmp / f"{out}.cfg"
    cfg.write_text(config)
    assert cli.main([command, "--config", str(cfg), "--seed", str(SEED),
                     "--out", str(tmp / out)]) == 0
    return tmp / out


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifacts")
    train = _cli(tmp, "train-predictor",
                 f"predictor.training_episodes = {TRAIN_EPISODES}\n"
                 "predictor.train_interval = 8\n", "train")
    model = train / "predictor.model"
    evolve = _cli(tmp, "evolve",
                  SHORT + "scenario.preset_name = hard\n"
                  f"predictor_path = {model}\n"
                  f"evolution.population_size = {POPULATION}\n"
                  f"evolution.generations = {GENERATIONS}\n"
                  f"evolution.episodes_per_eval = {EPISODES_PER_EVAL}\n",
                  "evolve")
    genome = evolve / "best_genome.txt"
    evaluate = _cli(tmp, "evaluate",
                    SHORT + f"predictor_path = {model}\n"
                    f"providers = static:0.5,0.5,1.0 | hardcoded | "
                    f"evolved:{genome}\n"
                    f"evaluation_episodes = {EPISODES}\n"
                    "write_traces = true\n", "evaluate")
    sweep = _cli(tmp, "sweep", f"genome_path = {genome}\n", "sweep")
    return {"train": train, "evolve": evolve, "evaluate": evaluate,
            "sweep": sweep, "model": model, "genome": genome}


@pytest.fixture
def copy(made, tmp_path):
    """A fresh copy of one artifact directory, safe to corrupt."""
    def _copy(name: str) -> Path:
        return Path(shutil.copytree(made[name], tmp_path / name))
    return _copy


def _edit_csv(path: Path, row: int, column: str, value) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row][column] = str(value)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _fitness(out: Path):
    return checks.check_fitness(out / "fitness.csv", LABELS, EPISODES, SEED, 0.0)


def _trace(out: Path, label: str = "static"):
    values = _fitness(out)
    checks.check_trace(out / f"trace_{label}.csv", 20, 100, 60,
                       values[label][0], 0.0)


# -- what the program writes passes ------------------------------------------------


def test_program_artifacts_pass(made):
    for name in ("train", "evolve", "evaluate", "sweep"):
        checks.check_manifest(made[name], Path.cwd())
    checks.check_loss(made["train"] / "loss.csv", TRAIN_EPISODES)
    checks.check_model(made["model"])
    manifest = json.loads((made["evolve"] / "manifest.json").read_text())
    checks.check_generations(made["evolve"], manifest, POPULATION,
                             GENERATIONS, EPISODES_PER_EVAL)
    values = _fitness(made["evaluate"])
    checks.check_comparisons(made["evaluate"] / "comparisons.csv", values)
    for label in LABELS:
        _trace(made["evaluate"], label)
    checks.check_sweep(made["sweep"] / "sweep.csv", made["genome"])


# -- manifests and determinism ----------------------------------------------------


def test_manifest_rejects_a_wrong_hash(copy):
    out = copy("sweep")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"]["sweep.csv"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckFailed, match="hash of sweep.csv"):
        checks.check_manifest(out, Path.cwd())


def test_manifest_rejects_a_changed_output(copy):
    out = copy("evaluate")
    with open(out / "fitness.csv", "a") as fh:
        fh.write("\n")
    with pytest.raises(CheckFailed, match="hash of fitness.csv"):
        checks.check_manifest(out, Path.cwd())


def test_manifest_rejects_an_unlisted_file(copy):
    out = copy("sweep")
    (out / "stray.csv").write_text("x\n")
    with pytest.raises(CheckFailed, match="directory holds"):
        checks.check_manifest(out, Path.cwd())


def test_same_bytes_rejects_one_changed_byte(made):
    reference = checks.read_artifacts(made["sweep"])
    current = dict(reference)
    data = bytearray(current["sweep.csv"])
    data[-2] ^= 1
    current["sweep.csv"] = bytes(data)
    checks.check_same_bytes(reference, dict(reference))
    with pytest.raises(CheckFailed, match="sweep.csv differs"):
        checks.check_same_bytes(reference, current)


# -- train-predictor --------------------------------------------------------------


@pytest.mark.parametrize("row, column, value, message", [
    (1, "epsilon", 0.5, "epsilon"),
    (1, "loss", "nan", "NaN after updates began"),
    (0, "loss", -1.0, "loss -1.0"),
    (1, "epoch", 3, "epoch"),
])
def test_loss_rejects(copy, row, column, value, message):
    out = copy("train")
    _edit_csv(out / "loss.csv", row, column, value)
    with pytest.raises(CheckFailed, match=message):
        checks.check_loss(out / "loss.csv", TRAIN_EPISODES)


def test_loss_rejects_a_missing_row(made):
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_loss(made["train"] / "loss.csv", TRAIN_EPISODES + 1)


def test_model_rejects_trailing_and_missing_bytes(copy):
    out = copy("train")
    path = out / "predictor.model"
    data = path.read_bytes()
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(CheckFailed, match="trailing bytes"):
        checks.parse_model(path)
    path.write_bytes(data[:-8])
    with pytest.raises(CheckFailed, match="truncated"):
        checks.parse_model(path)


def test_model_rejects_a_wrong_layer_shape(copy):
    out = copy("train")
    path = out / "predictor.model"
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["obs_dim"] += 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(CheckFailed, match="layer 0"):
        checks.parse_model(path)


def test_model_rejects_a_forward_that_disagrees(made, monkeypatch):
    from goalevo import predictor

    original = predictor.PredictorNet.forward
    monkeypatch.setattr(predictor.PredictorNet, "forward",
                        lambda self, obs, m, g: original(self, obs, m, g) + 1e-6)
    with pytest.raises(CheckFailed, match="differs from the numpy forward"):
        checks.check_model(made["model"])


def test_numpy_forward_matches_a_hand_computed_net():
    header = {"n_actions": 1, "offsets": [1], "obs_dim": 1}
    w0, b0 = np.array([[2.0] * 7]), np.array([-1.0])
    w1, b1 = np.array([[1.0], [2.0], [-1.0]]), np.zeros(3)
    out = checks.model_forward(header, [w0, b0, w1, b1], np.array([0.0]),
                               (40, 0, 0), np.zeros(3))
    # hidden = 2 * (ammo 40/40 = 1) - 1 = 1
    assert out.reshape(-1).tolist() == [1.0, 2.0, -1.0]


# -- goal networks, evolve --------------------------------------------------------


def test_goal_net_rejects_a_cycle_and_a_missing_node(made):
    text = made["genome"].read_text()
    with pytest.raises(CheckFailed, match="cycle"):
        checks.GoalNet(text + "node 90 0.0 hidden\nnode 91 0.0 hidden\n"
                       "conn 900 90 91 1.0 1\nconn 901 91 90 1.0 1\n")
    with pytest.raises(CheckFailed, match="missing node"):
        checks.GoalNet(text + "conn 902 77 3 1.0 1\n")
    without_output = "\n".join(line for line in text.splitlines()
                               if not line.startswith("node 5 "))
    with pytest.raises(CheckFailed, match="node 5 is not an output"):
        checks.GoalNet(without_output)


def test_goal_net_evaluates_clamped_linear_units():
    net = checks.GoalNet("node 0 0.0 in\nnode 1 0.0 in\nnode 2 0.0 in\n"
                         "node 3 0.5 out\nnode 4 0.0 out\nnode 5 -3.0 out\n"
                         "node 6 0.1 hidden\n"
                         "conn 6 0 6 2.0 1\nconn 7 6 3 1.0 1\n"
                         "conn 8 1 4 -0.5 1\nconn 9 2 5 1.0 0\n")
    # node 6 = 0.1 + 2 * 0.2 = 0.5; node 3 = 0.5 + 0.5 = 1.0 (at the clamp)
    assert net((0.2, 0.4, 1.0)).tolist() == [1.0, -0.2, -1.0]


@pytest.mark.parametrize("row, column, value, message", [
    (0, "best_fitness", -1000.0, "best -1000.0 < mean"),
    (0, "best_fitness", 0.3, "is not a whole fitness sum"),
    (1, "mean_goal_kills", 1.5, "outside"),
    (1, "generation", 0, "generation"),
])
def test_generations_reject(copy, row, column, value, message):
    out = copy("evolve")
    _edit_csv(out / "generations.csv", row, column, value)
    manifest = json.loads((out / "manifest.json").read_text())
    with pytest.raises(CheckFailed, match=message):
        checks.check_generations(out, manifest, POPULATION, GENERATIONS,
                                 EPISODES_PER_EVAL)


@pytest.mark.parametrize("key, shift, message", [
    ("best_fitness", 1.0, "column maximum"),
    ("n_evaluations", 1, "n_evaluations"),
])
def test_generations_reject_a_wrong_manifest(made, key, shift, message):
    manifest = json.loads((made["evolve"] / "manifest.json").read_text())
    manifest["config"][key] += shift
    with pytest.raises(CheckFailed, match=message):
        checks.check_generations(made["evolve"], manifest, POPULATION,
                                 GENERATIONS, EPISODES_PER_EVAL)


# -- evaluate and sweep ----------------------------------------------------------


@pytest.mark.parametrize("column", ["p", "U", "mean_a", "mean_b"])
def test_comparisons_reject_a_changed_value(copy, column):
    out = copy("evaluate")
    path = out / "comparisons.csv"
    row = checks.read_rows(path)[0]
    _edit_csv(path, 0, column, repr(float(row[column]) * (1 + 1e-9) + 1e-9))
    with pytest.raises(CheckFailed, match=f": {column} "):
        checks.check_comparisons(path, _fitness(out))


def test_comparisons_reject_a_missing_pair(copy):
    out = copy("evaluate")
    path = out / "comparisons.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_comparisons(path, _fitness(out))


@pytest.mark.parametrize("row, column, value, message", [
    (0, "fitness", 2.5, "not kills - death penalty"),
    (0, "fitness", -1.0, "not kills - death penalty"),
    (3, "seed", 0, "fitness.csv row 3"),
])
def test_fitness_rejects(copy, row, column, value, message):
    out = copy("evaluate")
    _edit_csv(out / "fitness.csv", row, column, value)
    with pytest.raises(CheckFailed, match=message):
        _fitness(out)


@pytest.mark.parametrize("row, column, value, message", [
    (0, "ammo", 19, "starting measurements"),
    (0, "kills", 1, "starting measurements"),
    (5, "step", 6, "step 6"),
    (5, "health", 101, "health 101"),
    (5, "ammo", -1, "ammo -1"),
    (5, "action", "fly", "action"),
    (5, "agent_x", 999, "jumped"),
])
def test_trace_rejects(copy, row, column, value, message):
    out = copy("evaluate")
    _edit_csv(out / "trace_static.csv", row, column, value)
    with pytest.raises(CheckFailed, match=message):
        _trace(out)


def test_trace_rejects_falling_kills(copy):
    out = copy("evaluate")
    path = out / "trace_static.csv"
    rows = checks.read_rows(path)
    for i in range(len(rows) - 1):
        _edit_csv(path, i, "kills", 1 if i else 0)
    _edit_csv(path, len(rows) - 1, "kills", 0)
    with pytest.raises(CheckFailed, match="kills fell"):
        _trace(out)


def test_trace_rejects_kills_the_fitness_does_not_count(copy):
    out = copy("evaluate")
    _edit_csv(out / "fitness.csv", 0, "fitness", 40.0)
    with pytest.raises(CheckFailed, match="kills more than its last row"):
        _trace(out)


@pytest.mark.parametrize("value, message", [
    (1.5, "outside"),
    (None, "genome gives"),
])
def test_sweep_rejects_a_changed_goal(copy, made, value, message):
    out = copy("sweep")
    path = out / "sweep.csv"
    row = checks.read_rows(path)[7]
    if value is None:
        value = float(row["goal_ammo"]) * 0.5 + 0.01
    _edit_csv(path, 7, "goal_ammo", value)
    with pytest.raises(CheckFailed, match=message):
        checks.check_sweep(path, made["genome"])


def test_sweep_rejects_a_row_off_the_grid(copy, made):
    out = copy("sweep")
    _edit_csv(out / "sweep.csv", 3, "health", 55)
    with pytest.raises(CheckFailed, match="off the ammo grid"):
        checks.check_sweep(out / "sweep.csv", made["genome"])
