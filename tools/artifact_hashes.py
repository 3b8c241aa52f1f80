"""Print the SHA-256 of every artifact a fixed set of goalevo commands writes.

Run from the root of a checkout:

    python3 tools/artifact_hashes.py

Each command runs in a fresh process on the checkout's own ``src``, with
inputs named by paths relative to the checkout and outputs in a temporary
directory. The output is one ``sha256  artifact`` line per file, manifests
included, so two checkouts that must write identical artifacts can be
compared with ``diff``. The commands cover every CSV the program writes,
the model file, the genome file, goal networks with hidden nodes, a
training run whose replay ring wraps, a greedy training run (epsilon 0,
where each step still draws from the training generator), an evolution
run that removes stagnant species, an
evaluation on ``hard`` where agents die: death-penalty fitness values, a
provider listed twice (label ``hardcoded#2``, trace
``trace_hardcoded_2.csv``) and rank tests with ties, an evaluation
with no monsters, where every fitness is 0, and an evaluation on a small
crowded grid where monsters start near the agent, killed monsters stay
dead and picked-up items never return.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 3
PREDICTOR = "bench/inputs/predictor.model"
GENOME = "bench/inputs/genome_original.txt"

# (output directory, command, config text)
RUNS = (
    ("train", "train-predictor",
     "predictor.training_episodes = 6\n"
     "predictor.train_interval = 3\n"),
    # a replay ring smaller than the steps played, so it wraps
    ("train_wrap", "train-predictor",
     "predictor.training_episodes = 5\n"
     "predictor.train_interval = 4\n"
     "predictor.replay_capacity = 700\n"
     "predictor.batch_size = 32\n"),
    # epsilon 0 throughout: every action is greedy, and each step still
    # draws once from the training generator
    ("train_greedy", "train-predictor",
     "predictor.training_episodes = 4\n"
     "predictor.train_interval = 3\n"
     "predictor.epsilon_start = 0\n"
     "predictor.epsilon_end = 0\n"),
    ("evolve_hard", "evolve",
     "scenario.preset_name = hard\n"
     f"predictor_path = {PREDICTOR}\n"
     "evolution.population_size = 20\n"
     "evolution.generations = 5\n"
     "evolution.episodes_per_eval = 8\n"
     "evolution.n_workers = 2\n"),
    ("evolve_original_hidden", "evolve",
     "scenario.preset_name = original\n"
     f"predictor_path = {PREDICTOR}\n"
     "evolution.population_size = 16\n"
     "evolution.generations = 12\n"
     "evolution.episodes_per_eval = 2\n"
     "evolution.add_node_rate = 0.5\n"
     "evolution.add_connection_rate = 0.5\n"),
    # species stagnate within a few generations and are removed
    ("evolve_stagnant", "evolve",
     "scenario.preset_name = hard\n"
     f"predictor_path = {PREDICTOR}\n"
     "evolution.population_size = 12\n"
     "evolution.generations = 8\n"
     "evolution.episodes_per_eval = 2\n"
     "evolution.stagnation_generations = 2\n"
     "evolution.compatibility_threshold = 1.0\n"),
    ("evaluate", "evaluate",
     "scenario.preset_name = original\n"
     f"predictor_path = {PREDICTOR}\n"
     f"providers = static:0.5,0.5,1.0 | hardcoded | defensive | "
     f"evolved:{GENOME}\n"
     "evaluation_episodes = 20\n"
     "write_traces = true\n"),
    ("evaluate_hard", "evaluate",
     "scenario.preset_name = hard\n"
     f"predictor_path = {PREDICTOR}\n"
     "providers = static:0.5,0.5,1.0 | hardcoded | hardcoded\n"
     "evaluation_episodes = 20\n"
     "write_traces = true\n"),
    # no monsters: the env's empty-list path, and every fitness is 0, so
    # the rank test sees one tied value
    ("evaluate_empty", "evaluate",
     "scenario.preset_name = original\n"
     "scenario.n_monsters = 0\n"
     f"predictor_path = {PREDICTOR}\n"
     f"providers = static:0.5,0.5,1.0 | evolved:{GENOME}\n"
     "evaluation_episodes = 4\n"
     "write_traces = true\n"),
    # 10 monsters on a 9x9 grid: some start on cells near the agent, and
    # without respawns a kill removes its monster and a pickup its item
    ("evaluate_small_world", "evaluate",
     "scenario.preset_name = original\n"
     "scenario.grid_width = 9\n"
     "scenario.grid_height = 9\n"
     "scenario.n_monsters = 10\n"
     "scenario.item_respawn_steps = 0\n"
     "scenario.monster_respawn = false\n"
     f"predictor_path = {PREDICTOR}\n"
     "providers = static:0.5,0.5,1.0 | hardcoded\n"
     "evaluation_episodes = 6\n"
     "write_traces = true\n"),
    ("sweep", "sweep", f"genome_path = {GENOME}\n"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "goalevo" / "cli.py").exists():
        print("error: run from the root of a goalevo checkout", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, command, config_text in RUNS:
            config = work / f"{name}.cfg"
            config.write_text(config_text)
            subprocess.run([sys.executable, "-m", "goalevo.cli", command,
                            "--config", str(config), "--seed", str(SEED),
                            "--out", str(work / name)],
                           cwd=root, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        for name, _, _ in RUNS:
            for path in sorted((work / name).iterdir()):
                print(f"{_sha256(path)}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
