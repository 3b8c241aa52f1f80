"""Time the training path and count its minor page faults, seed by seed.

Run from the root of a checkout, with one or more seeds:

    python3 tools/train_faults.py 2 7 10 501 603

For each seed, a fresh interpreter runs ``train-predictor`` through
``goalevo.cli.main`` on the benchmark's ``train_original`` config (the
default net, 6 episodes, one gradient step per 3 environment steps) at one
BLAS thread, in a temporary directory. It prints one line per seed: the
wall time of the command, its number of ``train_step`` calls, and the minor
page faults the process took during the command (``getrusage``, read
before and after).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import multiprocessing
import os
import resource
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CONFIG = ("predictor.training_episodes = 6\n"
          "predictor.train_interval = 3\n")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _measure(seed: int) -> tuple[float, int, int]:
    """Wall seconds, train_step calls and minor faults of one command."""
    from goalevo import cli, predictor

    calls = 0
    step = predictor.train_step

    def counted(net, batch):
        nonlocal calls
        calls += 1
        return step(net, batch)

    predictor.train_step = counted
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "train.cfg"
        config.write_text(CONFIG)
        argv = ["train-predictor", "--config", str(config), "--seed",
                str(seed), "--out", str(Path(tmp) / "out")]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if status != 0:
        raise RuntimeError(f"train-predictor exited {status} at seed {seed}")
    return wall, calls, faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    os.environ.update(THREADS)  # inherited by each fresh interpreter
    spawn = multiprocessing.get_context("spawn")
    print("seed  wall_s  train_steps  minor_faults")
    for seed in args.seeds:
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            wall, calls, faults = pool.submit(_measure, seed).result()
        print(f"{seed}  {wall:.3f}  {calls}  {faults}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
