"""Compare the benchmark's end-to-end metrics of a commit and the working tree.

Run from the root of a checkout, naming the commit to compare against:

    python3 tools/bench_pairs.py HEAD~1 --workloads evolve_hard --pairs 10

A pair is one ``bench/run.py --trace 0`` run of a workload in a ``git
archive`` copy of REV and one in the working tree, at the same seed
(``--seed-base`` plus the pair's index). The side that runs first
alternates from pair to pair, so a drift in the machine's load falls on
both sides alike. Runs go one at a time.

For each workload and each end-to-end metric that ``BENCHMARK.json``
declares, it prints the median and quartiles of each side, the ratio of
the medians (working tree over REV), the pairs the working tree won, and
the gain in the median (positive when the working tree is better) next to
REV's interquartile range. A run that is not ``correct`` or that has
failed operations is reported as such.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def summarize(base: list[float], head: list[float], better: str) -> dict:
    """The (q1, median, q3) of each side, the ratio of the medians (head
    over base), the pairs head won (pair i is ``base[i]`` against
    ``head[i]``; a tie wins nothing), and the gap between the medians,
    signed so that a gain is positive, next to base's interquartile range."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same, nonzero number of runs on each side")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    base_q = tuple(np.percentile(base, [25, 50, 75]).tolist())
    head_q = tuple(np.percentile(head, [25, 50, 75]).tolist())
    return {
        "base": base_q,
        "head": head_q,
        "ratio": head_q[1] / base_q[1],
        "won": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        "gap": sign * (head_q[1] - base_q[1]),
        "base_iqr": base_q[2] - base_q[0],
    }


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {done.returncode} in "
                           f"{checkout}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=1801)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive,
                       check=True)
        results: dict = {}
        for workload in args.workloads:
            runs = results[workload] = {"base": [], "head": []}
            for i in range(args.pairs):
                seed = args.seed_base + i
                sides = [("base", base_dir), ("head", ROOT)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    out = _run(checkout, workload, seed, args.seconds)
                    runs[side].append(out)
                    print(f"{workload} seed {seed} {side}: correct "
                          f"{out['correct']}, failed {out['failed']}",
                          file=sys.stderr, flush=True)

    print(f"{args.rev} (base) against the working tree (head), "
          f"{args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed_base}-{args.seed_base + args.pairs - 1}")
    print("workload | metric | base median [q1-q3] | head median [q1-q3] | "
          "ratio | won | gain | base IQR")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, head = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("base", "head"))
            s = summarize(base, head, metric["better"])
            print(f"{workload} | {name} | {s['base'][1]:.6g} "
                  f"[{s['base'][0]:.6g}-{s['base'][2]:.6g}] | "
                  f"{s['head'][1]:.6g} [{s['head'][0]:.6g}-{s['head'][2]:.6g}]"
                  f" | {s['ratio']:.3f} | {s['won']}/{len(base)} | "
                  f"{s['gap']:+.6g} | {s['base_iqr']:.6g}")
        bad = [f"{side} seed {args.seed_base + i}"
               for side in ("base", "head")
               for i, r in enumerate(runs[side])
               if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: not correct or with failed operations: "
                  f"{', '.join(bad)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
