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

With ``--json PATH`` it also writes all of it as one JSON record: the two
commits, the pair count, run length and seeds, the ``env`` lines that
``bench/run.py`` printed on each side (CPU count, numpy, BLAS, threads),
and for each workload every run's correctness, failed operations and
end-to-end metric values next to their summary.
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


def record(spec: dict, base: dict, head: dict, seeds: list[int],
           seconds: float, results: dict) -> dict:
    """The comparison as one JSON-ready record. ``results`` maps each
    workload to its ``base`` and ``head`` lists of ``bench/run.py`` outputs,
    each with the ``env`` lines of its run added; the environment of each
    side is that of its first run."""
    first = next(iter(results.values()))
    workloads = {}
    for workload, runs in results.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in ("base", "head")}
            metrics[name] = {**values, "summary": summarize(
                values["base"], values["head"], metric["better"])}
        workloads[workload] = {
            key: {side: [r[key] for r in runs[side]]
                  for side in ("base", "head")}
            for key in ("correct", "failed")}
        workloads[workload]["metrics"] = metrics
    return {"base": base, "head": head, "pairs": len(seeds),
            "seconds": seconds, "seeds": seeds,
            "environment": {side: first[side][0]["env"]
                            for side in ("base", "head")},
            "workloads": workloads}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {done.returncode} in "
                           f"{checkout}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["env"] = dict(line[len("env "):].split(" = ", 1) for line in lines
                      if line.startswith("env "))
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=1801)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the comparison as one JSON record")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [args.seed_base + i for i in range(args.pairs)]
    base = {"rev": args.rev, "commit": _git("rev-parse", args.rev + "^{commit}")}
    head = {"commit": _git("rev-parse", "HEAD"), "uncommitted_changes": bool(
        _git("status", "--porcelain", "--untracked-files=no"))}

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive,
                       check=True)
        results: dict = {}
        for workload in args.workloads:
            runs = results[workload] = {"base": [], "head": []}
            for i, seed in enumerate(seeds):
                sides = [("base", base_dir), ("head", ROOT)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    out = _run(checkout, workload, seed, args.seconds)
                    runs[side].append(out)
                    print(f"{workload} seed {seed} {side}: correct "
                          f"{out['correct']}, failed {out['failed']}",
                          file=sys.stderr, flush=True)

    rec = record(spec, base, head, seeds, args.seconds, results)
    if args.json:
        args.json.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"{args.rev} (base) against the working tree (head), "
          f"{args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{seeds[0]}-{seeds[-1]}")
    print("workload | metric | base median [q1-q3] | head median [q1-q3] | "
          "ratio | won | gain | base IQR")
    for workload, runs in rec["workloads"].items():
        for name, values in runs["metrics"].items():
            s = values["summary"]
            print(f"{workload} | {name} | {s['base'][1]:.6g} "
                  f"[{s['base'][0]:.6g}-{s['base'][2]:.6g}] | "
                  f"{s['head'][1]:.6g} [{s['head'][0]:.6g}-{s['head'][2]:.6g}]"
                  f" | {s['ratio']:.3f} | {s['won']}/{args.pairs} | "
                  f"{s['gap']:+.6g} | {s['base_iqr']:.6g}")
        bad = [f"{side} seed {seed}"
               for side in ("base", "head")
               for seed, correct, failed in zip(
                   seeds, runs["correct"][side], runs["failed"][side])
               if not correct or failed]
        if bad:
            print(f"{workload}: not correct or with failed operations: "
                  f"{', '.join(bad)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
