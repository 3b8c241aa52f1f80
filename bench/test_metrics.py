"""The benchmark prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _round(traced: bool, wall: float) -> run.Round:
    spans = {"spans": {"env.step": {"dur": np.array([1e-5, 3e-5]),
                                    "self": np.array([1e-5, 2e-5])}},
             "sizes": {}}
    return run.Round(traced, [run.Outcome(0.5, wall, 60.0,
                                          spans=spans if traced else None)])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_end_to_end_metrics_match_the_declaration():
    metrics = run.end_to_end([_round(False, w) for w in (2.0, 4.0, 5.0)], 100)
    assert {k: unit for k, (_, unit) in metrics.items()} == \
        _declared("end_to_end")
    assert metrics["env_steps_per_s"][0] == 25.0  # the median round's rate


def test_per_layer_metrics_match_the_declaration():
    metrics = run.per_layer([_round(True, 4.0)], [_round(False, 2.0)],
                            "eval_episodes_per_s", 40)
    assert {k: unit for k, (_, unit) in metrics.items()} == \
        _declared("per_layer")
    assert metrics["eval_episodes_per_s"][0] == 20.0
    assert metrics["grad_steps_per_s"][0] == 0.0
    assert metrics["env.step.calls"][0] == 2
    assert abs(metrics["env.self_s"][0] - 3e-5) < 1e-15
    assert metrics["trace.overhead_share"][0] == 0.5


def test_every_workload_is_declared():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
