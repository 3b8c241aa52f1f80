import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_a_higher_is_better_metric():
    base = [100.0, 110.0, 90.0, 120.0, 80.0]
    head = [130.0, 110.0, 95.0, 125.0, 70.0]
    s = bench_pairs.summarize(base, head, "higher")
    assert s["base"] == (90.0, 100.0, 110.0)
    assert s["head"] == (95.0, 110.0, 125.0)
    assert s["ratio"] == pytest.approx(1.1)
    assert s["won"] == 3  # the tie at 110 counts for neither side
    assert s["gap"] == 10.0
    assert s["base_iqr"] == 20.0


def test_summary_of_a_lower_is_better_metric_signs_the_gain():
    base = [2.0, 4.0, 6.0, 8.0]
    head = [1.0, 3.0, 7.0, 5.0]
    s = bench_pairs.summarize(base, head, "lower")
    assert s["base"] == (3.5, 5.0, 6.5)
    assert s["head"] == (2.5, 4.0, 5.5)
    assert s["ratio"] == 0.8
    assert s["won"] == 3
    assert s["gap"] == 1.0  # lower is better, so a lower median is a gain
    assert s["base_iqr"] == 3.0


def test_summary_needs_matching_nonempty_sides():
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "higher")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(KeyError):
        bench_pairs.summarize([1.0], [2.0], "sideways")


def _run_output(steps_per_s, correct=True, failed=0, commit="c0"):
    """One ``bench/run.py`` output as ``_run`` returns it."""
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                        "env_steps_per_s": {"value": steps_per_s,
                                            "unit": "steps/s"}},
            "env": {"commit": commit, "cpus": "2", "numpy": "2.4.6"}}


def test_record_holds_every_run_and_its_summary():
    spec = {"end_to_end": [
        {"name": "setup_s", "better": "lower"},
        {"name": "env_steps_per_s", "better": "higher"}]}
    results = {"evaluate_original": {
        "base": [_run_output(v, commit="b") for v in (100.0, 110.0, 90.0)],
        "head": [_run_output(120.0, commit="h"),
                 _run_output(130.0, correct=False),
                 _run_output(80.0, failed=2)]}}
    base = {"rev": "HEAD", "commit": "b"}
    head = {"commit": "h", "uncommitted_changes": True}
    rec = bench_pairs.record(spec, base, head, [7, 8, 9], 20.0, results)
    assert (rec["base"], rec["head"]) == (base, head)
    assert (rec["pairs"], rec["seconds"], rec["seeds"]) == (3, 20.0, [7, 8, 9])
    assert rec["environment"] == {
        "base": {"commit": "b", "cpus": "2", "numpy": "2.4.6"},
        "head": {"commit": "h", "cpus": "2", "numpy": "2.4.6"}}
    runs = rec["workloads"]["evaluate_original"]
    assert runs["correct"] == {"base": [True] * 3, "head": [True, False, True]}
    assert runs["failed"] == {"base": [0, 0, 0], "head": [0, 0, 2]}
    steps = runs["metrics"]["env_steps_per_s"]
    assert steps["base"] == [100.0, 110.0, 90.0]
    assert steps["head"] == [120.0, 130.0, 80.0]
    assert steps["summary"] == bench_pairs.summarize(
        steps["base"], steps["head"], "higher")
    assert steps["summary"]["won"] == 2
    assert runs["metrics"]["setup_s"]["summary"]["won"] == 0
    assert json.loads(json.dumps(rec))["workloads"]["evaluate_original"][
        "metrics"]["env_steps_per_s"]["summary"]["ratio"] == \
        pytest.approx(120.0 / 100.0)
