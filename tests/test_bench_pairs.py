import importlib.util
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
