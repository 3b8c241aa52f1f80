import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalevo.stats import mann_whitney_u


def brute_force_exact(x, y):
    """Oracle: enumerate every way the pooled tie-free sample could be split
    between x and y and count U statistics directly."""
    pooled = sorted(x) + sorted(y)
    n1, n2 = len(x), len(y)
    values = sorted(pooled)
    assert len(set(values)) == len(values), "oracle requires tie-free data"

    def u_of(x_vals, y_vals):
        return sum(1 for a in x_vals for b in y_vals if a > b)

    u_obs = u_of(x, y)
    us = [u_of(combo, [v for v in values if v not in combo])
          for combo in itertools.combinations(values, n1)]
    total = len(us)
    le = sum(1 for u in us if u <= u_obs)
    ge = sum(1 for u in us if u >= u_obs)
    return u_obs, min(1.0, 2.0 * min(le, ge) / total)


def test_separated_samples_exact_example():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1)  # 2/20 arrangements as extreme


def test_identical_multisets_give_center_u_and_p_one():
    x = [1.0, 2.0, 3.0, 7.0]
    u, p = mann_whitney_u(x, list(x))
    assert u == len(x) * len(x) / 2.0
    assert p == 1.0


def test_all_values_identical_gives_p_one():
    u, p = mann_whitney_u([5.0, 5.0, 5.0], [5.0, 5.0])
    assert p == 1.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=10, unique=True),
       st.data())
def test_swap_antisymmetry(xs, data):
    ys = data.draw(st.lists(st.integers(1001, 2000), min_size=1, max_size=10,
                            unique=True))
    ux, px = mann_whitney_u(xs, ys)
    uy, py = mann_whitney_u(ys, xs)
    assert ux + uy == pytest.approx(len(xs) * len(ys))
    assert px == pytest.approx(py)


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(1, 7)
                                   for n2 in range(1, 7)])
def test_exact_p_matches_full_enumeration(n1, n2):
    rng = np.random.default_rng(n1 * 100 + n2)
    for trial in range(3):
        pooled = rng.permutation(rng.choice(1000, size=n1 + n2,
                                            replace=False).astype(float))
        x, y = list(pooled[:n1]), list(pooled[n1:])
        u_impl, p_impl = mann_whitney_u(x, y)
        u_oracle, p_oracle = brute_force_exact(x, y)
        assert u_impl == u_oracle
        assert p_impl == pytest.approx(p_oracle, abs=1e-12)


def test_exact_and_normal_agree_within_005():
    # spec property: approximation error stays small for the sizes where the
    # exact path is live
    from goalevo import stats as stats_mod

    rng = np.random.default_rng(3)
    for trial in range(60):
        n1 = int(rng.integers(3, 9))
        n2 = int(rng.integers(3, 15))
        pooled = rng.choice(100000, size=n1 + n2, replace=False).astype(float)
        x, y = pooled[:n1], pooled[n1:]
        u, p_exact = mann_whitney_u(x, y)
        p_norm = stats_mod._approx_p(u, n1, n2, 0.0)
        assert abs(p_exact - p_norm) < 0.05


def test_location_shift_monotonicity():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, size=12)
    y = rng.normal(0, 1, size=12)
    previous = 1.1
    for c in np.linspace(0.0, 3.0, 13):
        u, p = mann_whitney_u(x + c, y)
        # x ranks above y from c = 0 (U = 84 of 144), so shifting it further
        # moves U away from the centre and the two-sided p can only fall
        assert u >= len(x) * len(y) / 2
        assert p <= previous + 1e-12
        previous = p


def test_large_samples_use_normal_approximation():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, size=20)
    y = rng.normal(1.5, 1.0, size=20)
    u, p = mann_whitney_u(x, y)
    assert 0.0 <= p < 0.01
    # sanity against a known-good implementation
    from scipy import stats as sps

    ref = sps.mannwhitneyu(x, y, alternative="two-sided")
    assert u == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, rel=0.05)


def test_tie_corrected_variance_against_scipy():
    from scipy import stats as sps

    x = [1, 2, 2, 3, 4, 4, 4, 10, 12, 12]
    y = [2, 3, 3, 4, 5, 6, 6, 7, 12, 15]
    u, p = mann_whitney_u(x, y)
    ref = sps.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
    assert u == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, rel=1e-6)


# -- report rows ----------------------------------------------------------------


def test_mann_whitney_u_requires_values():
    for x, y in [((), (1.0,)), ((1.0,), ()), ((), ())]:
        with pytest.raises(ValueError):
            mann_whitney_u(x, y)


def test_comparison_row_figures():
    """The figures one comparisons.csv row reports for two samples."""
    a, b = (1.0, 2.0, 3.0), (4.0, 5.0, 6.0)
    assert float(np.mean(a)) == 2.0 and float(np.mean(b)) == 5.0
    u, p = mann_whitney_u(a, b)
    assert u == 0.0 and p == pytest.approx(0.1)
