"""Rank statistics for comparing agent variants.

Mann-Whitney U is computed from midrank sums, and its p-value is two-sided.
For small tie-free samples (min size <= 8) the p-value comes from exact
enumeration of the U null distribution; otherwise from the normal
approximation with tie-corrected variance and a continuity correction.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_MAX_MIN_N = 8


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _exact_u_counts(n1: int, n2: int) -> list[int]:
    """counts[u] = number of arrangements of n1 + n2 distinct values giving
    U = u for the first sample: the coefficients of the Gaussian binomial
    prod_{i=1..n1} (1 - q^(n2+i)) / (1 - q^i). Every factor is applied to
    the series cut after q^(n1*n2), which is exact as the product is a
    polynomial of that degree."""
    counts = [1] + [0] * (n1 * n2)
    for i in range(1, n1 + 1):
        for u in range(n1 * n2, n2 + i - 1, -1):  # times (1 - q^(n2+i))
            counts[u] -= counts[u - n2 - i]
        for u in range(i, n1 * n2 + 1):  # divided by (1 - q^i)
            counts[u] += counts[u - i]
    return counts


def _exact_p(u: float, n1: int, n2: int) -> float:
    counts = _exact_u_counts(n1, n2)
    total = sum(counts)
    le = sum(counts[:int(math.floor(u)) + 1])
    ge = sum(counts[int(math.ceil(u)):])
    return min(1.0, 2.0 * min(le, ge) / total)


def _approx_p(u: float, n1: int, n2: int, tie_term: float) -> float:
    n = n1 + n2
    mean_u = n1 * n2 / 2.0
    var_u = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    sd = math.sqrt(var_u)
    z = max(0.0, abs(u - mean_u) - 0.5) / sd
    return min(1.0, 2.0 * _normal_sf(z))


def mann_whitney_u(x, y) -> tuple[float, float]:
    """U statistic of the first sample and its two-sided p-value.

    Identical constant samples give p = 1.
    """
    xs = np.asarray(list(x), dtype=float)
    ys = np.asarray(list(y), dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    n1, n2 = int(xs.size), int(ys.size)
    pooled = np.concatenate([xs, ys])
    _, inverse, tie_counts = np.unique(pooled, return_inverse=True,
                                       return_counts=True)
    # midranks: a run of tied values shares the mean of its rank span
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[inverse]
    u = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)

    has_ties = bool(np.any(tie_counts > 1))
    if len(tie_counts) == 1:  # every value identical in both samples
        return u, 1.0
    if not has_ties and min(n1, n2) <= EXACT_MAX_MIN_N:
        return u, _exact_p(u, n1, n2)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts))
    return u, _approx_p(u, n1, n2, tie_term)
