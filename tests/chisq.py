"""Chi-square goodness-of-fit helpers for the sampler tests.

They compare integer samples with an exact pmf, or two samples with each
other, and return scipy's p-value after pooling sparse cells.  Only the
tests use them, so they live here and scipy stays a test-only dependency.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as sps


def _pool_small_cells(observed: np.ndarray, expected: np.ndarray,
                      min_expected: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """Merge cells with tiny expected counts into their neighbour so the
    chi-square approximation stays honest."""
    obs: list[float] = []
    exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
    return np.asarray(obs), np.asarray(exp)


def chi_square_gof(samples: Sequence[int],
                   expected_pmf: Mapping[int, float]) -> float:
    """Goodness-of-fit p-value of integer samples against an exact pmf."""
    counts = Counter(int(x) for x in samples)
    n = len(samples)
    support = sorted(set(expected_pmf) | set(counts))
    observed = np.array([counts.get(x, 0) for x in support], dtype=float)
    expected = np.array([float(expected_pmf.get(x, 0.0)) * n for x in support])
    if np.any((expected == 0) & (observed > 0)):
        return 0.0
    keep = expected > 0
    observed, expected = _pool_small_cells(observed[keep], expected[keep])
    if len(observed) < 2:
        return 1.0
    # keep the expected total aligned with the observed one (pmf may be
    # restricted to a sub-support)
    expected *= observed.sum() / expected.sum()
    stat, p = sps.chisquare(observed, expected)
    return float(p)


def chi_square_two_sample(a: Sequence[int], b: Sequence[int]) -> float:
    """Two-sample chi-square p-value that two integer samples share a law."""
    ca = Counter(int(x) for x in a)
    cb = Counter(int(x) for x in b)
    support = sorted(set(ca) | set(cb))
    table = np.array([[ca.get(x, 0) for x in support],
                      [cb.get(x, 0) for x in support]], dtype=float)
    # pool sparse columns left to right so every pooled column has a few
    # expected counts in each row
    pooled: list[np.ndarray] = []
    acc = np.zeros(2)
    for col in table.T:
        acc = acc + col
        if acc.sum() >= 10:
            pooled.append(acc)
            acc = np.zeros(2)
    if acc.sum() > 0:
        if pooled:
            pooled[-1] = pooled[-1] + acc
        else:
            pooled.append(acc)
    tab = np.array(pooled).T
    if tab.shape[1] < 2:
        return 1.0
    _, p, _, _ = sps.chi2_contingency(tab, correction=False)
    return float(p)
