"""Polynomial references for the exact-law tests.

`arbor.enumeration` builds the degree polynomial q of prod_{c>=1}
(1 + c z)^{n(c)} node by node and reads P(tau > k) as certified floats.
This module keeps the routes those replaced, as the references they are
tested against: a schoolbook `poly_mul`, the degree polynomial as a
balanced product of per-class binomial rows, and the exact tails
P(tau > k) as Stirling sums over q.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from arbor.enumeration import _degree_polynomial
from arbor.errors import InvalidStatistics


def poly_mul(a: list, b: list) -> list:
    """Schoolbook product of two coefficient lists, skipping zero terms."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def pairwise_degree_polynomial(stats) -> list[int]:
    """Coefficients of prod_{c>=1} (1 + c z)^{n(c)} as exact integers: a
    balanced product of the binomial rows sum_j C(n(c), j) c^j z^j."""
    rows = []
    for c, k in stats.sorted_items():
        if c == 0:
            continue
        row = [1]
        for j in range(k):
            row.append(row[-1] * (k - j) * c // (j + 1))
        rows.append(row)
    while len(rows) > 1:  # multiplied in pairs, round by round
        rows = [poly_mul(*rows[i:i + 2]) if i + 1 < len(rows) else rows[i]
                for i in range(0, len(rows), 2)]
    return rows[0] if rows else [1]


def repeat_time_survivals(stats) -> Iterator[Fraction]:
    """P(tau > k) for k = 0, 1, 2, ... of the Poisson repeat time tau.

    Each arrival lands in one of n - 1 equal slots, d_i of them node i's;
    tau is the first arrival on one of i's d_i - 1 left slots after any
    arrival on i.  A k-sequence that does not fire splits by node into j
    blocks, each a first hit then right-slot repeats, so P(tau > k) =
    sum_j q_j j! S(k, j) / (n - 1)^k, S the Stirling numbers of the second
    kind.  S grows a row per k, and q_j j! joins the weights as index j
    enters the row."""
    if stats.a != 1 or stats.n < 2:
        raise InvalidStatistics("repeat time needs a single tree, n >= 2")
    q = _degree_polynomial(stats)  # degree #internal
    weight, row, den = [], [1], 1  # row[j] = S(k, j)
    for k in itertools.count():
        if k < len(q):
            weight.append(q[k] * math.factorial(k))
        yield Fraction(sum(w * s for w, s in zip(weight, row)), den)
        row = [0] + [j * s + t for j, s, t in
                     zip(range(1, len(q)), row[1:] + [0], row)]
        den *= stats.n - 1
