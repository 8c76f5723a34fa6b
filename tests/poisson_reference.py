"""The Poisson interval construction simulated arrival by arrival.

`arbor.samplers.sample_stopping_index_poissonized_batch` draws sigma from
the stopping walk and tau as a sum of geometric stage lengths.  This module
keeps the construction those shortcuts are derived from, with nothing
derived: each degree d is an interval of length d / (n - 1) on [0, 1), its
left part the first (d - 1) / (n - 1), and uniform arrivals hit them until
one lands in the left part of an interval already hit.  The sampler tests
and the acceptance gate compare the batch and the walk with it in law.
"""

from __future__ import annotations

import numpy as np


def interval_poissonized_batch(stats, rng, reps):
    """(sigma, tau) for `reps` rows of the interval construction: sigma is
    one more than the intervals hit before the first repeat, tau the number
    of arrivals up to it (np.inf, with sigma = n, for path statistics).

    Each step draws one uniform per live row, finds its interval by
    `searchsorted` over the bounds and scans the row's hit table."""
    degrees = sorted(c for c, k in stats.sorted_items() for _ in range(k))
    d = np.array(degrees, dtype=np.int64)
    n = len(d)
    cums = np.concatenate([[0], np.cumsum(d)])
    bounds = cums / (n - 1)
    left_end = (cums[:-1] + np.maximum(d - 1, 0)) / (n - 1)
    gen = rng.gen
    tau = np.full(reps, np.inf)
    if stats.max_degree <= 1:
        return np.full(reps, n, dtype=np.int64), tau
    sigma = np.zeros(reps, dtype=np.int64)
    hits = np.zeros((reps, 16), dtype=np.int32)
    nrec = np.zeros(reps, dtype=np.int64)
    live = np.arange(reps)
    for step in range(1, 1_000_001):
        if live.size == 0:
            return sigma, tau
        u = gen.uniform(size=live.size)
        j = np.searchsorted(bounds, u, side="right").astype(np.int32)
        width = int(nrec.max())
        was_hit = (hits[:, :width] == j[:, None]).any(axis=1)
        fires = was_hit & (u < left_end[j - 1])
        sigma[live[fires]] = nrec[fires] + 1
        tau[live[fires]] = step
        if width == hits.shape[1]:
            hits = np.concatenate([hits, np.zeros_like(hits)], axis=1)
        new = np.flatnonzero(~was_hit)
        hits[new, nrec[new]] = j[new]
        nrec[new] += 1
        if fires.any():
            keep = ~fires
            live, hits, nrec = live[keep], hits[keep], nrec[keep]
    raise RuntimeError("poisson walk failed to terminate")
