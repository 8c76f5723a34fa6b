"""The conditioned and simply generated tree samplers as they were when
each draw returned a PlaneTree, kept verbatim as the reference for the
samplers that return degree words.

Only the tree-building steps, the sum table with its row for n, and the
list path of `OffspringDistribution.from_masses` (with the two weight laws
that called it) are frozen here.  The helpers whose code did not move
(`_truncated_masses`, `_reachable_sum`, `block_sizes` and the series
machinery of `arbor.weights`) are imported from the package.  The route of
a conditioned draw, rejection or halving, is named by the caller, not picked
by a rule, so a check of the package's route rule against these samplers
means something.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from arbor.enumeration import ENUMERATION_CAP
from arbor.errors import (AttemptsExhausted, Diverged, InvalidDistribution,
                          InvalidStatistics, OutOfDomain, PhiDiverges,
                          TooLarge, ZeroPartition)
from arbor.samplers import (OffspringDistribution, _reachable_sum,
                            _truncated_masses, block_sizes)
from arbor.trees import DegreeStatistics, _is_integer, build_tree
from arbor.weights import (_SERIES_CAP, _class_weights, _scalar_blocks, phi,
                           solve_critical_tilt)


def from_masses(masses, label="explicit", renormalize=False):
    """`OffspringDistribution.from_masses` with its Python-list checks."""
    if isinstance(masses, dict):
        for k in masses:
            if not _is_integer(k) or k < 0:
                raise InvalidDistribution(
                    f"offspring degree {k!r} is not an integer >= 0")
        vec = [0.0] * (max(masses, default=-1) + 1)
        for k, v in masses.items():
            vec[k] = v
    else:
        vec = list(masses)
    if any(isinstance(v, (bool, np.bool_)) for v in vec):
        raise InvalidDistribution("offspring masses must be numbers, not bools")
    vec = [float(v) for v in vec]
    if not all(0 <= v < math.inf for v in vec):
        raise InvalidDistribution("offspring masses must be finite, >= 0")
    total = sum(vec)
    if renormalize:
        if total <= 0:
            raise InvalidDistribution("offspring masses sum to zero")
        vec = [v / total for v in vec]
    elif abs(total - 1.0) > 1e-12:
        raise InvalidDistribution(f"offspring masses sum to {total!r}")
    if not vec or vec[0] <= 0:
        raise InvalidDistribution("offspring law needs positive mass at zero")
    return OffspringDistribution("explicit", (), tuple(vec), label)


def limit_degree_law(w):
    rho, _ = w.resolve_rho()
    if rho == 0:
        return from_masses([1.0], label="limit_law(rho=0)")
    if math.isinf(rho):
        raise PhiDiverges("Phi(rho) is infinite for finite-support weights")
    try:
        total = float(phi(w, rho))
    except Diverged as exc:
        raise PhiDiverges(f"Phi diverges at rho={rho}") from exc
    masses = []
    partial = 0.0
    for ks, wks, pks, error in _scalar_blocks(w.weight, rho, _SERIES_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            block = wks * pks / total
            partials = np.add.accumulate(np.concatenate(([partial], block)))[1:]
        done = np.flatnonzero((ks >= 8) & (1.0 - partials < 1e-12))
        if done.size:
            masses.extend(block[:done[0] + 1].tolist())
            break
        if error is not None:
            raise error
        masses.extend(block.tolist())
        partial = float(partials[-1])
    return from_masses(masses, label="limit_law", renormalize=True)


def tilted_law(w, t, top):
    if t <= 0:
        raise OutOfDomain("tilt must be positive")
    masses = np.zeros(top + 1)
    end = top + 1 if w.explicit is None else min(top + 1, len(w.explicit))
    for ks, wks, pks, error in _scalar_blocks(w.weight, float(t), end):
        if error is not None:
            raise error
        with np.errstate(over="ignore", invalid="ignore"):
            masses[ks] = wks * pks
    if not np.isfinite(masses).all():
        raise Diverged("tilted masses overflow; use a smaller tilt")
    return from_masses(masses.tolist(), label=f"tilt({t})", renormalize=True)


def _rotation(d):
    j = int(np.argmin(np.cumsum(d - 1)))
    return np.concatenate([d[j + 1:], d[:j + 1]])


def sample_uniform_tree(stats, rng):
    if stats.a != 1:
        raise InvalidStatistics("uniform tree sampling needs a = 1")
    degrees, counts = zip(*stats.sorted_items())
    perm = rng.gen.permutation(np.repeat(np.array(degrees, dtype=np.int64),
                                         counts))
    return build_tree(_rotation(perm))


def sample_conditioned_bienayme(mu, n, rng, max_attempts=10_000_000):
    q = _truncated_masses(mu, n)
    if n > 1 and q[1] == 0 and not _reachable_sum(
            (np.flatnonzero(q[1:]) + 1).tolist(), n - 1):
        raise ZeroPartition(
            f"sum {n - 1} is unreachable with this offspring law")
    gen = rng.gen
    cols = np.append(np.flatnonzero(q[:-1]), n - 1)
    attempts = 0
    rows = 16
    while attempts < max_attempts:
        take = min(rows, max_attempts - attempts)
        counts = gen.multinomial(n, q[cols], size=take)
        hits = np.flatnonzero(counts @ cols == n - 1)
        if hits.size:
            return sample_uniform_tree(DegreeStatistics(
                dict(zip(cols.tolist(), counts[hits[0]].tolist()))), rng)
        attempts += take
        rows = min(2 * rows, max(16, 65_536 // n))
    raise AttemptsExhausted(
        f"no degree sequence summed to {n - 1} in {max_attempts} attempts"
    )


def conditional_sum_table(mu, n):
    """The table with its row for n itself."""
    first = _truncated_masses(mu, n)
    sizes = block_sizes(n)
    table = np.zeros((len(sizes), n))
    table[0] = first  # sizes[0] == 1
    for i, m in enumerate(sizes[1:], 1):
        row = np.convolve(table[sizes.index(m // 2)],
                          table[sizes.index(m - m // 2)])[:n]
        np.clip(row, 0.0, None, out=row)
        table[i] = row / row.sum()
    return table


def sample_conditioned_bienayme_sequential(mu, n, rng, table=None):
    if n < 1:
        raise ValueError("need at least one node")
    if table is None:
        table = conditional_sum_table(mu, n)
    sizes = block_sizes(n)
    row_of = np.zeros(n + 1, dtype=np.int64)
    row_of[sizes] = np.arange(len(sizes))
    flat = table.ravel()
    gen = rng.gen
    m = np.array([n])
    t = np.array([n - 1])
    degrees = []
    while True:
        leaf = m == 1
        degrees.append(t[leaf])
        m, t = m[~leaf], t[~leaf]
        if not m.size:
            break
        m1 = m // 2
        m2 = m - m1
        lens = t + 1
        starts = np.cumsum(lens) - lens
        at = np.arange(lens.sum())
        w = (flat[(row_of[m1] * n - starts).repeat(lens) + at]
             * flat[(row_of[m2] * n + t + starts).repeat(lens) - at])
        total = np.add.reduceat(w, starts)
        if not total.all():
            raise ZeroPartition(
                f"sum {n - 1} is unreachable with this offspring law")
        cdf = np.cumsum(w / total.repeat(lens))
        end = cdf[starts + lens - 1]
        begin = np.concatenate([[0.0], end[:-1]])
        u = begin + gen.random(m.size) * (end - begin)
        a = np.minimum(np.searchsorted(cdf, u, side="right") - starts, t)
        m = np.concatenate([m1, m2])
        t = np.concatenate([a, t - a])
    return build_tree(_rotation(np.concatenate(degrees)))


def conditioned_sampler(mu, n, route):
    if route == "rejection":
        return functools.partial(sample_conditioned_bienayme, mu, n)
    assert route == "halving", route
    return functools.partial(sample_conditioned_bienayme_sequential, mu, n,
                             table=conditional_sum_table(mu, n))


def _sample_class(table, total, rng):
    u = rng.gen.uniform() * total
    acc = 0.0
    for stats, wt in table.items():
        acc += float(wt)
        if u < acc:
            break
    return sample_uniform_tree(stats, rng)


def simply_generated_sampler(w, n, route=None):
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return lambda rng: build_tree((0,))
    end = n if w.explicit is None else min(n, len(w.explicit))
    support = [k for k in range(1, end) if w.weight(k) > 0]
    if not _reachable_sum(support, n - 1):
        raise ZeroPartition(f"Z_{n} = 0 for these weights")
    rho, _ = w.resolve_rho()
    if rho == 0:
        if n > ENUMERATION_CAP:
            raise TooLarge(f"zero-radius sampling is capped at {ENUMERATION_CAP}")
        table = _class_weights(w, n)
        return functools.partial(_sample_class, table, float(sum(table.values())))
    if max(support) == 1:
        return lambda rng: build_tree((1,) * (n - 1) + (0,))
    return conditioned_sampler(tilted_law(w, solve_critical_tilt(w), n - 1), n,
                               route)
