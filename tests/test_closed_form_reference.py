"""The bounds and counts against their frozen forms in `bounds_reference`.

Each family of bounds is stated once in `arbor.bounds`, and the forest and
spine-class counts are read off the marked-tree count.  Every value and
every exception (type and message) must match the frozen forms on a grid:
every class of up to 9 nodes and the binary and heavy censuses from
n = 127 to 65,535; beta across 1e-3..1e12 with -1, 0, NaN, +-inf and the
neighbours of BETA_FLOOR; ell from 0 to n + 1 plus fractions whose squares
are exact; pair-survival times at and beside (n-1)/dmax and 2(n-1)/dmax.
The one allowed difference is the repeat bound at beta = BETA_FLOOR, which
is now the vacuous 1 like the height bound.
"""

import itertools
import math

import numpy as np
import pytest

import bounds_reference as ref
from arbor import bounds
from arbor.bounds import BETA_FLOOR, BoundInput
from arbor.enumeration import (count_forests, count_spine_class,
                               enumerate_degree_statistics)
from arbor.harness import full_binary_statistics, heavy_tailed_statistics
from arbor.trees import DegreeStatistics

CENSUS_SIZES = (127, 1023, 4095, 16383, 65535)
SPECIAL = (-math.inf, -1.0, -0.0, 0.0, math.nan, math.inf)
BETAS = SPECIAL + (
    math.nextafter(BETA_FLOOR, 0.0), BETA_FLOOR,
    math.nextafter(BETA_FLOOR, math.inf), 1.0, 70.0, 71.0, 80.0, 125.0,
    216.0, 343.0, 1e300) + tuple(np.geomspace(1e-3, 1e12, 190).tolist())


def _outcome(fn, *args):
    """repr of the value (bit-exact for floats, NaN and -0.0 included), or
    the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def _classes():
    small = list(enumerate_degree_statistics(9))
    census = [make(n) for n in CENSUS_SIZES
              for make in (full_binary_statistics, heavy_tailed_statistics)]
    return small + census


def _ells(n):
    # quarters keep the squares exact, where a product and a power agree
    return itertools.chain(range(n + 2), SPECIAL,
                           (0.25, 0.5, 0.75, 1.25, 1.5, 2.5, n / 2 + 0.25))


def test_two_term_bounds_match_the_frozen_forms():
    checked = 0
    for stats in _classes():
        inp = BoundInput.from_stats(stats)
        for beta in BETAS:
            assert _outcome(bounds.height_tail_bound, inp, beta) \
                == _outcome(ref.height_tail_bound, inp, beta), (stats, beta)
            new = _outcome(bounds.repeat_time_tail_bound, inp, beta)
            if beta == BETA_FLOOR and inp.v != 0:
                assert new == repr(1.0)
            else:
                assert new == _outcome(ref.repeat_time_tail_bound, inp, beta), \
                    (stats, beta)
            checked += 2
    assert checked > 30_000


def test_sub_gaussian_bounds_match_the_frozen_forms():
    checked = 0
    for stats in _classes():
        inp = BoundInput.from_stats(stats)
        for ell in _ells(stats.n):
            for name in ("height_tail_bound_no_ones",
                         "stopping_tail_bound_no_ones"):
                assert _outcome(getattr(bounds, name), inp, ell) \
                    == _outcome(getattr(ref, name), inp, ell), (stats, ell)
                checked += 1
    assert checked > 300_000


def _degree_lists():
    lists = [[], [0], [3], [1, 0], [2, 0, 0], [9, 0, 0, 0, 0, 0, 0, 0, 0, 0]]
    for stats in list(enumerate_degree_statistics(9)) + [
            full_binary_statistics(127), heavy_tailed_statistics(127),
            heavy_tailed_statistics(1023)]:
        lists.append([c for c, k in stats.sorted_items() for _ in range(k)])
    return lists


def _times(degrees):
    times = list(SPECIAL) + [0.5, 1.0, 3.0]
    big = [d for d in degrees if d >= 2]
    if len(degrees) >= 2 and big:
        for edge in ((len(degrees) - 1) / max(big),
                     2 * (len(degrees) - 1) / max(big)):
            times += [edge / 2, math.nextafter(edge, 0.0), edge,
                      math.nextafter(edge, math.inf)]
    return times


def test_pair_survival_matches_the_frozen_forms():
    checked = 0
    for degrees in _degree_lists():
        for t in _times(degrees):
            for name in ("pair_survival", "pair_survival_log_series",
                         "pair_survival_upper", "pair_survival_log_band"):
                assert _outcome(getattr(bounds, name), t, degrees) \
                    == _outcome(getattr(ref, name), t, degrees), \
                    (name, t, degrees)
                checked += 1
    assert checked > 4_000


def _prefixes(stats, longest):
    degrees = sorted(stats.counts)
    return itertools.chain.from_iterable(
        itertools.product(degrees, repeat=k) for k in range(longest + 1))


FORESTS = ({0: 2}, {0: 3, 2: 1}, {0: 5, 1: 2, 2: 2}, {0: 4, 3: 1},
           {0: 7, 1: 1, 2: 1, 3: 1})


def test_counts_match_the_frozen_forms_on_small_classes():
    checked = 0
    for stats in list(enumerate_degree_statistics(9)) + [
            DegreeStatistics(c) for c in FORESTS]:
        assert _outcome(count_forests, stats) \
            == _outcome(ref.count_forests, stats), stats
        for prefix in _prefixes(stats, 4):
            assert _outcome(count_spine_class, stats, prefix) \
                == _outcome(ref.count_spine_class, stats, prefix), \
                (stats, prefix)
            checked += 1
    assert checked > 8_000


@pytest.mark.parametrize("n", [127, 1023])
@pytest.mark.parametrize("make", [full_binary_statistics,
                                  heavy_tailed_statistics])
def test_counts_match_the_frozen_forms_on_censuses(make, n):
    stats = make(n)
    assert count_forests(stats) == ref.count_forests(stats)
    top = max(stats.counts)
    prefixes = list(_prefixes(stats, 2)) + [
        (2,) * 10, (top,) * (stats.count(top) + 1),
        tuple(sorted(stats.counts, reverse=True)), (1,), (2, 0, 2)]
    for prefix in prefixes:
        assert _outcome(count_spine_class, stats, prefix) \
            == _outcome(ref.count_spine_class, stats, prefix), prefix
