"""Brute-force plane forests, the reference for the forest laws.

A forest of a plane trees is read as the concatenation of its trees'
preorder degree words.  Its Lukasiewicz path (steps d - 1 from 0) first
reaches -a at its last step, and every word of the degree multiset with
that property is one forest (cycle lemma: a of the n rotations of each
arrangement are such words).  `forest_words` lists them by a plain
recursion, independent of `arbor.enumeration.word_table`, and
`marked_spines` reads every node's root-to-node degrees off a word.
"""

from __future__ import annotations

from arbor.trees import DegreeStatistics


def forest_classes(max_nodes: int) -> list[DegreeStatistics]:
    """Every degree statistics of a forest of a >= 2 trees on at most
    `max_nodes` nodes: the positive degrees partition n - a, and leaves
    fill the rest."""

    def partitions(total, smallest=1):
        if not total:
            yield ()
        for part in range(smallest, total + 1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    classes = []
    for n in range(2, max_nodes + 1):
        for a in range(2, n + 1):
            for parts in partitions(n - a):
                counts = {0: n - len(parts)}
                for c in parts:
                    counts[c] = counts.get(c, 0) + 1
                classes.append(DegreeStatistics(counts))
    return classes


def forest_words(stats: DegreeStatistics) -> list[tuple[int, ...]]:
    """Every preorder degree word of a forest with these statistics: the
    arrangements whose path stays above -a until the last step."""
    a, left = stats.a, dict(stats.counts)
    words, word = [], []

    def grow(x, todo):
        if not todo:
            words.append(tuple(word))
            return
        for c in sorted(left):
            if left[c] and (x + c - 1 > -a or todo == 1):
                left[c] -= 1
                word.append(c)
                grow(x + c - 1, todo - 1)
                word.pop()
                left[c] += 1

    grow(0, stats.n)
    return words


def marked_spines(word) -> list[tuple[int, ...]]:
    """For every node of a forest word, in word order, the degrees of its
    ancestors from its tree's root down; the node's depth is their count."""
    spines, path, slots = [], [], []
    for d in word:
        while slots and not slots[-1]:
            slots.pop()
            path.pop()
        if slots:
            slots[-1] -= 1
        spines.append(tuple(path))
        path.append(d)
        slots.append(d)
    return spines
