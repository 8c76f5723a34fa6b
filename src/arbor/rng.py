"""Deterministic random-number streams.

Every sampler in this package takes an RngStream.  A stream is identified by
(seed, stream index): the same pair always reproduces the same draws, and
distinct stream indices give statistically independent generators, so
replications can run in any order without interfering.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A PCG64 generator keyed by (seed, stream).

    The stream index is folded into the numpy SeedSequence spawn key, which is
    the documented way to derive independent substreams from one seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """A further stream derived from the same seed.

        substream(i) of stream s is stream s * 1,000,003 + i + 1, so pairs
        can collide: RngStream(seed, 0).substream(0) is RngStream(seed, 1).
        Collision-free spawn keys (stream, index) would move every
        substream draw, so they are left to a change that moves them anyway.
        """
        return RngStream(self.seed, self.stream * 1_000_003 + index + 1)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
