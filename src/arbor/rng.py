"""Deterministic random-number streams.

Every sampler in this package takes an RngStream.  A stream is identified by
(seed, stream index): the same pair always reproduces the same draws, and
distinct stream indices give statistically independent generators.  No
stream is derived from another: each draw site, a battery cell or
`arbor sample`, draws its replications as one batch from its own stream.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A PCG64 generator keyed by (seed, stream): the stream index is the
    numpy SeedSequence spawn key `(stream,)`."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
