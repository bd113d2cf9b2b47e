"""Deterministic random-stream derivation.

Every stochastic routine in the package takes an explicit generator.  For
multi-replicate experiments the generators come from here: a master seed
plus a text label plus a replicate index give an independent substream,
so results are reproducible bit-for-bit and adding replicates never
perturbs the ones already drawn.

STREAM_VERSION numbers the way the package consumes these streams.  It
changes whenever a seeded result changes, and every CSV and config echo
records it.  Version 2 draws the ball density exactly (linalg._ball_points)
and draws a walk's randomness when the walk starts.  Version 3 consumes
the streams as version 2 does, but the ldp walks map their pick variates
through the tilted law nu_t (limits.free_energy_empirical).  Version 4
consumes the streams as version 3 does; only the bessel CSVs' series_tail
column changes, as the package computes the certified Poisson tail itself
(bessel._poisson_tail), raised to cover its rounding.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

STREAM_VERSION = 4


@functools.lru_cache
def _label_words(label: str) -> tuple:
    """The first two little-endian 32-bit words of the label's SHA-256
    digest, hashed once for all of a label's replicates (the recent labels
    are kept)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[0:4], "little"), int.from_bytes(digest[4:8], "little")


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (master seed, label, replicate index).

    The label enters the seed sequence's spawn key as the first two
    little-endian 32-bit words of its SHA-256 digest.  The generator is
    np.random.default_rng of that seed sequence.
    """
    if index < 0:
        raise ValueError(f"replicate index must be nonnegative, got {index}")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(*_label_words(label), int(index)))
    return np.random.Generator(np.random.PCG64(seq))
