"""Deterministic random-stream derivation.

Every stochastic routine in the package takes an explicit generator.  For
multi-replicate experiments the generators come from here: a master seed
plus a text label plus a replicate index give an independent substream,
so results are reproducible bit-for-bit and adding replicates never
perturbs the ones already drawn.

STREAM_VERSION numbers the way the package consumes these streams.  It
changes whenever a seeded result changes, and every CSV and config echo
records it.  Version 2 draws the ball density exactly (linalg._ball_points)
and draws a walk's randomness when the walk starts.
"""

from __future__ import annotations

import hashlib

import numpy as np

STREAM_VERSION = 2


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (master seed, label, replicate index).

    The label enters the seed sequence's spawn key as the first two
    little-endian 32-bit words of its SHA-256 digest.
    """
    if index < 0:
        raise ValueError(f"replicate index must be nonnegative, got {index}")
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    w1 = int.from_bytes(digest[0:4], "little")
    w2 = int.from_bytes(digest[4:8], "little")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(w1, w2, int(index)))
    return np.random.default_rng(seq)
