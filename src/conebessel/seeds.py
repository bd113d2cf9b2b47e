"""Deterministic random-stream derivation.

Every stochastic routine in the package takes an explicit generator.  For
multi-replicate experiments the generators come from here: a master seed
plus a text label plus a replicate index give an independent substream,
so results are reproducible bit-for-bit and adding replicates never
perturbs the ones already drawn.

A stream is numpy's PCG64 seeded by SeedSequence(master_seed,
spawn_key=(two label words, index)).  The streams of one label differ only
in the last entropy word, the index, so substreams derives them all in one
pass: the words before it are mixed once (numpy's SeedSequence of the
spawn key without the index), and the index word's rounds of the pool hash
(O'Neill's seed_seq_fe, from PCG, 2014) and the eight output words run as
a few numpy uint32 operations over all indices.  The PCG64 states are
numpy's bit for bit.  A generator's bit_generator.seed_seq holds only
those state words, so it is not a SeedSequence and cannot spawn.

STREAM_VERSION numbers the way the package consumes these streams.  It
changes whenever a seeded result changes, and every CSV and config echo
records it.  Version 2 draws the ball density exactly (linalg._ball_points)
and draws a walk's randomness when the walk starts.  Version 3 consumes
the streams as version 2 does, but the ldp walks map their pick variates
through the tilted law nu_t (limits.free_energy_empirical).  Version 4
consumes the streams as version 3 does; only the bessel CSVs' series_tail
column changes, as the package computes the certified Poisson tail itself
(bessel._poisson_tail), raised to cover its rounding.  Version 5 consumes
the streams as version 4 does; only the Monte Carlo standard errors (the
bessel mc_stderr and dunkl b_stderr columns) change, as their variance is
taken from deviations from a shift near the mean (bessel._mc_mean_se).
Version 6 consumes the streams as version 5 does; only the rounding of
the dunkl b_value, b_stderr and gap columns moves, as the Haar frames are
orthonormalized by Gram-Schmidt run twice instead of QR
(linalg._haar_batch) and the chamber integrand is built entry by entry
(dunkl._integrand_eigs).
"""

from __future__ import annotations

import functools
import hashlib
import operator

import numpy as np

STREAM_VERSION = 6

# SeedSequence's hash constants (numpy.random.bit_generator)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# generate_state(4, uint64) hashes the pool words 0,1,2,3,0,1,2,3 in turn
# into eight 32-bit words, one row each of an (8, indices) array.  Row j
# reads pool word _OUT_SRC[j], into which the index word was hashed with
# the hash constant times _A_XOR[j] before, and _A_MUL[j] after, its step.
_OUT_SRC = np.array(list(range(_POOL)) * 2)[:, None]
_A_XOR = np.array([pow(_MULT_A, i, 1 << 32) for i in range(_POOL)] * 2,
                  dtype=np.uint32)[:, None]
_A_MUL = _A_XOR * _MULT_A
_OUT_XOR = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) & _M32 for j in range(2 * _POOL)],
                    dtype=np.uint32)[:, None]
_OUT_MUL = _OUT_XOR * _MULT_B


def _nonnegative_ints(values, name: str) -> list:
    """The values as nonnegative Python ints, or ValueError.  Python and
    numpy integers are integers; floats are not."""
    try:
        values = [operator.index(v) for v in values]
    except TypeError as exc:
        raise ValueError(f"{name} must be an integer ({exc})") from None
    if values and min(values) < 0:
        raise ValueError(f"{name} must be nonnegative, got {min(values)}")
    return values


@functools.lru_cache
def _label_words(label: str) -> tuple:
    """The first two little-endian 32-bit words of the label's SHA-256
    digest, hashed once for all of a label's replicates (the recent labels
    are kept)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[0:4], "little"), int.from_bytes(digest[4:8], "little")


class _FixedState(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one derived stream: the four uint64 words that
    SeedSequence.generate_state(4, np.uint64) gives, and nothing else."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("a derived stream's seed gives 4 uint64 words only")
        return self.words


def substreams(master_seed: int, label: str, indices) -> list:
    """[substream(master_seed, label, i) for i in indices], bit for bit,
    derived in one pass.

    The master seed and each index must be nonnegative integers (Python
    or numpy), and each index below 2^32; anything else raises
    ValueError.
    """
    (master_seed,) = _nonnegative_ints((master_seed,), "master seed")
    indices = _nonnegative_ints(indices, "replicate index")
    if not indices:
        return []
    if max(indices) >> 32:
        raise ValueError(f"replicate index must be below 2^32, got {max(indices)}")
    idx = np.array(indices, dtype=np.uint32)
    # mix_entropy hashes the entropy words in order and the index word is
    # the last, so the pool before it is the pool of the key without it.
    # The seed's words, padded to the pool size, and the two label words
    # took 4 + 12 + 4 (n_words - 4) = 4 n_words hashmix steps.
    prefix = np.random.SeedSequence(master_seed, spawn_key=_label_words(label))
    n_words = max(-(-master_seed.bit_length() // 32), _POOL) + 2
    hc = _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _M32
    h = (idx ^ hc * _A_XOR) * (hc * _A_MUL)
    h ^= h >> 16
    out = _MIX_L * prefix.pool[_OUT_SRC] - _MIX_R * h
    out ^= out >> 16
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> 16
    # pairs of 32-bit words, little-endian, are the four uint64 state words
    words = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_FixedState(w))) for w in words]


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (master seed, label, replicate index).

    The label enters the seed sequence's spawn key as the first two
    little-endian 32-bit words of its SHA-256 digest.  The generator is
    np.random.default_rng(np.random.SeedSequence(master_seed,
    spawn_key=(*label words, index))) bit for bit, derived by substreams;
    its seed_seq is not a SeedSequence and cannot spawn.  A non-integral
    or negative seed or index, or an index of 2^32 or more, raises
    ValueError.
    """
    return substreams(master_seed, label, (index,))[0]
