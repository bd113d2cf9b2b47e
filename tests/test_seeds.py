"""Substream derivation: reproducible, label- and index-separated."""

import hashlib

import numpy as np
import pytest

from conebessel.seeds import substream


def test_substream_is_deterministic():
    a = substream(42, "exp", 3).uniform(size=5)
    b = substream(42, "exp", 3).uniform(size=5)
    assert np.array_equal(a, b)


def test_substreams_differ_across_coordinates():
    base = substream(42, "exp", 0).uniform(size=4)
    assert not np.array_equal(base, substream(43, "exp", 0).uniform(size=4))
    assert not np.array_equal(base, substream(42, "exp2", 0).uniform(size=4))
    assert not np.array_equal(base, substream(42, "exp", 1).uniform(size=4))


def test_label_words_match_sha256():
    # the label enters the spawn key as two SHA-256 words, so a stream can
    # be rebuilt from numpy alone
    digest = hashlib.sha256(b"walk:7").digest()
    w1 = int.from_bytes(digest[0:4], "little")
    w2 = int.from_bytes(digest[4:8], "little")
    want = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(w1, w2, 3)))
    assert np.array_equal(substream(42, "walk:7", 3).uniform(size=8), want.uniform(size=8))


def test_interleaved_labels_keep_their_streams():
    # each label is hashed once and reused: streams of interleaved labels
    # are still the numpy streams of their own spawn keys
    seq = [("walk:7", 0), ("ldp:t=1", 0), ("walk:7", 1), ("ldp:t=-1", 2), ("ldp:t=1", 5),
           ("walk:7", 1)]
    for label, i in seq:
        digest = hashlib.sha256(label.encode()).digest()
        key = (int.from_bytes(digest[0:4], "little"), int.from_bytes(digest[4:8], "little"), i)
        want = np.random.default_rng(np.random.SeedSequence(9, spawn_key=key))
        assert np.array_equal(substream(9, label, i).random(6), want.random(6))


def test_negative_replicate_index_rejected():
    with pytest.raises(ValueError):
        substream(0, "x", -1)


def test_adding_replicates_preserves_earlier_ones():
    first_ten = [float(substream(7, "r", i).uniform()) for i in range(10)]
    again = [float(substream(7, "r", i).uniform()) for i in range(12)][:10]
    assert first_ten == again
