"""Substream derivation: reproducible, label- and index-separated."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebessel.seeds import _label_words, substream, substreams


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


def _numpy_state(master_seed, label, index):
    seq = np.random.SeedSequence(master_seed, spawn_key=(*_label_words(label), index))
    return np.random.PCG64(seq).state


def _assert_exact(master_seed, label, indices):
    rngs = substreams(master_seed, label, indices)
    assert len(rngs) == len(indices)
    for rng, index in zip(rngs, indices):
        assert rng.bit_generator.state == _numpy_state(master_seed, label, index)


# a seed above 2^128 has more run-entropy words than the pool
_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**130 - 1)


@pytest.mark.parametrize("master_seed", _SEEDS)
def test_substreams_equal_numpy_seed_sequences(master_seed):
    _assert_exact(master_seed, "ldp:mu=8:n=3:t=1", [5, 0, 2**32 - 1, 5, 1, 0])


@pytest.mark.parametrize("master_seed", _SEEDS)
def test_substream_is_the_one_index_case(master_seed):
    for index in (0, 7, 2**32 - 1):
        got = substream(master_seed, "walk", index).bit_generator.state
        assert got == _numpy_state(master_seed, "walk", index)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    master_seed=st.integers(0, 2**130),
    label=st.text(max_size=12),
    indices=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1),
                               st.sampled_from((0, 2**32 - 1))), max_size=8),
)
def test_substreams_equal_numpy_seed_sequences_property(master_seed, label, indices):
    _assert_exact(master_seed, label, indices)


def test_substreams_of_no_indices_is_empty():
    assert substreams(3, "x", []) == []
    assert substreams(3, "x", range(0)) == []


def test_substreams_accept_numpy_integers():
    rngs = substreams(np.uint64(2**64 - 1), "x", np.arange(3, dtype=np.int64))
    for rng, index in zip(rngs, range(3)):
        assert rng.bit_generator.state == _numpy_state(2**64 - 1, "x", index)
    assert substream(np.int32(4), "x", np.uint8(2)).random() == substream(4, "x", 2).random()


@pytest.mark.parametrize("master_seed, index", [
    (0, 1.5), (2.9, 0), (0, 1.0), (2.0, 0), (np.float64(3.0), 0), (0, np.float32(2.0)),
    (0, "1"), ("7", 0), (0, None),
    (-1, 0), (np.int64(-2), 0), (0, np.int64(-1)),
    (0, 2**32), (0, 2**64),
])
def test_bad_seeds_and_indices_are_refused(master_seed, index):
    with pytest.raises(ValueError):
        substream(master_seed, "x", index)
    with pytest.raises(ValueError):
        substreams(master_seed, "x", [0, index])


def test_derived_streams_cannot_spawn():
    # the streams are numpy's, but seed_seq holds only their state words
    rng = substream(5, "x", 1)
    assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
    with pytest.raises(TypeError):
        rng.spawn(1)
