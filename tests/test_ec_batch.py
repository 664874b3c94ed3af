"""Differential tests: batched EC encode/decode vs the per-stripe paths.

``encode_batch`` and ``decode_batch`` are ``encode`` and ``decode`` per
object, so their contract is byte-identity with ``encode``/``decode`` —
including degraded decode-from-survivors.  Hypothesis drives random profiles,
object counts, lengths, and erasure patterns through both paths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import ReedSolomon
from repro.errors import DecodeError, ErasureCodingError


@st.composite
def batch_cases(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    nobjects = draw(st.integers(min_value=1, max_value=8))
    lengths = draw(
        st.lists(
            st.integers(min_value=1, max_value=300),
            min_size=nobjects,
            max_size=nobjects,
        )
    )
    return k, m, seed, lengths


def _payloads(seed, lengths):
    rng = random.Random(seed)
    return [rng.randbytes(n) for n in lengths]


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_encode_batch_matches_per_stripe_encode(case):
    k, m, seed, lengths = case
    objects = _payloads(seed, lengths)
    batched = ReedSolomon(k, m).encode_batch(objects)
    loop_codec = ReedSolomon(k, m)
    for data, got in zip(objects, batched):
        assert got == loop_codec.encode(data)


@given(batch_cases())
@settings(max_examples=40, deadline=None)
def test_decode_batch_matches_per_stripe_decode(case):
    """Random erasures (up to m shards each, mixing data and parity
    losses) decode to the same bytes via both paths."""
    k, m, seed, lengths = case
    rng = random.Random(seed ^ 0xEC)
    objects = _payloads(seed, lengths)
    codec = ReedSolomon(k, m)
    shard_sets = []
    for data in objects:
        shards = list(codec.encode(data))
        for lost in rng.sample(range(k + m), rng.randint(0, m)):
            shards[lost] = None
        shard_sets.append(shards)
    batched = codec.decode_batch(shard_sets, lengths)
    loop_codec = ReedSolomon(k, m)
    for shards, n, got, data in zip(shard_sets, lengths, batched, objects):
        assert got == loop_codec.decode(shards, n)
        assert got == data  # and both reproduce the original object


def test_decode_batch_mixed_patterns_share_group_math():
    """Objects with identical erasure patterns share the codec's memoized
    inverse; interleave several patterns so each is looked up again."""
    codec = ReedSolomon(4, 2)
    objects = [bytes([i]) * (40 + i) for i in range(9)]
    lengths = [len(o) for o in objects]
    shard_sets = []
    for i, data in enumerate(objects):
        shards = list(codec.encode(data))
        if i % 3 == 1:
            shards[0] = None  # lose a data shard
        elif i % 3 == 2:
            shards[1] = None
            shards[5] = None  # lose data + parity
        shard_sets.append(shards)
    assert codec.decode_batch(shard_sets, lengths) == objects


def test_decode_batch_too_few_survivors_raises():
    codec = ReedSolomon(3, 2)
    shards = list(codec.encode(b"x" * 30))
    shards[0] = shards[1] = shards[2] = None  # only 2 of 5 survive
    with pytest.raises(DecodeError):
        codec.decode_batch([shards], [30])


def test_decode_batch_rejects_wrong_slot_count():
    codec = ReedSolomon(3, 2)
    with pytest.raises(ErasureCodingError):
        codec.decode_batch([[b"a", b"b", b"c"]], [3])


def test_decode_batch_rejects_mismatched_lengths():
    codec = ReedSolomon(3, 2)
    shards = codec.encode(b"abcdef")
    with pytest.raises(ErasureCodingError):
        codec.decode_batch([shards], [6, 7])


def test_encode_batch_empty_and_varied_sizes():
    codec = ReedSolomon(2, 1)
    objects = [b"", b"a", b"ab", b"abc", b"a" * 1000]
    batched = codec.encode_batch(objects)
    loop_codec = ReedSolomon(2, 1)
    assert batched == [loop_codec.encode(o) for o in objects]


def test_batch_paths_account_bytes_processed():
    """The profiling counter moves for batch calls too (the cost model
    reads it), matching the per-stripe accounting."""
    batch_codec = ReedSolomon(3, 2)
    loop_codec = ReedSolomon(3, 2)
    objects = [b"y" * 90, b"z" * 90]
    batch_codec.encode_batch(objects)
    for o in objects:
        loop_codec.encode(o)
    assert batch_codec.bytes_processed == loop_codec.bytes_processed
