"""Round-trip, erasure-recovery, and matrix tests for Reed-Solomon."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    ReedSolomon,
    cauchy,
    gauss_jordan_invert,
    gf_matmul_rows,
    systematic_cauchy,
    systematic_vandermonde,
)
from repro.errors import DecodeError, ErasureCodingError

from .ec_reference import reference_decode, reference_matmul, reference_shard


def _rows(arr: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in arr]


# --- generator matrices ---------------------------------------------------------


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 2), (6, 3), (8, 4)])
def test_systematic_vandermonde_top_is_identity(k, m):
    g = systematic_vandermonde(k, m)
    assert g.shape == (k + m, k)
    assert np.array_equal(g[:k], np.eye(k, dtype=np.uint8))


@pytest.mark.parametrize("k,m", [(2, 1), (4, 2), (6, 3)])
def test_systematic_cauchy_top_is_identity(k, m):
    g = systematic_cauchy(k, m)
    assert np.array_equal(g[:k], np.eye(k, dtype=np.uint8))


@pytest.mark.parametrize("maker", [systematic_vandermonde, systematic_cauchy])
def test_any_k_rows_invertible(maker):
    k, m = 4, 2
    g = maker(k, m)
    for rows in itertools.combinations(range(k + m), k):
        sub = g[list(rows)]
        inv = gauss_jordan_invert(sub)  # must not raise
        eye = _rows(np.eye(k, dtype=np.uint8))
        assert gf_matmul_rows(inv.tolist(), _rows(sub)) == eye
        assert _rows(reference_matmul(inv, sub)) == eye


def test_gauss_jordan_inverts():
    rng = np.random.default_rng(3)
    mat = systematic_vandermonde(5, 3)[[0, 2, 5, 6, 7]]
    inv = gauss_jordan_invert(mat)
    # inv @ mat over GF should be identity; verify via action on identity.
    eye = _rows(np.eye(5, dtype=np.uint8))
    assert gf_matmul_rows(inv.tolist(), _rows(mat)) == eye
    assert _rows(reference_matmul(inv, mat)) == eye


def test_singular_matrix_raises():
    mat = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(ErasureCodingError):
        gauss_jordan_invert(mat)


def test_invert_non_square_raises():
    with pytest.raises(ErasureCodingError):
        gauss_jordan_invert(np.zeros((2, 3), dtype=np.uint8))


def test_cauchy_bounds():
    with pytest.raises(ErasureCodingError):
        cauchy(200, 100)


# --- codec round trips --------------------------------------------------------------


@pytest.mark.parametrize("technique", ["vandermonde", "cauchy"])
@pytest.mark.parametrize("k,m", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_encode_decode_no_loss(k, m, technique):
    rs = ReedSolomon(k, m, technique)
    data = bytes(range(256)) * 4
    shards = rs.encode(data)
    assert len(shards) == k + m
    assert rs.decode(shards, len(data)) == data


@pytest.mark.parametrize("technique", ["vandermonde", "cauchy"])
def test_recover_from_any_m_erasures(technique):
    k, m = 4, 2
    rs = ReedSolomon(k, m, technique)
    data = b"the quick brown fox jumps over the lazy dog" * 10
    shards = rs.encode(data)
    for lost in itertools.combinations(range(k + m), m):
        damaged = [None if i in lost else s for i, s in enumerate(shards)]
        assert rs.decode(damaged, len(data)) == data, f"failed for erasures {lost}"


def test_too_many_erasures_raises():
    rs = ReedSolomon(4, 2)
    data = b"x" * 100
    shards = rs.encode(data)
    damaged = [None, None, None] + shards[3:]
    with pytest.raises(DecodeError):
        rs.decode(damaged, len(data))


def test_decode_wrong_slot_count():
    rs = ReedSolomon(4, 2)
    with pytest.raises(ErasureCodingError):
        rs.decode([b"x"] * 5, 1)


def test_reconstruct_single_shard():
    rs = ReedSolomon(4, 2)
    data = bytes(np.random.default_rng(1).integers(0, 256, 1000, dtype=np.uint8))
    shards = rs.encode(data)
    for idx in range(6):
        damaged = list(shards)
        damaged[idx] = None
        rebuilt = rs.reconstruct_shard(damaged, idx)
        assert rebuilt == shards[idx], f"shard {idx} mismatch"


def test_reconstruct_present_shard_is_identity():
    rs = ReedSolomon(3, 2)
    shards = rs.encode(b"hello world")
    assert rs.reconstruct_shard(shards, 2) == shards[2]


def test_reconstruct_index_validation():
    rs = ReedSolomon(3, 2)
    shards = rs.encode(b"hello")
    with pytest.raises(ErasureCodingError):
        rs.reconstruct_shard(shards, 9)


def test_reconstruct_too_many_lost():
    rs = ReedSolomon(3, 2)
    shards = rs.encode(b"hello")
    damaged = [None, None, None, shards[3], shards[4]]
    with pytest.raises(DecodeError):
        rs.reconstruct_shard(damaged, 0)


@given(st.binary(min_size=0, max_size=2000), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_random_erasures(data, seed):
    rs = ReedSolomon(4, 2)
    shards = rs.encode(data)
    rng = np.random.default_rng(seed)
    lost = rng.choice(6, size=2, replace=False)
    damaged = [None if i in lost else s for i, s in enumerate(shards)]
    assert rs.decode(damaged, len(data)) == data


@st.composite
def erasure_cases(draw):
    """A codec, objects (lengths 0 and 1 drawn often), and each object's
    full shards plus a copy with up to m of them erased."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    codec = ReedSolomon(k, m, draw(st.sampled_from(["vandermonde", "cauchy"])))
    objects = draw(
        st.lists(st.one_of(st.binary(max_size=1), st.binary(max_size=600)), min_size=1, max_size=6)
    )
    cases = []
    for data in objects:
        shards = codec.encode(data)
        lost = draw(st.sets(st.integers(0, k + m - 1), max_size=m))
        cases.append((data, shards, [None if i in lost else s for i, s in enumerate(shards)]))
    return codec, cases


@given(erasure_cases())
@settings(max_examples=200, deadline=None)
def test_decode_paths_match_the_inverse_reference(case):
    """decode, decode_batch and reconstruct_shard (memoized inverses, the
    byte kernel on the shard bytes) equal an invert-then-multiply NumPy
    decode, and bytes_processed counts 2 * k * shard size per degraded
    decode and nothing for intact decodes or shard rebuilds."""
    codec, cases = case
    k = codec.k
    degraded = sum(
        2 * k * codec.shard_size(len(data))
        for data, _, damaged in cases
        if any(s is None for s in damaged[:k])
    )
    before = codec.bytes_processed
    for data, _, damaged in cases:
        assert reference_decode(codec, damaged, len(data)) == data
        assert codec.decode(damaged, len(data)) == data
    assert codec.bytes_processed - before == degraded
    before = codec.bytes_processed
    damaged_sets = [damaged for _, _, damaged in cases]
    lengths = [len(data) for data, _, _ in cases]
    assert codec.decode_batch(damaged_sets, lengths) == [data for data, _, _ in cases]
    assert codec.bytes_processed - before == degraded
    before = codec.bytes_processed
    for _, shards, damaged in cases:
        for index, shard in enumerate(shards):
            rebuilt = codec.reconstruct_shard(damaged, index)
            assert rebuilt == shard
            if damaged[index] is None:
                assert rebuilt == reference_shard(codec, damaged, index)
    assert codec.bytes_processed == before


def test_empty_object():
    rs = ReedSolomon(4, 2)
    shards = rs.encode(b"")
    assert rs.decode(shards, 0) == b""


def test_shard_sizes_uniform():
    rs = ReedSolomon(4, 2)
    shards = rs.encode(b"z" * 13)  # 13 bytes -> 4-byte shards padded
    assert all(len(s) == 4 for s in shards)


def test_profile_validation():
    with pytest.raises(ErasureCodingError):
        ReedSolomon(0, 2)
    with pytest.raises(ErasureCodingError):
        ReedSolomon(4, -1)
    with pytest.raises(ErasureCodingError):
        ReedSolomon(200, 100)
    with pytest.raises(ErasureCodingError):
        ReedSolomon(4, 2, technique="magic")

