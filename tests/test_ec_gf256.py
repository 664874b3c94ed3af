"""Field-axiom and kernel tests for GF(2^8).

The translate-table kernel is checked against the NumPy kernels it
replaced, kept in ``tests/ec_reference.py``; the reference's own per-byte
multiply is checked against the scalar field here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    ReedSolomon,
    gf_add,
    gf_div,
    gf_inv,
    gf_matmul_rows,
    gf_mul,
    gf_pow,
)
from repro.errors import ErasureCodingError

from .ec_reference import gf_mul_add_array, gf_mul_array, reference_matmul

ELEM = st.integers(min_value=0, max_value=255)
NONZERO = st.integers(min_value=1, max_value=255)


@given(ELEM, ELEM)
def test_add_commutative(a, b):
    assert gf_add(a, b) == gf_add(b, a)


@given(ELEM)
def test_add_self_inverse(a):
    assert gf_add(a, a) == 0


@given(ELEM, ELEM)
def test_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(ELEM, ELEM, ELEM)
def test_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(ELEM, ELEM, ELEM)
def test_distributive(a, b, c):
    assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))


@given(ELEM)
def test_mul_identity(a):
    assert gf_mul(a, 1) == a


@given(ELEM)
def test_mul_zero(a):
    assert gf_mul(a, 0) == 0


@given(NONZERO)
def test_inverse_roundtrip(a):
    assert gf_mul(a, gf_inv(a)) == 1


@given(ELEM, NONZERO)
def test_div_is_mul_by_inverse(a, b):
    assert gf_div(a, b) == gf_mul(a, gf_inv(b))


@given(ELEM, NONZERO)
def test_div_roundtrip(a, b):
    assert gf_mul(gf_div(a, b), b) == a


def test_div_by_zero_raises():
    with pytest.raises(ErasureCodingError):
        gf_div(5, 0)
    with pytest.raises(ErasureCodingError):
        gf_inv(0)


@given(NONZERO, st.integers(min_value=0, max_value=20))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = gf_mul(expected, a)
    assert gf_pow(a, n) == expected


def test_pow_zero_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    with pytest.raises(ErasureCodingError):
        gf_pow(0, -1)


@given(NONZERO)
def test_pow_negative_is_inverse_power(a):
    assert gf_pow(a, -1) == gf_inv(a)


def test_generator_has_full_order():
    # 2 generates the multiplicative group: 255 distinct powers.
    seen = {gf_pow(2, i) for i in range(255)}
    assert len(seen) == 255
    assert 0 not in seen


# --- the reference's per-byte kernels -----------------------------------------


@given(ELEM, st.binary(min_size=1, max_size=64))
@settings(max_examples=60)
def test_mul_array_matches_scalar(scalar, data):
    arr = np.frombuffer(data, dtype=np.uint8)
    vec = gf_mul_array(scalar, arr)
    for i, byte in enumerate(arr):
        assert vec[i] == gf_mul(scalar, int(byte))


def test_mul_array_zero_scalar():
    arr = np.arange(16, dtype=np.uint8)
    assert not gf_mul_array(0, arr).any()


def test_mul_array_one_is_copy():
    arr = np.arange(16, dtype=np.uint8)
    out = gf_mul_array(1, arr)
    assert np.array_equal(out, arr)
    out[0] = 99
    assert arr[0] == 0  # copy, not view


def test_mul_add_array_accumulates():
    acc = np.zeros(8, dtype=np.uint8)
    data = np.arange(8, dtype=np.uint8)
    gf_mul_add_array(acc, 3, data)
    gf_mul_add_array(acc, 3, data)
    assert not acc.any()  # adding twice cancels in GF(2^8)


# --- the translate-table kernel ---------------------------------------------


#: Coefficients with 0 and 1 (the kernel's two shortcuts) drawn often.
COEFF = st.one_of(st.sampled_from([0, 1]), ELEM)


@st.composite
def products(draw):
    """(k, m, coefficient rows, data rows), lengths from 0 up."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    length = draw(st.one_of(st.integers(0, 3), st.integers(4, 300)))
    mat = draw(st.lists(st.lists(COEFF, min_size=k, max_size=k), min_size=m, max_size=m))
    rows = draw(st.lists(st.binary(min_size=length, max_size=length), min_size=k, max_size=k))
    return k, m, mat, rows


@given(products())
@settings(max_examples=300)
def test_kernel_matches_both_numpy_paths(case):
    k, m, mat, rows = case
    length = len(rows[0])
    got = gf_matmul_rows(mat, rows)
    assert all(type(row) is bytes and len(row) == length for row in got)
    arr_mat = np.array(mat, dtype=np.uint8).reshape(m, k)
    arr = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(k, length)
    for limit in (1 << 26, 0):  # the broadcast path, then the axpy loop
        want = reference_matmul(arr_mat, arr, broadcast_limit=limit)
        assert got == [row.tobytes() for row in want]


@given(st.integers(1, 8), st.integers(0, 4), st.binary(max_size=600),
       st.sampled_from([bytes, bytearray, memoryview]))
@settings(max_examples=200)
def test_encode_matches_numpy_split_and_product(k, m, data, kind):
    codec = ReedSolomon(k, m)
    shards = codec.encode(kind(data))
    split = np.zeros((k, codec.shard_size(len(data))), dtype=np.uint8)
    split.reshape(-1)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    parity = reference_matmul(codec.generator[k:], split)
    assert shards == [row.tobytes() for row in split] + [row.tobytes() for row in parity]
    assert all(type(s) is bytes for s in shards)
    assert codec.bytes_processed == (k + m) * codec.shard_size(len(data))


def test_kernel_rejects_a_coefficient_row_of_the_wrong_width():
    with pytest.raises(ValueError):
        gf_matmul_rows([[1, 2, 3]], [b"ab", b"cd"])


def _rows(arr: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in arr]


def test_matmul_identity():
    eye = np.eye(4, dtype=np.uint8)
    data = np.arange(32, dtype=np.uint8).reshape(4, 8)
    assert gf_matmul_rows(eye.tolist(), _rows(data)) == _rows(data)
    assert _rows(reference_matmul(eye, data)) == _rows(data)


def test_matmul_linearity():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 256, (3, 5)).astype(np.uint8).tolist()
    d1 = rng.integers(0, 256, (5, 16)).astype(np.uint8)
    d2 = rng.integers(0, 256, (5, 16)).astype(np.uint8)
    lhs = gf_matmul_rows(mat, _rows(np.bitwise_xor(d1, d2)))
    p1, p2 = gf_matmul_rows(mat, _rows(d1)), gf_matmul_rows(mat, _rows(d2))
    assert lhs == [bytes(a ^ b for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2)]
    assert lhs == _rows(reference_matmul(mat, np.bitwise_xor(d1, d2)))
