"""NumPy reference for the GF(2^8) kernel in :mod:`repro.ec.gf256`.

These are the kernels that :func:`repro.ec.gf256.gf_matmul_rows`
replaced: a per-byte table gather (``gf_mul_array``), the axpy built on
it, and a matrix product that runs either as one broadcasted gather and
XOR reduction over an (m, k, blocksize) intermediate or, above
``_MATMUL_BROADCAST_LIMIT`` bytes of it, as a loop of axpy calls.  The
property in ``test_ec_gf256.py`` requires the translate-table kernel to
equal both paths.  ``reference_decode`` and ``reference_shard`` decode
the way ``ReedSolomon`` did before it memoized inverses: invert the
survivors' generator rows on every call, then multiply.
"""

from __future__ import annotations

import numpy as np

from repro.ec.gf256 import _EXP, _LOG
from repro.ec.matrix import gauss_jordan_invert

#: Above this (m * k * blocksize) byte budget the broadcasted path's
#: intermediate would thrash caches; the axpy loop runs instead.
_MATMUL_BROADCAST_LIMIT = 1 << 26  # 64 MiB


def gf_mul_array(scalar: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by ``scalar`` (one table gather)."""
    data = np.asarray(data, dtype=np.uint8)
    if scalar == 0:
        return np.zeros_like(data)
    if scalar == 1:
        return data.copy()
    log_s = int(_LOG[scalar])
    out = _EXP[log_s + _LOG[data]].astype(np.uint8)
    out[data == 0] = 0
    return out


def gf_mul_add_array(acc: np.ndarray, scalar: int, data: np.ndarray) -> None:
    """``acc ^= scalar * data`` in place (the GF(2^8) axpy kernel)."""
    if scalar == 0:
        return
    np.bitwise_xor(acc, gf_mul_array(scalar, data), out=acc)


def reference_matmul(mat, data, broadcast_limit: int = _MATMUL_BROADCAST_LIMIT) -> np.ndarray:
    """(m, k) coefficients times (k, blocksize) bytes -> (m, blocksize)."""
    mat = np.asarray(mat, dtype=np.uint8)
    data = np.asarray(data, dtype=np.uint8)
    m, k = mat.shape
    blocksize = data.shape[1]
    if m == 0 or k == 0 or blocksize == 0:
        return np.zeros((m, blocksize), dtype=np.uint8)
    if m * k * blocksize > broadcast_limit:
        out = np.zeros((m, blocksize), dtype=np.uint8)
        for i in range(m):
            for j in range(k):
                gf_mul_add_array(out[i], int(mat[i, j]), data[j])
        return out
    # exp(log a + log b) with zeros masked out: _LOG[0] is 0 (a lie), so
    # any product with a zero coefficient or zero data byte is forced to
    # zero explicitly before the XOR reduction.
    prod = _EXP[_LOG[mat][:, :, None] + _LOG[data][None, :, :]]
    nonzero = (mat != 0)[:, :, None] & (data != 0)[None, :, :]
    prod &= np.where(nonzero, np.uint8(0xFF), np.uint8(0))
    return np.bitwise_xor.reduce(prod, axis=1)


def _reference_data_rows(codec, shards) -> np.ndarray:
    """The k data rows, from the generator rows of the first k survivors
    inverted and multiplied by :func:`reference_matmul`, no fast path."""
    use = [i for i, s in enumerate(shards) if s is not None][: codec.k]
    inverse = gauss_jordan_invert(codec.generator[use])
    survivors = np.stack([np.frombuffer(shards[i], dtype=np.uint8) for i in use])
    return reference_matmul(inverse, survivors)


def reference_decode(codec, shards, data_len: int) -> bytes:
    """Object bytes from any k surviving shards of ``codec``."""
    return _reference_data_rows(codec, shards).reshape(-1)[:data_len].tobytes()


def reference_shard(codec, shards, index: int) -> bytes:
    """Shard ``index`` re-encoded from the decoded data rows."""
    rows = _reference_data_rows(codec, shards)
    return reference_matmul(codec.generator[index : index + 1], rows)[0].tobytes()
