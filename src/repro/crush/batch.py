"""Batched CRUSH descents: one NumPy straw2 pass for many inputs.

The scalar mapper (``rules.py``) descends one ``(x, r)`` at a time and
runs ``size`` pure-Python rjenkins hashes per straw2 bucket it visits.
This module runs the same descent for many *lanes* (one lane is one
``(start, x, r)``) at once, level by level: lanes that sit at the same
straw2 bucket draw all their straws in one vectorized pass; every other
bucket algorithm answers per lane through its scalar ``choose``.  It is
the software analogue of the paper's FPGA recomputing a whole placement
map per call, and of Ceph's ``OSDMapMapping``, which precomputes a
pool's PG table at once.

All hash arithmetic is ``uint32`` (wraparound comes from the dtype) and
every scalar operand carries an explicit dtype, so results do not depend
on NumPy's promotion rules.  Each kernel here equals its scalar
counterpart bit for bit; the tests compare them exhaustively or by
property.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import CrushError
from .buckets import Straw2Bucket
from .hashing import CRUSH_HASH_SEED
from .ln_table import _LH, _LL, _RH, LN_ONE
from .map import CrushMap
from .types import MAX_DEPTH

_SEED = np.uint32(CRUSH_HASH_SEED)
_X0 = np.uint32(231232)
_Y0 = np.uint32(1232)
_U3, _U5, _U8, _U10, _U12, _U13, _U15, _U16 = (
    np.uint32(n) for n in (3, 5, 8, 10, 12, 13, 15, 16)
)
_LOW16 = np.uint32(0xFFFF)

# crush_ln's three small tables as arrays, indexed by index1 - 256 (RH,
# LH) and index2 (LL): the same integers the scalar crush_ln reads.
_RH_A = np.array([_RH[i] for i in range(256, 513)], dtype=np.uint64)
_LH_A = np.array([_LH[i] for i in range(256, 513)], dtype=np.int64)
_LL_A = np.array(_LL, dtype=np.int64)
_I0, _I1, _I4, _I8, _I15, _I16, _I44, _I256 = (
    np.int64(n) for n in (0, 1, 4, 8, 15, 16, 44, 256)
)
_I_LOW16 = np.int64(0xFFFF)
_U64_48 = np.uint64(48)
_U64_LOW8 = np.uint64(0xFF)
_LN_ONE = np.int64(LN_ONE)
_S64_MAX = np.int64(-1 - Straw2Bucket._S64_MIN)


def _u32(values) -> np.ndarray:
    """``values & 0xFFFFFFFF`` as a uint32 array (negative ids wrap)."""
    return np.asarray(values, dtype=np.int64).astype(np.uint32)


def _mix(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Jenkins' 96-bit mix on three same-shape uint32 arrays, in place."""
    a -= b
    a -= c
    a ^= c >> _U13
    b -= c
    b -= a
    b ^= a << _U8
    c -= a
    c -= b
    c ^= b >> _U13
    a -= b
    a -= c
    a ^= c >> _U12
    b -= c
    b -= a
    b ^= a << _U16
    c -= a
    c -= b
    c ^= b >> _U5
    a -= b
    a -= c
    a ^= c >> _U3
    b -= c
    b -= a
    b ^= a << _U10
    c -= a
    c -= b
    c ^= b >> _U15


def _operands(*values) -> list[np.ndarray]:
    """Broadcast hash inputs to one shape, as writable uint32 copies."""
    values = [_u32(v) for v in values]
    shape = np.broadcast_shapes(*(v.shape for v in values))
    out = []
    for v in values:
        full = np.empty(shape, dtype=np.uint32)
        full[...] = v
        out.append(full)
    return out


def hash32_2(a, b) -> np.ndarray:
    """Elementwise :func:`repro.crush.hashing.hash32_2` over broadcast arrays."""
    a, b = _operands(a, b)
    h = a ^ b
    h ^= _SEED
    x = np.full_like(h, _X0)
    y = np.full_like(h, _Y0)
    _mix(a, b, h)
    _mix(x, a, h)
    _mix(b, y, h)
    return h


def hash32_3(a, b, c) -> np.ndarray:
    """Elementwise :func:`repro.crush.hashing.hash32_3` over broadcast arrays."""
    a, b, c = _operands(a, b, c)
    h = a ^ b
    h ^= c
    h ^= _SEED
    x = np.full_like(h, _X0)
    y = np.full_like(h, _Y0)
    _mix(a, b, h)
    _mix(c, x, h)
    _mix(y, a, h)
    _mix(b, x, h)
    _mix(y, c, h)
    return h


def crush_ln(xin) -> np.ndarray:
    """Elementwise :func:`repro.crush.ln_table.crush_ln` (int64 results).

    The scalar version's bit manipulations, with the exponent taken from
    ``frexp`` (exact: inputs are at most 2**16).  Works in place where it
    can: a fill's arrays are a pool's PGs times a bucket's items.
    """
    x = np.asarray(xin, dtype=np.int64) & _I_LOW16
    x += _I1
    # Normalize x into [0x8000, 0x10000]: shift by 16 - bit_length(x).
    bits = np.frexp(x)[1].astype(np.int64)
    np.subtract(_I16, bits, out=bits)
    np.maximum(bits, _I0, out=bits)
    x <<= bits
    iexpon = np.subtract(_I15, bits, out=bits)
    row = (x >> _I8) << _I1  # index1
    row -= _I256
    lh = _LH_A[row]
    # x * rh reaches 2**63 and beyond: multiply in uint64.
    xl64 = x.astype(np.uint64)
    xl64 *= _RH_A[row]
    xl64 >>= _U64_48
    xl64 &= _U64_LOW8  # index2
    lh += _LL_A[xl64]
    lh >>= _I4
    iexpon <<= _I44
    iexpon += lh
    return iexpon


def straw2_choose(bucket: Straw2Bucket, xs: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """``bucket.choose(x, r)`` for every lane: each lane's winning item.

    :meth:`Straw2Bucket.choose` keeps the first maximal draw
    ``-((-ln) // w)`` (C's truncating division of a non-positive log),
    with ``S64_MIN`` for zero weights.  That is the first minimal
    quotient ``(-ln) // w`` (``argmin``), with ``S64_MAX`` for zero
    weights: a real quotient is at most 2**48, so they never win.
    """
    items = np.array(bucket.items, dtype=np.int64)
    weights = np.array(bucket.weights, dtype=np.int64)
    u = hash32_3(xs[:, None], items[None, :], rs[:, None])
    u &= _LOW16
    quotients = crush_ln(u)
    np.subtract(_LN_ONE, quotients, out=quotients)  # -ln >= 0
    quotients //= np.maximum(weights, _I1)
    if 0 in bucket.weights:
        quotients[:, weights == _I0] = _S64_MAX
    return items[np.argmin(quotients, axis=1)]


def _choose_one(bucket, x: int, r: int) -> Optional[int]:
    """Scalar ``choose``; None where it raises (the scalar path re-raises)."""
    try:
        return bucket.choose(x, r)
    except CrushError:
        return None


def descend_many(
    cmap: CrushMap, starts: Sequence[int], xs, rs, want_type: int
) -> list[Optional[int]]:
    """``Mapper._descend(starts[i], xs[i], rs[i], want_type)`` for every lane.

    Walks all lanes one level at a time and groups the lanes that sit at
    the same bucket.  Returns each lane's item, or None where the scalar
    descent dead-ends, raises, or exceeds :data:`MAX_DEPTH`: the scalar
    path answers (or raises for) those lanes itself.
    """
    xs = _u32(xs)
    rs = _u32(rs)
    x_list, r_list = xs.tolist(), rs.tolist()
    nodes = list(starts)
    out: list[Optional[int]] = [None] * len(nodes)
    active = range(len(nodes))
    for _ in range(MAX_DEPTH):
        groups: dict[int, list[int]] = {}
        for lane in active:
            node = nodes[lane]
            if cmap.type_of(node) == want_type:
                out[lane] = node
            elif node < 0 and cmap.buckets[node].size:
                groups.setdefault(node, []).append(lane)
        if not groups:
            break
        active = []
        for node, lanes in groups.items():
            bucket = cmap.buckets[node]
            if isinstance(bucket, Straw2Bucket):
                idx = np.array(lanes)
                chosen = straw2_choose(bucket, xs[idx], rs[idx]).tolist()
            else:
                chosen = [_choose_one(bucket, x_list[i], r_list[i]) for i in lanes]
            for lane, item in zip(lanes, chosen):
                if item is not None:
                    nodes[lane] = item
                    active.append(lane)
    return out
