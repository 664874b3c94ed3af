"""GF(2^8) arithmetic: log/antilog tables and a translate-table kernel.

The field is built over the AES/Rijndael-compatible primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D, the polynomial used by ISA-L,
jerasure, and Ceph's Reed-Solomon plugins).  Scalar multiplication uses
log/antilog tables.  Bulk products use one 256-byte product table per
coefficient: ``bytes.translate`` multiplies a whole row by a coefficient
in C, and rows are added (XORed) as Python integers.
"""

from __future__ import annotations

import numpy as np

from ..errors import ErasureCodingError

#: The primitive polynomial (degree-8 bits dropped): x^8+x^4+x^3+x^2+1.
PRIMITIVE_POLY = 0x11D
#: Generator element used to build the log tables.
GENERATOR = 2
#: Field order.
ORDER = 256

# --- table construction (runs once at import) --------------------------------

_EXP = np.zeros(512, dtype=np.uint8)  # doubled to skip a modulo in mul
_LOG = np.zeros(256, dtype=np.int32)

_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def gf_add(a, b):
    """Addition in GF(2^8) is XOR (works on scalars and arrays)."""
    return np.bitwise_xor(a, b)


# Subtraction equals addition in characteristic 2.
gf_sub = gf_add


def gf_mul(a: int, b: int) -> int:
    """Scalar multiply."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_div(a: int, b: int) -> int:
    """Scalar divide; raises on division by zero."""
    if b == 0:
        raise ErasureCodingError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse."""
    if a == 0:
        raise ErasureCodingError("zero has no inverse in GF(2^8)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_pow(a: int, n: int) -> int:
    """a**n in the field (n may be any integer)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ErasureCodingError("zero has no negative powers")
        return 0
    return int(_EXP[(int(_LOG[a]) * n) % 255])


#: ``_MUL[c]`` is the translate table of multiplication by ``c``: its
#: byte ``x`` is ``c * x``.  Built once, shared by every codec.
_PRODUCTS = _EXP[_LOG[:, None] + _LOG[None, :]]
_PRODUCTS[0, :] = 0
_PRODUCTS[:, 0] = 0
_MUL = [row.tobytes() for row in _PRODUCTS]
del _PRODUCTS


def gf_matmul_rows(mat, rows) -> list[bytes]:
    """Matrix product over GF(2^8) on byte rows: the codec's one kernel.

    ``mat`` is m rows of k integer coefficients; ``rows`` is k
    equal-length ``bytes`` (or ``bytearray``) rows.  Returns the m output
    rows as ``bytes``: row i is the XOR over j of ``mat[i][j] * rows[j]``,
    the dataflow of the paper's Reed-Solomon encoder pipeline.  Each
    nonzero coefficient costs one ``bytes.translate`` through its
    product table (none for a 1), and the XOR runs on the rows as
    integers.
    """
    size = len(rows[0]) if rows else 0
    out = []
    for coeffs in mat:
        acc = 0
        for c, row in zip(coeffs, rows, strict=True):
            if c:
                acc ^= int.from_bytes(row if c == 1 else row.translate(_MUL[c]), "little")
        out.append(acc.to_bytes(size, "little"))
    return out
