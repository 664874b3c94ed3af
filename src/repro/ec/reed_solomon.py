"""Systematic Reed-Solomon erasure codec over GF(2^8).

``ReedSolomon(k, m)`` splits an object into ``k`` data shards and
computes ``m`` parity shards; any ``k`` surviving shards reconstruct the
original.  This is the algorithm behind Ceph EC pools and the workload
of the paper's Reed-Solomon RTL accelerator (Table I).

Encoding is a GF matrix multiply over the shard rows; decoding inverts
the surviving rows of the generator matrix (Gauss-Jordan, once per
erasure pattern) and re-multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DecodeError, ErasureCodingError
from .gf256 import gf_matmul_rows
from .matrix import gauss_jordan_invert, systematic_cauchy, systematic_vandermonde


@dataclass(frozen=True)
class ECProfile:
    """Erasure-code parameters, mirroring a Ceph EC profile."""

    k: int
    m: int
    technique: str = "vandermonde"  # or "cauchy"

    def __post_init__(self):
        if self.k < 1:
            raise ErasureCodingError(f"k must be >= 1, got {self.k}")
        if self.m < 0:
            raise ErasureCodingError(f"m must be >= 0, got {self.m}")
        if self.k + self.m > 256:
            raise ErasureCodingError(f"k+m must be <= 256, got {self.k + self.m}")
        if self.technique not in ("vandermonde", "cauchy"):
            raise ErasureCodingError(f"unknown technique {self.technique!r}")

    @property
    def n(self) -> int:
        """Total shard count."""
        return self.k + self.m


class ReedSolomon:
    """Encoder/decoder for one EC profile."""

    def __init__(self, k: int, m: int, technique: str = "vandermonde"):
        self.profile = ECProfile(k, m, technique)
        if technique == "vandermonde":
            self.generator = systematic_vandermonde(k, m)
        else:
            self.generator = systematic_cauchy(k, m)
        #: The parity rows of the generator, as Python ints for the kernel.
        self._parity = self.generator[k:].tolist()
        #: (surviving shard indexes, rebuilt shard or None) -> decode rows.
        self._decoders: dict[tuple[tuple[int, ...], Optional[int]], list[list[int]]] = {}
        #: XOR byte operations performed (profiling hook for the cost model)
        self.bytes_processed = 0

    @property
    def k(self) -> int:
        """Data shard count."""
        return self.profile.k

    @property
    def m(self) -> int:
        """Parity shard count."""
        return self.profile.m

    # -- shard segmentation -----------------------------------------------------

    def shard_size(self, data_len: int) -> int:
        """Bytes per shard for an object of ``data_len`` (zero-padded)."""
        return (data_len + self.k - 1) // self.k if data_len else 1

    # -- encode / decode ------------------------------------------------------------

    def encode(self, data: bytes) -> list[bytes]:
        """Encode an object (any bytes-like) into k data + m parity shards."""
        size = self.shard_size(len(data))
        padded = bytes(data).ljust(self.k * size, b"\0")
        shards = [padded[i * size : (i + 1) * size] for i in range(self.k)]
        shards += gf_matmul_rows(self._parity, shards)
        self.bytes_processed += len(shards) * size
        return shards

    def encode_batch(self, objects: Sequence[bytes]) -> list[list[bytes]]:
        """Encode many objects: :meth:`encode` per object.

        The byte kernel costs about the same per byte at any row length,
        so packing stripes side by side into one product saves nothing.
        """
        return [self.encode(data) for data in objects]

    def decode_batch(
        self, shard_sets: Sequence[Sequence[Optional[bytes]]], data_lens: Sequence[int]
    ) -> list[bytes]:
        """Decode many objects: :meth:`decode` per object.

        Each erasure pattern's inverse is memoized per codec, and the
        byte kernel costs about the same per byte at any row length, so
        packing objects side by side into one product saves nothing.
        """
        if len(shard_sets) != len(data_lens):
            raise ErasureCodingError(
                f"{len(shard_sets)} shard sets but {len(data_lens)} lengths"
            )
        return [self.decode(shards, n) for shards, n in zip(shard_sets, data_lens)]

    def _decoder(self, use: tuple[int, ...], index: Optional[int] = None) -> list[list[int]]:
        """Coefficient rows mapping the shards ``use`` to the k data rows
        (``index`` None) or to the single shard ``index``.

        The inverse of the generator rows ``use`` is computed once per
        erasure pattern; a single shard's row is the generator row times
        that inverse, so rebuilding it takes one product row, not k.
        """
        key = (use, index)
        rows = self._decoders.get(key)
        if rows is None:
            if index is None:
                rows = gauss_jordan_invert(self.generator[list(use)]).tolist()
            else:
                inverse = [bytes(row) for row in self._decoder(use)]
                rows = [list(gf_matmul_rows([self.generator[index].tolist()], inverse)[0])]
            self._decoders[key] = rows
        return rows

    def decode(self, shards: Sequence[Optional[bytes]], data_len: int) -> bytes:
        """Reconstruct the object from any >= k surviving shards.

        ``shards`` has n slots ordered by shard index; missing shards are
        None.  Raises :class:`DecodeError` with a precise message when too
        few survive.
        """
        n = self.profile.n
        if len(shards) != n:
            raise ErasureCodingError(f"expected {n} shard slots, got {len(shards)}")
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < self.k:
            raise DecodeError(
                f"unrecoverable: {len(present)} shards survive but k={self.k} required"
            )
        use = tuple(present[: self.k])
        if use[-1] == self.k - 1:
            # The first k survivors are the data shards: reassembly only.
            return b"".join(shards[: self.k])[:data_len]
        survivors = [shards[i] for i in use]
        data_rows = gf_matmul_rows(self._decoder(use), survivors)
        self.bytes_processed += 2 * self.k * len(survivors[0])
        return b"".join(data_rows)[:data_len]

    def reconstruct_shard(self, shards: Sequence[Optional[bytes]], index: int) -> bytes:
        """Rebuild a single lost shard (the recovery-path primitive)."""
        n = self.profile.n
        if not 0 <= index < n:
            raise ErasureCodingError(f"shard index {index} out of range [0, {n})")
        if shards[index] is not None:
            return shards[index]
        present = [i for i, s in enumerate(shards) if s is not None]
        if len(present) < self.k:
            raise DecodeError(
                f"unrecoverable shard {index}: only {len(present)} survive, k={self.k}"
            )
        use = tuple(present[: self.k])
        return gf_matmul_rows(self._decoder(use, index), [shards[i] for i in use])[0]

    def __repr__(self) -> str:
        return f"<ReedSolomon k={self.k} m={self.m} {self.profile.technique}>"
