"""Erasure coding: GF(2^8) Reed-Solomon.

The data-durability layer of the simulated Ceph substrate, and the
workload of the paper's Reed-Solomon Encoder RTL accelerator.
"""

from .gf256 import (
    PRIMITIVE_POLY,
    gf_add,
    gf_div,
    gf_inv,
    gf_matmul_rows,
    gf_mul,
    gf_pow,
    gf_sub,
)
from .matrix import (
    cauchy,
    gauss_jordan_invert,
    identity,
    systematic_cauchy,
    systematic_vandermonde,
    vandermonde,
)
from .reed_solomon import ECProfile, ReedSolomon

__all__ = [
    "ECProfile",
    "PRIMITIVE_POLY",
    "ReedSolomon",
    "cauchy",
    "gauss_jordan_invert",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_matmul_rows",
    "gf_mul",
    "gf_pow",
    "gf_sub",
    "identity",
    "systematic_cauchy",
    "systematic_vandermonde",
    "vandermonde",
]
