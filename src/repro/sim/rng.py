"""Deterministic random-number streams.

Every stochastic component draws from a named substream derived from a
single master seed, so adding a new consumer never perturbs the draws of
existing ones — a standard reproducibility idiom in parallel simulation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

import numpy as np


def _derive_seed(master_seed: int, name: str) -> int:
    """A 64-bit seed unique to (master_seed, name), stable across runs."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """One named substream: python ``random`` plus a NumPy generator."""

    def __init__(self, master_seed: int, name: str):
        self.name = name
        self._seed = seed = _derive_seed(master_seed, name)
        self.py = random.Random(seed)
        self.np = np.random.default_rng(seed)
        #: ``(mean_ns, sigma) -> mu`` of :meth:`lognormal_ns`: its callers
        #: pass a few profile constants, so each ``np.log`` runs once.
        self._lognormal_mu: dict[tuple[float, float], float] = {}

    def fork(self, name: str) -> "RngStream":
        """A child substream derived from this stream's seed and ``name``.

        Forking never consumes draws from the parent, so consumers that
        need event-keyed randomness (e.g. fate draws at a particular
        crash instant) stay decoupled from each other and from the
        parent's position.
        """
        return RngStream(self._seed, f"{self.name}/{name}")

    # Convenience pass-throughs used in hot paths -----------------------------

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self.py.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        return self.py.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (1/mean)."""
        return self.py.expovariate(rate)

    def choice(self, seq: Sequence):
        """Uniformly random element of ``seq``."""
        return self.py.choice(seq)

    def lognormal_ns(self, mean_ns: float, sigma: float = 0.1) -> int:
        """Lognormal service time centred on ``mean_ns`` (integer ns >= 1).

        ``sigma`` is the shape parameter of the underlying normal; the
        distribution is rescaled so its mean equals ``mean_ns``, which makes
        calibrated averages independent of the jitter setting.
        """
        if mean_ns <= 0:
            return 0
        mu = self._lognormal_mu.get((mean_ns, sigma))
        if mu is None:
            mu = self._lognormal_mu[mean_ns, sigma] = float(np.log(mean_ns)) - 0.5 * sigma * sigma
        return max(1, int(round(self.py.lognormvariate(mu, sigma))))


class RngRegistry:
    """Factory of named substreams sharing one master seed."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """The (cached) substream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.master_seed, name)
        return self._streams[name]
