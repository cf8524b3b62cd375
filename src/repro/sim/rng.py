"""Deterministic random-number streams for the simulator.

Every stochastic component (scheduler noise, workload generators, failure
injection) draws from its own named stream derived from a single experiment
seed, so experiments are reproducible and adding a new consumer does not
perturb the draws seen by existing ones.

The Zipfian generator follows the rejection-inversion-free algorithm used by
the original YCSB implementation (Gray et al., "Quickly generating
billion-record synthetic databases"), including the *scrambled* variant that
spreads hot keys across the keyspace.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

__all__ = [
    "RandomStreams",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "fnv_hash64",
    "fnv_hash_str",
]

FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Seed for generators constructed without an explicit stream.  Fixed, not
#: OS entropy: a bare ``ZipfianGenerator(n)`` must still be reproducible
#: run to run (an unseeded ``random.Random()`` would not be).
_DEFAULT_SEED = 0x5EED


def fnv_hash64(value: int) -> int:
    """FNV-1a hash of an integer, matching YCSB's key scrambler."""
    hashval = FNV_OFFSET_BASIS_64
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        hashval = hashval ^ octet
        hashval = (hashval * FNV_PRIME_64) & _MASK64
    return hashval


def fnv_hash_str(name: str) -> int:
    """FNV-1a over the name's UTF-8 bytes.

    Built-in ``hash()`` is salted per interpreter process (PYTHONHASHSEED),
    which would make "deterministic" streams differ between runs.  Named
    RNG streams and the cluster router's hash ring both derive positions
    from this, so identical configs map identically across processes.
    """
    hashval = FNV_OFFSET_BASIS_64
    for octet in name.encode("utf-8"):
        hashval = hashval ^ octet
        hashval = (hashval * FNV_PRIME_64) & _MASK64
    return hashval


class RandomStreams:
    """A family of independent named :class:`random.Random` streams."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created deterministically on first use."""
        if name not in self._streams:
            # Derive a per-stream seed from the experiment seed and the name.
            derived = fnv_hash64(self.seed ^ fnv_hash_str(name))
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """A child family, for components that create their own substreams."""
        derived = fnv_hash64(self.seed ^ fnv_hash_str(name))
        return RandomStreams(derived)


class ZipfianGenerator:
    """Zipf-distributed integers in ``[0, items)``.

    Item 0 is the most popular.  ``theta`` defaults to YCSB's 0.99.
    """

    __slots__ = ("items", "theta", "rng", "alpha", "zetan", "zeta2", "eta")

    def __init__(self, items: int, theta: float = 0.99,
                 rng: Optional[random.Random] = None) -> None:
        if items <= 0:
            raise ValueError("items must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.items = items
        self.theta = theta
        self.rng = rng if rng is not None else random.Random(_DEFAULT_SEED)
        self.alpha = 1.0 / (1.0 - theta)
        self.zetan = self._zeta(items, theta)
        self.zeta2 = self._zeta(2, theta)
        self.eta = ((1 - (2.0 / items) ** (1 - theta))
                    / (1 - self.zeta2 / self.zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.items * (self.eta * u - self.eta + 1) ** self.alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity spread uniformly over the keyspace via hashing."""

    __slots__ = ("items", "_zipf")

    def __init__(self, items: int, theta: float = 0.99,
                 rng: Optional[random.Random] = None) -> None:
        self.items = items
        self._zipf = ZipfianGenerator(items, theta, rng)

    def next(self) -> int:
        return fnv_hash64(self._zipf.next()) % self.items


class LatestGenerator:
    """YCSB's "latest" distribution: recency-skewed over a growing keyspace.

    The most recently inserted items are the most popular — used by
    workload D.  Call :meth:`observe_insert` as the keyspace grows.
    """

    __slots__ = ("items", "theta", "rng", "_zipf")

    def __init__(self, items: int, theta: float = 0.99,
                 rng: Optional[random.Random] = None) -> None:
        self.items = items
        self.theta = theta
        self.rng = rng if rng is not None else random.Random(_DEFAULT_SEED)
        self._zipf = ZipfianGenerator(max(items, 1), theta, self.rng)

    def observe_insert(self) -> None:
        self.items += 1
        # Rebuilding zeta incrementally: zeta(n+1) = zeta(n) + 1/(n+1)^theta.
        self._zipf.zetan += 1.0 / (self.items ** self._zipf.theta)
        self._zipf.items = self.items
        self._zipf.eta = ((1 - (2.0 / self.items) ** (1 - self.theta))
                          / (1 - self._zipf.zeta2 / self._zipf.zetan))

    def next(self) -> int:
        offset = self._zipf.next()
        return max(0, self.items - 1 - offset)


def exponential(rng: random.Random, mean: float) -> float:
    """Exponentially distributed sample with the given mean."""
    return rng.expovariate(1.0 / mean) if mean > 0 else 0.0


def lognormal_from_median(rng: random.Random, median: float, sigma: float) -> float:
    """Log-normal sample parameterised by its median (heavy-tailed delays)."""
    return median * math.exp(rng.gauss(0.0, sigma))
