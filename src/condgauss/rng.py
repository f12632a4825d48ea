"""Deterministic splittable random streams.

Every random draw in the package flows from a single run seed through named
child streams, so any intermediate quantity can be re-derived in isolation.
A stream is an immutable (seed, key-path) pair: drawing from the same stream
twice yields the same numbers, and distinct draws must use distinct children.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream"]


def _key_part(part) -> int:
    """Map a key component (int or str) to a stable non-negative integer."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"negative key part: {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    raise TypeError(f"rng key parts must be int or str, got {type(part).__name__}")


class RngStream:
    """A keyed source of standard-normal (and auxiliary) draws.

    Streams are value objects: ``RngStream(seed).child("a", 3)`` always
    denotes the same infinite draw sequence. Each call to a drawing method
    replays that sequence from the start, so callers requiring independent
    draws derive distinct children rather than calling twice.
    """

    __slots__ = ("seed", "key")

    def __init__(self, seed: int, key: tuple = ()):
        if seed < 0:
            raise ValueError(f"negative seed: {seed}")
        self.seed = int(seed)
        self.key = tuple(key)

    def child(self, *parts) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(_key_part(p) for p in parts))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(seq))

    def normal(self, shape=()) -> np.ndarray:
        """Standard-normal draws zeta of the given shape."""
        return self.generator().standard_normal(shape)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self.generator().uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator().permutation(n)

    def bernoulli_mask(self, shape, prob: float) -> np.ndarray:
        """Boolean mask, True with probability ``prob`` per entry."""
        return self.generator().random(shape) < prob
