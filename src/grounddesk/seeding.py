"""Stable sub-seed derivation for deterministic, order-independent fan-out,
and weighted draws that reproduce numpy Generator streams.

`weighted_index(rng, cumulative_weights(w))` draws the index that
`rng.choice(len(w), p=w / sum(w))` draws and leaves `rng` in the same state,
without re-checking and re-summing the weights on every draw. A scalar
`rng.choice(n)` is `rng.integers(0, n)` in the same way. Draws without
replacement stay on `rng.choice`.
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_right

import numpy as np


def derive_seed(base: int, *parts) -> int:
    """Stable 64-bit sub-seed from a base seed and a label path."""
    text = ":".join([str(base)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


@functools.lru_cache(maxsize=None)
def cumulative_weights(weights: tuple) -> tuple[float, ...]:
    """The CDF that Generator.choice draws from for p = weights / sum(weights),
    computed as numpy computes it: the cumulative sum of p divided by its last
    entry. Raises ValueError where choice() would: weights that are negative,
    not finite, or sum to 0."""
    p = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = p / p.sum()
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError(f"weights {list(weights)} are not non-negative with a positive sum")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def weighted_index(rng: np.random.Generator, cdf: tuple[float, ...]) -> int:
    """The index rng.choice(len(cdf), p=...) draws, for the cumulative_weights()
    of p: one rng.random() placed on the CDF, as searchsorted(side="right")."""
    return bisect_right(cdf, rng.random())
