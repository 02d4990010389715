"""Deterministic randomness helpers.

All randomized routines in this package draw from counter-based Philox
streams keyed by a user seed plus a stream identifier, so results are a
pure function of the seed and never depend on execution order or on how
work is split across workers.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Combine integers into one 64-bit stream key (SplitMix64 chain)."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = (h ^ (part & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def generator(seed: int, *stream: int) -> np.random.Generator:
    """A Philox generator for the stream identified by (seed, *stream)."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, *stream)))


def trial_matrix(seed: int, stream: tuple[int, ...], trials: int, width: int,
                 p: float) -> np.ndarray:
    """Bernoulli(p) samples of shape (trials, width).

    Row i is the vertex-inclusion sample for trial i. The whole matrix is
    a pure function of (seed, stream, trials, width), so trials may be
    consumed in any order, or in parallel, with bit-identical results.
    """
    gen = generator(seed, *stream)
    return gen.random((trials, width)) < p


def trial_masks(seed: int, stream: tuple[int, ...], trials: int, width: int,
                p: float) -> list[int]:
    """Per-trial inclusion samples as integer bitmasks (bit v = vertex v).

    Each row is packed little-endian into whole 64-bit words; word j of
    every row is read as one Python int column and ORed in at bit 64 j.
    """
    packed = np.packbits(trial_matrix(seed, stream, trials, width, p),
                         axis=1, bitorder="little")
    words = np.zeros((trials, max(1, -(-width // 64)) * 8), np.uint8)
    words[:, :packed.shape[1]] = packed
    cols = words.view("<u8").T.tolist()
    masks = cols[0]
    for j, col in enumerate(cols[1:], 1):
        masks = [m | x << 64 * j for m, x in zip(masks, col)]
    return masks
