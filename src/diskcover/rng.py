"""Deterministic randomness helpers.

All randomized routines in this package draw from counter-based Philox
streams keyed by a user seed plus a stream identifier, so results are a
pure function of the seed and never depend on execution order or on how
work is split across workers.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# One bit generator for every trial draw. Building a Philox from a key
# also seeds an unused SeedSequence from the OS, at several times the
# cost of setting the state. Each call sets the whole state before it
# draws, so no draw depends on an earlier one; the package draws from
# one thread per process, and two threads would need a generator each.
_PHILOX = np.random.Philox(key=0)


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


def _threshold(p: float) -> int:
    """The least raw Philox word whose double is not below p, in [0, 2^64].

    numpy's Philox double is (r >> 11) 2^-53 for the raw word r, so it
    is below p exactly when r >> 11 < ceil(p 2^53), that is when
    r < ceil(p 2^53) << 11. At p >= 1 every word is below 2^64.
    """
    if not p > 0:
        return 0
    if p >= 1:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def trial_masks(seed: int, stream: tuple[int, ...], trials: int, width: int,
                p: float) -> list[int]:
    """Per-trial inclusion samples as integer bitmasks (bit v = vertex v).

    The rows of `trial_matrix(seed, stream, trials, width, p)`, bit for
    bit, drawn by comparing raw Philox words with `_threshold(p)`. Each
    row is packed little-endian into whole 64-bit words; word j of every
    row is read as one Python int column and ORed in at bit 64 j.
    """
    threshold = _threshold(p)
    if threshold >> 64:
        return [(1 << width) - 1] * trials
    _PHILOX.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([mix64(seed, *stream), 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    raw = _PHILOX.random_raw(trials * width).reshape(trials, width)
    packed = np.packbits(raw < np.uint64(threshold), axis=1,
                         bitorder="little")
    words = np.zeros((trials, max(1, -(-width // 64)) * 8), np.uint8)
    words[:, :packed.shape[1]] = packed
    cols = words.view("<u8").T.tolist()
    masks = cols[0]
    for j, col in enumerate(cols[1:], 1):
        masks = [m | x << 64 * j for m, x in zip(masks, col)]
    return masks
