"""Deterministic randomness helpers.

All randomized routines in this package draw from counter-based Philox
streams keyed by a user seed plus a stream identifier, so results are a
pure function of the seed and never depend on execution order or on how
work is split across workers.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# One bit generator for every trial draw. Building a Philox from a key
# also seeds an unused SeedSequence from the OS, at several times the
# cost of setting the state. A `keyed_bits` call sets the whole state
# before each key's words, one key per row of one block buffer, so no
# draw depends on an earlier one; the worker thread of a split host pass
# (`hypergraph._halves`) never draws from it.
_PHILOX = np.random.Philox(key=0)
# Its fresh state (zero counter, empty buffer, key (0, 0)) is the one
# every `_rekey` of any Philox sets, with word 0 of the key written in
# place first; setting a state copies its arrays.
_STATE = _PHILOX.state
_KEY = _STATE["state"]["key"]
# seeds each `generator` and `streams` Philox before it is re-keyed: no
# OS entropy
_SEED = np.random.SeedSequence(0)


def mix64(*parts: int, key: int = 0x9E3779B97F4A7C15) -> int:
    """Combine integers into one 64-bit stream key (SplitMix64 chain).

    The chain runs on from `key`, so mix64(*a, *b) == mix64(*b,
    key=mix64(*a)): a prefix many keys share can be mixed once."""
    h = key
    for part in parts:
        h = (h ^ (part & _MASK64)) & _MASK64
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def _rekey(bits: np.random.Philox, key: int) -> None:
    """Set the whole state of a Philox to that of Philox(key=key): zero
    counter, empty buffer and no buffered 32-bit half."""
    _KEY[0] = key
    bits.state = _STATE


def generator(seed: int, *stream: int) -> np.random.Generator:
    """The Philox generator of (seed, *stream): Philox(key=mix64(seed, *stream))."""
    bits = np.random.Philox(_SEED)
    _rekey(bits, mix64(seed, *stream))
    return np.random.Generator(bits)


def streams(seed: int, *stream: int) -> Iterator[np.random.Generator]:
    """`generator(seed, *stream, i)` for i = 0, 1, ...: one Generator,
    re-keyed to mix64(i, key=mix64(seed, *stream)) before each step, so
    a step's draws must be taken before the next step starts."""
    bits, prefix = np.random.Philox(_SEED), mix64(seed, *stream)
    gen = np.random.Generator(bits)
    for i in count():
        _rekey(bits, mix64(i, key=prefix))
        yield gen


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


def trial_bits(seed: int, stream: tuple[int, ...], trials: int, width: int,
               p: float) -> np.ndarray:
    """Per-trial inclusion samples as a (trials, width) bool matrix.

    Entry (i, v) is set when the double `generator(seed, *stream)` draws
    for row i, column v of a (trials, width) matrix is below p. The
    matrix is a pure function of (seed, stream, trials, width, p), so
    trials may be consumed in any order with identical results. The bits
    come from comparing raw Philox words with `_threshold(p)`, with no
    doubles made.
    """
    return keyed_bits([mix64(seed, *stream)], trials, width, p)[0]


def keyed_bits(keys: list, trials: int, width: int, p: float) -> np.ndarray:
    """The `trial_bits(seed, stream, trials, width, p)` of each stream key
    mix64(seed, *stream) in keys, stacked as a (len(keys), trials, width)
    bool array: one threshold, and each key's words compared straight
    into its row."""
    threshold = _threshold(p)
    if threshold >> 64:
        return np.ones((len(keys), trials, width), bool)
    out = np.empty((len(keys), trials * width), bool)
    threshold, size = np.uint64(threshold), trials * width
    for i, key in enumerate(keys):
        _rekey(_PHILOX, key)
        np.less(_PHILOX.random_raw(size), threshold, out=out[i])
    return out.reshape(len(keys), trials, width)


def bit_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a 2-d bool matrix as little-endian uint64 words, bit v of
    word v // 64 holding column v: a (rows, max(1, ceil(width / 64)))
    array. The rows are padded to whole words as bools, then packed
    eight to a byte in one flat `np.packbits`: on many short rows, such
    as a block's side-1 misses, that is 1.6-2x faster than packing row
    by row, which costs about 14 ns a row."""
    rows, width = bits.shape
    k = max(1, -(-width // 64))
    padded = np.zeros((rows, 64 * k), bool)
    padded[:, :width] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(rows, k)


def word_masks(words: np.ndarray) -> list[int]:
    """Each row of a 2-d uint64 word array as an integer bitmask, word j
    at bit 64 j: the inverse of `mask_words`."""
    masks = words[:, 0].tolist()
    for j in range(1, words.shape[1]):
        masks = [m | x << 64 * j for m, x in zip(masks, words[:, j].tolist())]
    return masks


def row_masks(bits: np.ndarray) -> list[int]:
    """Each row of a 2-d bool matrix as an integer bitmask (bit v = column v):
    the one encoder of bit rows in the package.

    Up to 128 columns the rows are read off their `bit_words`. A wider
    row is packed eight columns to a byte and read by one
    `int.from_bytes`.
    """
    rows, width = bits.shape
    if width <= 128:
        return word_masks(bit_words(bits))
    # packbits along a strided axis is several times slower than a copy
    packed = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    w, flat = packed.shape[1], packed.tobytes()
    return [int.from_bytes(flat[i:i + w], "little")
            for i in range(0, rows * w, w)]


def mask_words(masks: list[int], k: int) -> np.ndarray:
    """The inverse of `bit_words`: masks below 2^(64 k) as the rows of a
    (len(masks), k) array of little-endian uint64 words."""
    flat = b"".join(m.to_bytes(8 * k, "little") for m in masks)
    return np.frombuffer(flat, "<u8").reshape(len(masks), k)


def mask_bits(masks: list[int], width: int) -> np.ndarray:
    """The inverse of `row_masks`: masks below 2^width as the rows of a
    (len(masks), width) bool matrix, bit v in column v."""
    words = mask_words(masks, width // 64 + 1)
    return np.unpackbits(words.view(np.uint8), axis=1, count=width,
                         bitorder="little").view(bool)


def trial_masks(seed: int, stream: tuple[int, ...], trials: int, width: int,
                p: float) -> list[int]:
    """The rows of `trial_bits(seed, stream, trials, width, p)` as integer
    bitmasks (bit v = vertex v)."""
    return row_masks(trial_bits(seed, stream, trials, width, p))
