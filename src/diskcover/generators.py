"""Seeded instance generators for experiments and audits."""

from __future__ import annotations

from bisect import bisect_right
from copy import copy
from itertools import combinations
from math import comb, isqrt, sqrt
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import (Hypergraph3, SkeletonGraph, _PairLevels,
                         _check_memory, _check_vertex_count, _half, _halves,
                         _pair_blocks, code_dtype, complete_hypergraph)
from .rng import _threshold, generator, streams, trial_bits

__all__ = [
    "random_hypergraph",
    "random_hypergraphs",
    "random_graph",
    "clique_pendant_graph",
    "random_graph_corpus",
    "complete_hypergraph",
]

_S_GNP3 = 0x33
_S_GNP2 = 0x32
_S_CORPUS = 0x3C
# vertex-count range and density multipliers of the audit corpus
_CORPUS_N = (10, 200)
_CORPUS_C = (0.5, 1.0, 2.0, 4.0, 8.0)

# words drawn per numpy step; any chunking reads the same stream
_DRAW_CHUNK = 1 << 16
# the kept-triple buffer starts this many standard deviations above the
# mean kept count, and only grows in the rare draw that overflows it
_SIGMAS = 8


def random_hypergraph(n: int, p: float, seed: int) -> Hypergraph3:
    """Binomial random 3-uniform hypergraph: each triple kept with probability p.

    Deterministic per (n, seed): triple i, in lexicographic order, is kept
    when the i-th float of the (seed, n) Philox stream is below p. So at a
    fixed seed the edge sets are nested in p (a triple kept at p stays kept
    at any larger p), which keeps threshold sweeps monotone up to sampling
    noise. This is the one-density case of :func:`random_hypergraphs`.
    """
    return next(random_hypergraphs(n, (p,), seed))[1]


def random_hypergraphs(n: int, ps: Iterable[float],
                       seed: int) -> Iterator[tuple[float, Hypergraph3]]:
    """Yield (p, random_hypergraph(n, p, seed)) for each distinct p in ps,
    highest p first, from one draw of the stream.

    The triples below the top density are kept in one buffer with a level
    each, the number of densities <= their float; the host at the r-th
    lowest density is the triples of level <= r. Each host is thinned from
    the previous one, so only the current host and the buffer it was cut
    from need be alive: drop a host before asking for the next. The hosts
    of a grid of two or more densities share one pair-level table, built
    on the first skeleton asked of any of them (`hypergraph._PairLevels`).
    Asking for the first host raises ValueError, before anything is drawn,
    for a p outside [0, 1], an n outside the range a host accepts, or a
    draw whose buffers would not fit in physical memory.
    """
    grid = sorted(set(ps))
    if not all(0 <= p <= 1 for p in grid):
        raise ValueError("triple probability must lie in [0, 1]")
    codes, level = _draw(n, np.array(grid), seed)
    shared = _PairLevels(n) if len(grid) > 1 else None
    try:
        for r in reversed(range(len(grid))):
            if r < len(grid) - 1:
                codes, level = _thinned(codes, level, r)
            if shared:
                shared.held = codes, level, r
            # no local names the host, so it dies when the caller drops it
            yield grid[r], Hypergraph3._from_codes(
                n, codes, levels=(shared, r) if shared else None)
    finally:
        if shared:
            shared.held = None


def _draw(n: int, grid: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes of the triples whose float is below the top of grid
    (ascending), and the level of each. The raw Philox words behind the
    floats are drawn in chunks of the lexicographic triple index, which is
    the same stream as one draw of C(n, 3) floats, and compared with the
    `_threshold` of each density, as `trial_bits` does: a word's float is
    below p exactly when the word is below _threshold(p), so no float is
    made. A chunk that would cross a first-vertex block end stops at the
    last one it reaches, so it is the tail of one block, whose kept indices
    are decoded by one gather from the pair codes, or a run of whole
    blocks, each index offset by its own block's entry. A large host is
    drawn in two halves (`_halves`), each into its own part of one buffer."""
    _check_vertex_count(n)
    top = grid[-1] if grid.size else 0.0
    # nothing is kept at density 0, so nothing is drawn
    total = comb(n, 3) if top > 0 else 0

    def bound(k: int) -> int:
        # all but a mean + _SIGMAS sd tail of the kept count of k triples
        return max(min(k, int(k * top + _SIGMAS * sqrt(k * top * (1 - top)))), 0)

    half = _half(total, 4)
    size = bound(half) + bound(total - half)
    level_dtype = np.min_scalar_type(grid.size)
    _check_memory(n, size * (np.dtype(code_dtype(n)).itemsize + level_dtype.itemsize))
    bc, ends = _pair_blocks(n)
    codes = np.empty(size, code_dtype(n))
    level = np.empty(size, level_dtype)
    cut = _threshold(top)
    below = [np.uint64(_threshold(g)) for g in grid[:-1]]
    streams = {0: generator(seed, _S_GNP3, n).bit_generator}
    if half < total:
        # copied before either half draws; word half starts Philox block half // 4
        streams[half] = copy(streams[0]).advance(half // 4)

    # index i of block a has code heads[a] + bc[i + offs[a]]
    offs = bc.size - np.array(ends, np.int64)
    heads = np.arange(len(ends), dtype=bc.dtype) * (n * n)

    def part(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        at, size = bound(lo), bound(hi - lo)
        out, out_level = codes[at:at + size], level[at:at + size]
        m, s = 0, lo
        while s < hi:
            a, e = bisect_right(ends, s), min(s + _DRAW_CHUNK, hi)
            if ends[a] < e < hi:
                # a chunk that leaves block a ends at the last block end it
                # reaches: it is a tail of block a or a run of whole blocks
                e = ends[bisect_right(ends, e) - 1]
            raw = streams[lo].random_raw(e - s)
            # at top = 1 the cut is 2^64, above every word: all are kept
            i = (np.arange(raw.size) if cut >> 64
                 else np.flatnonzero(raw < np.uint64(cut)))
            k = i.size
            if m + k > out.size:
                # a half that overflows its part grows a buffer of its own
                size = min(hi - lo, max(2 * out.size, m + k))
                out, out_level = (np.resize(out[:m], size),
                                  np.resize(out_level[:m], size))
            if ends[a] >= e:
                np.add(bc[i + (s + offs[a])], heads[a], out=out[m:m + k])
            else:
                # blocks a..b: each index takes its block's offset and head
                b = bisect_right(ends, e - 1)
                runs = np.diff(np.searchsorted(i, np.array([s, *ends[a:b], e]) - s))
                np.add(bc[i + np.repeat(offs[a:b + 1] + s, runs)],
                       np.repeat(heads[a:b + 1], runs), out=out[m:m + k])
            # a few comparisons beat a binary search per triple on a short grid
            lev = out_level[m:m + k]
            lev[:] = 0
            if below:
                kept = raw[i]
                for t in below:
                    lev += kept >= t
            m += k
            s = e
        return out[:m], out_level[:m]

    (first, first_level), *rest = _halves(part, total, 4)
    for second, second_level in rest:
        if first.base is not codes or second.base is not codes:
            return (np.concatenate((first, second)),
                    np.concatenate((first_level, second_level)))
        # moved down in place, so the kept codes are never held twice
        m, k = first.size, second.size
        codes[m:m + k], level[m:m + k] = second, second_level
        return codes[:m + k], level[:m + k]
    return first, first_level


def _thinned(codes: np.ndarray, level: np.ndarray,
             r: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of level <= r of both arrays. Gathering by positions is
    about 3x faster than boolean indexing at sweep densities; taking them a
    chunk at a time keeps the positions from costing as much as the result."""
    keep = level <= r
    size = np.count_nonzero(keep)
    thin_codes, thin_level = np.empty(size, codes.dtype), np.empty(size, level.dtype)
    m = 0
    for s in range(0, keep.size, _DRAW_CHUNK):
        at = np.flatnonzero(keep[s:s + _DRAW_CHUNK]) + s
        thin_codes[m:m + at.size] = codes[at]
        thin_level[m:m + at.size] = level[at]
        m += at.size
    return thin_codes, thin_level


def random_graph(n: int, p: float, seed: int) -> SkeletonGraph:
    """Binomial random graph on n vertices, deterministic per (n, seed)."""
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    [keep] = trial_bits(seed, (_S_GNP2, n), 1, comb(n, 2), p).tolist()
    edges = [e for e, k in zip(combinations(range(n), 2), keep) if k]
    return SkeletonGraph(range(n), edges)


def clique_pendant_graph(n: int) -> SkeletonGraph:
    """Clique on sqrt(n) vertices with the other n - sqrt(n) hung off vertex 0.

    n must be a perfect square, at least 4. Vertices 0..s-1 form the
    clique and every vertex s..n-1 is a pendant attached to vertex 0.
    """
    s = isqrt(n)
    if s * s != n or n < 4:
        raise ValueError("n must be a perfect square, at least 4")
    edges = list(combinations(range(s), 2))
    edges.extend((0, v) for v in range(s, n))
    return SkeletonGraph(range(n), edges)


def random_graph_corpus(count: int, seed: int):
    """Seeded corpus of binomial graphs spanning sparse to moderately dense.

    Yields (graph_id, graph) pairs. The vertex count is drawn from
    _CORPUS_N and the edge probability is c/n for a c drawn from
    _CORPUS_C, capped at 0.8, so large instances stay affordable for the
    audit loops while small ones get dense.
    """
    lo, hi = _CORPUS_N
    for i, gen in zip(range(count), streams(seed, _S_CORPUS)):
        n = int(gen.integers(lo, hi + 1))
        c = _CORPUS_C[int(gen.integers(0, len(_CORPUS_C)))]
        p = min(0.8, c / n)
        gid = f"gnp-{i:04d}-n{n}"
        yield gid, random_graph(n, p, seed=int(gen.integers(0, 2 ** 62)))
