"""Seeded instance generators for experiments and audits."""

from __future__ import annotations

from itertools import combinations
from math import comb, isqrt, sqrt
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import Hypergraph3, SkeletonGraph, code_decoder, complete_hypergraph
from .rng import generator

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

# floats drawn per numpy step; any chunking reads the same stream
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
    from need be alive: drop a host before asking for the next. Asking for
    the first host raises ValueError, before anything is drawn, for a p
    outside [0, 1] or an n outside the range a host accepts.
    """
    grid = sorted(set(ps))
    if not all(0 <= p <= 1 for p in grid):
        raise ValueError("triple probability must lie in [0, 1]")
    codes, level = _draw(n, np.array(grid), seed)
    for r in reversed(range(len(grid))):
        if r < len(grid) - 1:
            codes, level = _thinned(codes, level, r)
        yield grid[r], Hypergraph3._from_codes(n, codes)


def _draw(n: int, grid: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes of the triples whose float is below the top of grid
    (ascending), and the level of each. The floats are drawn in chunks of
    the lexicographic triple index, which is the same stream as one draw
    of C(n, 3) floats; only the kept indices are decoded."""
    decode = code_decoder(n)
    top = grid[-1] if grid.size else 0.0
    # nothing is kept at density 0, so nothing is drawn
    total = comb(n, 3) if top > 0 else 0
    # sized for all but a mean + _SIGMAS sd tail of the kept count
    size = min(total, int(total * top + _SIGMAS * sqrt(total * top * (1 - top))))
    codes = np.empty(max(size, 0), np.int64)
    level = np.empty(codes.size, np.min_scalar_type(grid.size))
    m = 0
    gen = generator(seed, _S_GNP3, n)
    for s in range(0, total, _DRAW_CHUNK):
        x = gen.random(min(_DRAW_CHUNK, total - s))
        i = np.flatnonzero(x < top)
        if m + i.size > codes.size:
            size = min(total, max(2 * codes.size, m + i.size))
            codes, level = _grown(codes, m, size), _grown(level, m, size)
        codes[m:m + i.size] = decode(i + s)
        # a few comparisons beat a binary search per triple on a short grid
        lev = level[m:m + i.size]
        lev[:] = 0
        for g in grid[:-1]:
            lev += x[i] >= g
        m += i.size
    return codes[:m], level[:m]


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


def _grown(buf: np.ndarray, m: int, size: int) -> np.ndarray:
    out = np.empty(size, buf.dtype)
    out[:m] = buf[:m]
    return out


def random_graph(n: int, p: float, seed: int) -> SkeletonGraph:
    """Binomial random graph on n vertices, deterministic per (n, seed)."""
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    if p == 0:
        return SkeletonGraph(range(n), ())
    draws = generator(seed, _S_GNP2, n).random(comb(n, 2))
    keep = draws < p
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
    for i in range(count):
        gen = generator(seed, _S_CORPUS, i)
        n = int(gen.integers(lo, hi + 1))
        c = _CORPUS_C[int(gen.integers(0, len(_CORPUS_C)))]
        p = min(0.8, c / n)
        gid = f"gnp-{i:04d}-n{n}"
        yield gid, random_graph(n, p, seed=int(gen.integers(0, 2 ** 62)))
