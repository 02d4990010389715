"""Seeded instance generators for experiments and audits."""

from __future__ import annotations

from itertools import combinations
from math import comb, isqrt

import numpy as np

from .hypergraph import Hypergraph3, SkeletonGraph, code_blocks, complete_hypergraph
from .rng import generator

__all__ = [
    "random_hypergraph",
    "random_graph",
    "clique_pendant_graph",
    "random_graph_corpus",
    "complete_hypergraph",
]

_S_GNP3 = 0x33
_S_GNP2 = 0x32
_S_CORPUS = 0x3C


def random_hypergraph(n: int, p: float, seed: int) -> Hypergraph3:
    """Binomial random 3-uniform hypergraph: each triple kept with probability p.

    Deterministic per (n, seed); at a fixed seed the edge sets are
    nested in p (a triple kept at p stays kept at any larger p), which
    keeps threshold sweeps monotone up to sampling noise.
    """
    if not 0 <= p <= 1:
        raise ValueError("triple probability must lie in [0, 1]")
    if p == 0:
        return Hypergraph3(n, ())
    # one draw per triple in lexicographic order, taken a block at a time:
    # the same stream as one draw of C(n, 3) floats
    gen = generator(seed, _S_GNP3, n)
    kept = [base + bc[gen.random(bc.size) < p] for base, bc in code_blocks(n)]
    return Hypergraph3._from_codes(n, np.concatenate((np.empty(0, np.int64), *kept)))


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


def random_graph_corpus(count: int, seed: int,
                        n_range: tuple[int, int] = (10, 200),
                        c_choices: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)):
    """Seeded corpus of binomial graphs spanning sparse to moderately dense.

    Yields (graph_id, graph) pairs. Edge probability is c/n for a c
    drawn from c_choices, capped at 0.8, so large instances stay
    affordable for the audit loops while small ones get dense.
    """
    lo, hi = n_range
    if lo < 2 or hi < lo:
        raise ValueError("need 2 <= lo <= hi")
    for i in range(count):
        gen = generator(seed, _S_CORPUS, i)
        n = int(gen.integers(lo, hi + 1))
        c = c_choices[int(gen.integers(0, len(c_choices)))]
        p = min(0.8, c / n)
        gid = f"gnp-{i:04d}-n{n}"
        yield gid, random_graph(n, p, seed=int(gen.integers(0, 2 ** 62)))
