"""Core 3-uniform hypergraph and graph types.

A :class:`Hypergraph3` is a vertex set {0..n-1} plus a set of unordered
vertex triples. A :class:`SkeletonGraph` is a plain simple graph; it is
used for 1-skeletons, link graphs, and link intersections. Both types
are immutable and safe to share across concurrent tasks. Derived views
are built on first use and kept: ``H.rows[u][w]``, the bitmask of w' with
uww' in H, which link, link intersection (O(n)) and skeleton AND or OR
together; and a graph's ``edges`` and ``adj``, derived from ``adj_mask``.

Vertex identifiers are dense non-negative integers; external labels are
mapped at the I/O boundary (see :mod:`diskcover.io`).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, islice, permutations
from operator import or_
from typing import Iterable, Iterator

import numpy as np


def _canon_triple(t: Iterable[int]) -> tuple[int, int, int]:
    a, b, c = sorted(t)
    if a == b or b == c:
        raise ValueError(f"triple {tuple(t)!r} has repeated vertices")
    return (a, b, c)


def _canon_pair(e: Iterable[int]) -> tuple[int, int]:
    a, b = sorted(e)
    if a == b:
        raise ValueError(f"edge {tuple(e)!r} is a loop")
    return (a, b)


def _bits(m: int) -> list[int]:
    """Positions of the set bits of m >= 0, ascending."""
    return [i for i, c in enumerate(reversed(bin(m))) if c == "1"]


def _row_table(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """rows[u][w] = mask of w' with uww' in edges, via an n^3 boolean cube that
    every orientation of every triple is scattered into, 2^15 triples a step."""
    cube = np.zeros((n, n, n), dtype=bool)
    flat = chain.from_iterable(edges)
    while (tri := np.fromiter(islice(flat, 3 << 15), np.intp)).size:
        for i, j, k in permutations(range(3)):
            cube[tri[i::3], tri[j::3], tri[k::3]] = True
    packed = np.packbits(cube, axis=2, bitorder="little")
    del cube
    ints = [int.from_bytes(r, "little") for r in packed.reshape(n * n, (n + 7) // 8)]
    return tuple(tuple(ints[u * n:(u + 1) * n]) for u in range(n))


class Hypergraph3:
    """An immutable 3-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "labels", "rows")

    def __init__(self, n: int, triples: Iterable[Iterable[int]],
                 labels: tuple[str, ...] | None = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = frozenset(_canon_triple(t) for t in triples)
        for t in edges:
            if t[0] < 0 or t[2] >= n:
                raise ValueError(f"triple {t} outside vertex range 0..{n - 1}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count must equal vertex count")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        self.n = n
        self.edges = edges
        self.labels = labels

    def __getattr__(self, name: str):
        # only reached while the `rows` slot is unset: build it once
        if name != "rows":
            raise AttributeError(name)
        self.rows = _row_table(self.n, self.edges)
        return self.rows

    @property
    def vertices(self) -> range:
        return range(self.n)

    def __contains__(self, triple: Iterable[int]) -> bool:
        return _canon_triple(triple) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph3)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, edges={len(self.edges)})"

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


class SkeletonGraph:
    """An immutable simple graph on integer vertices.

    The vertex set need not be dense: links and link intersections keep
    the ambient hypergraph's identifiers. Adjacency is stored as bitmask
    rows (`adj_mask`), which the flood-fill path searches read; the edge
    set and per-vertex neighbour sets (`adj`) are derived on first use.
    """

    __slots__ = ("vertices", "edges", "adj", "adj_mask")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vset = frozenset(vertices)
        masks = dict.fromkeys(sorted(vset), 0)
        for e in edges:
            a, b = _canon_pair(e)
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a},{b}) touches a vertex outside the graph")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.vertices = vset
        self.adj_mask = masks

    @classmethod
    def _from_masks(cls, masks: dict[int, int]) -> SkeletonGraph:
        """The graph on the keys of masks, which ascend, with these rows."""
        G = cls.__new__(cls)
        G.vertices, G.adj_mask = frozenset(masks), masks
        return G

    def __getattr__(self, name: str):
        # only reached while a derived slot is unset: fill it once
        if name == "edges":
            value = frozenset((a, b) for a, m in self.adj_mask.items()
                              for b in _bits(m >> (a + 1) << (a + 1)))
        elif name == "adj":
            value = {v: frozenset(_bits(m)) for v, m in self.adj_mask.items()}
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        a, b = _canon_pair((a, b))
        return a in self.adj_mask and (self.adj_mask[a] >> b) & 1 == 1

    def __eq__(self, other) -> bool:
        # adj_mask is keyed by the vertex set, so it decides equality alone
        return isinstance(other, SkeletonGraph) and self.adj_mask == other.adj_mask

    def __hash__(self) -> int:
        return hash(frozenset(self.adj_mask.items()))

    def __repr__(self) -> str:
        return f"SkeletonGraph(n={self.n}, edges={len(self.edges)})"


def skeleton(H: Hypergraph3) -> SkeletonGraph:
    """The graph on V(H) whose edges are the pairs covered by some triple."""
    return SkeletonGraph._from_masks({u: reduce(or_, r, 0)
                                      for u, r in enumerate(H.rows)})


def link(H: Hypergraph3, u: int) -> SkeletonGraph:
    """The link graph of u: edges vw with uvw a triple of H, on V(H) minus u."""
    if not 0 <= u < H.n:
        raise ValueError(f"vertex {u} not in hypergraph")
    row = H.rows[u]
    return SkeletonGraph._from_masks({w: row[w] for w in H.vertices if w != u})


def link_intersection(H: Hypergraph3, v: int, vp: int) -> SkeletonGraph:
    """The common link of v and vp on V(H) minus both.

    Edge ww' is present iff both vww' and v'ww' are triples of H. Both
    query vertices are excluded from the vertex set, so paths found here
    automatically avoid the apexes of any pyramid built over them.
    """
    if v == vp:
        raise ValueError("link intersection requires two distinct vertices")
    for x in (v, vp):
        if not 0 <= x < H.n:
            raise ValueError(f"vertex {x} not in hypergraph")
    rv, rvp = H.rows[v], H.rows[vp]
    return SkeletonGraph._from_masks(
        {w: rv[w] & rvp[w] for w in H.vertices if w != v and w != vp})


def common_neighborhood(G: SkeletonGraph, vs: Iterable[int]) -> set[int]:
    """Vertices adjacent to every vertex of vs; len() of this is the codegree."""
    vlist = list(vs)
    if len(set(vlist)) != len(vlist):
        raise ValueError("query vertices must be distinct")
    for v in vlist:
        if v not in G.vertices:
            raise ValueError(f"vertex {v} not in graph")
    if not vlist:
        return set(G.vertices)
    common = G.adj_mask[vlist[0]]
    for v in vlist[1:]:
        common &= G.adj_mask[v]
    return set(_bits(common))


def codegree(G: SkeletonGraph, vs: Iterable[int]) -> int:
    return len(common_neighborhood(G, vs))


def complete_hypergraph(n: int) -> Hypergraph3:
    """All C(n,3) triples on n vertices."""
    from itertools import combinations
    return Hypergraph3(n, combinations(range(n), 3))


def iter_p2s(G: SkeletonGraph) -> Iterator[tuple[int, int, int]]:
    """Unlabeled length-2 paths (x, y, z) with x < z, each emitted once."""
    for y in sorted(G.vertices):
        ns = sorted(G.adj[y])
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                yield (ns[i], y, ns[j])
