"""Core 3-uniform hypergraph and graph types.

A :class:`Hypergraph3` is a vertex set {0..n-1} plus a set of unordered
vertex triples. A :class:`SkeletonGraph` is a plain simple graph; it is
used for 1-skeletons, link graphs, and link intersections. Both types
are immutable after construction and safe to share across concurrent
tasks: derived structures (adjacency tables, bitmask rows) are built
once in the constructor.

Vertex identifiers are dense non-negative integers; external labels are
mapped at the I/O boundary (see :mod:`diskcover.io`).
"""

from __future__ import annotations

from typing import Iterable, Iterator


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


class Hypergraph3:
    """An immutable 3-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "labels")

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
    the ambient hypergraph's identifiers. Adjacency is exposed both as
    per-vertex frozensets and as bitmask rows (`adj_mask`) for the
    flood-fill path searches used by the coverability estimators.
    """

    __slots__ = ("vertices", "edges", "adj", "adj_mask")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vset = frozenset(vertices)
        eset = frozenset(_canon_pair(e) for e in edges)
        adj: dict[int, set[int]] = {v: set() for v in sorted(vset)}
        for a, b in eset:
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a},{b}) touches a vertex outside the graph")
            adj[a].add(b)
            adj[b].add(a)
        self.vertices = vset
        self.edges = eset
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}
        masks: dict[int, int] = {}
        for v, ns in self.adj.items():
            m = 0
            for w in ns:
                m |= 1 << w
            masks[v] = m
        self.adj_mask = masks

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return _canon_pair((a, b)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SkeletonGraph)
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SkeletonGraph(n={self.n}, edges={len(self.edges)})"


def skeleton(H: Hypergraph3) -> SkeletonGraph:
    """The graph on V(H) whose edges are the pairs covered by some triple."""
    pairs = set()
    for a, b, c in H.edges:
        pairs.add((a, b))
        pairs.add((a, c))
        pairs.add((b, c))
    return SkeletonGraph(H.vertices, pairs)


def link(H: Hypergraph3, u: int) -> SkeletonGraph:
    """The link graph of u: edges vw with uvw a triple of H, on V(H) minus u."""
    if not 0 <= u < H.n:
        raise ValueError(f"vertex {u} not in hypergraph")
    pairs = []
    for t in H.edges:
        if u in t:
            pairs.append(tuple(x for x in t if x != u))
    return SkeletonGraph((v for v in H.vertices if v != u), pairs)


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
    pairs = []
    for t in H.edges:
        if v in t and vp not in t:
            w, wp = (x for x in t if x != v)
            if _canon_triple((vp, w, wp)) in H.edges:
                pairs.append((w, wp))
    return SkeletonGraph((x for x in H.vertices if x not in (v, vp)), pairs)


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
    common = set(G.adj[vlist[0]])
    for v in vlist[1:]:
        common &= G.adj[v]
    return common


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
