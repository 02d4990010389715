"""Core 3-uniform hypergraph and graph types.

A :class:`Hypergraph3` is a vertex set {0..n-1} plus a set of unordered
vertex triples, stored as one sorted, duplicate-free int64 array
``H.codes`` of triple codes (a*n + b)*n + c with a < b < c, so the
codes ascend in the lexicographic order of the triples. A
:class:`SkeletonGraph` is a plain simple graph; it is used for
1-skeletons, link graphs, and link intersections. Both types are
immutable and safe to share across concurrent tasks. Derived views are
built on first use and kept: ``H.rows[u][w]``, the bitmask of w' with
uww' in H, which link, link intersection (O(n)) and skeleton AND or OR
together; ``H.edges``, the frozenset of triples as tuples, which no
search, sweep or verify path reads (a frozenset of 2 M tuples takes
seconds to build); and a graph's ``edges`` and ``adj``, derived from
``adj_mask``. Membership is a binary search in the codes. Pickling and
copying ship the stored form only (n, codes and labels; a graph's
``adj_mask``). At n = 800 and c = 2 a host holds 6 M triples: 48 MB of
codes, and 512 MB for the cube while its row table is built.

Vertex identifiers are dense non-negative integers; external labels are
mapped at the I/O boundary (see :mod:`diskcover.io`).
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from math import comb
from operator import or_
from typing import Iterable, Iterator

import numpy as np

# codes stay below n^3, which must fit in an int64
_MAX_N = 1 << 21


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


def _check_vertex_count(n: int) -> None:
    if not 0 <= n < _MAX_N:
        raise ValueError(f"vertex count must lie in 0..{_MAX_N - 1}")


def code_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """For each first vertex a, the pair (a*n^2, codes b*n + c of all b, c with
    a < b < c): the C(n-a-1, 2) triples of block a in lexicographic order.
    Raises ValueError for an n outside the range a host accepts."""
    _check_vertex_count(n)
    b, c = np.triu_indices(n, 1)
    bc = b * n + c
    for a in range(n - 2):
        yield a * n * n, bc[bc.size - comb(n - a - 1, 2):]


def _row_table(n: int, codes: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """rows[u][w] = mask of w' with uww' in H. A code is the flat index of its
    triple in an n^3 boolean cube; every orientation of every triple is
    scattered into the cube, 2^16 triples a step."""
    cube = np.zeros(n ** 3, dtype=bool)
    for s in range(0, codes.size, 1 << 16):
        a, bc = np.divmod(codes[s:s + (1 << 16)], n * n)
        for i, j, k in permutations((a, *np.divmod(bc, n))):
            cube[(i * n + j) * n + k] = True
    packed = np.packbits(cube.reshape(n * n, n), axis=1, bitorder="little")
    del cube
    ints = [int.from_bytes(r, "little") for r in packed]
    return tuple(tuple(ints[u * n:(u + 1) * n]) for u in range(n))


class Hypergraph3:
    """An immutable 3-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "codes", "labels", "edges", "rows")

    def __init__(self, n: int, triples: Iterable[Iterable[int]],
                 labels: tuple[str, ...] | None = None):
        _check_vertex_count(n)
        tris = [_canon_triple(t) for t in triples]
        for t in tris:
            if t[0] < 0 or t[2] >= n:
                raise ValueError(f"triple {t} outside vertex range 0..{n - 1}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count must equal vertex count")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        codes = np.array([(a * n + b) * n + c for a, b, c in tris], dtype=np.int64)
        self._set(n, np.unique(codes), labels)

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray,
                    labels: tuple[str, ...] | None = None) -> Hypergraph3:
        """The hypergraph with these codes, which must be sorted and distinct."""
        H = cls.__new__(cls)
        H._set(n, codes, labels)
        return H

    def _set(self, n: int, codes: np.ndarray, labels) -> None:
        codes.flags.writeable = False
        self.n, self.codes, self.labels = n, codes, labels

    def __reduce__(self):
        # ship the codes only, never the derived slots
        return (Hypergraph3._from_codes, (self.n, self.codes, self.labels))

    def __getattr__(self, name: str):
        # only reached while a derived slot is unset: fill it once
        if name == "rows":
            value = _row_table(self.n, self.codes)
        elif name == "edges":
            value = frozenset(zip(*self.triples().T.tolist()))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    @property
    def vertices(self) -> range:
        return range(self.n)

    def triples(self) -> np.ndarray:
        """The triples as rows a < b < c of an int64 array, lexicographically."""
        a, bc = np.divmod(self.codes, self.n * self.n)
        return np.stack((a, *np.divmod(bc, self.n)), axis=1)

    def has_triples(self, triples: Iterable[Iterable[int]]) -> np.ndarray:
        """Whether each triple, its vertices in any order, is one of H: a bool
        array from one batched binary search in the codes."""
        n = self.n
        want = np.array([(a * n + b) * n + c if 0 <= a < b < c < n else -1
                         for a, b, c in map(sorted, triples)], dtype=np.int64)
        if not self.codes.size:
            return np.zeros(want.size, dtype=bool)
        at = np.minimum(np.searchsorted(self.codes, want), self.codes.size - 1)
        return self.codes[at] == want

    def __contains__(self, triple: Iterable[int]) -> bool:
        return bool(self.has_triples((_canon_triple(triple),))[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph3) and self.n == other.n
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.n, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph3(n={self.n}, edges={self.codes.size})"

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

    def __reduce__(self):
        # ship the masks only, never the derived slots
        return (SkeletonGraph._from_masks, (self.adj_mask,))

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
    blocks = [base + bc for base, bc in code_blocks(n)]
    return Hypergraph3._from_codes(n, np.concatenate((np.empty(0, np.int64), *blocks)))


def iter_p2s(G: SkeletonGraph) -> Iterator[tuple[int, int, int]]:
    """Unlabeled length-2 paths (x, y, z) with x < z, each emitted once."""
    for y in sorted(G.vertices):
        ns = _bits(G.adj_mask[y])
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                yield (ns[i], y, ns[j])
