"""Core 3-uniform hypergraph and graph types.

A :class:`Hypergraph3` is a vertex set {0..n-1} plus a set of unordered
vertex triples, stored as one sorted, duplicate-free array ``H.codes``
of triple codes (a*n + b)*n + c with a < b < c, so the codes ascend in
the lexicographic order of the triples. Every code is below n^3, so
they are int32 while n^3 < 2^31 (n <= 1290) and int64 above
(`code_dtype`); every search in them uses keys of their dtype. A
:class:`SkeletonGraph` is a plain simple graph, built only where a graph
API is read: 1-skeletons and links (`link`). Both types are immutable
and safe to share across concurrent tasks. Membership is a binary search
in the codes, and the skeleton a scatter of the pairs of every code into
an n x n bool array, one per half of a large host (`_halves`), or, for
the hosts of one nested draw, a read of the one pair-level table they
share (`_PairLevels`). Derived
views are built on first use and kept: ``H.row(u)``, whose entry w is
the bitmask of w' with uww' in H, built from the triples through u
alone, which links read, and whose ANDs with another row are a link
intersection (O(n) once built); ``H.edges``, the frozenset of triples
as tuples, which no search, sweep or verify path reads; and a graph's
``edges`` and ``adj``, derived from ``adj_mask``.
A graph's ``vertices`` is a view of the keys of ``adj_mask``, not a
stored set. Pickling and copying ship the stored form only (n, codes
and labels; a graph's ``adj_mask``). At n = 800 and c = 2 a host holds
6 M triples: 24 MB of codes, 12 MB of compact last vertices once a row
is read, and 0.6 MB for each n x n array of a skeleton or row while it
is scattered.

Vertex identifiers are dense non-negative integers; external labels are
mapped at the I/O boundary (see :mod:`diskcover.io`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import accumulate, combinations
from math import comb
from operator import and_
from typing import Callable, Iterable, Iterator, KeysView

import numpy as np

from .rng import row_masks

# codes stay below n^3, which must fit in an int64
_MAX_N = 1 << 21
# codes scattered per numpy step, so temporaries stay a few MB
_CHUNK = 1 << 16
# items from which a pass over a host is run in two halves (`_halves`)
_SPLIT = 1 << 18


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
    """Positions of the set bits of m >= 0, ascending: one step per set bit,
    taking the lowest (m & -m) off, where a walk of the `bin()` string
    takes one step per bit up to the highest."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _check_vertex_count(n: int) -> None:
    if not 0 <= n < _MAX_N:
        raise ValueError(f"vertex count must lie in 0..{_MAX_N - 1}")


def _physical_memory() -> int:
    """This machine's physical memory, in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(n: int, nbytes: int) -> None:
    """Raise ValueError when an n-vertex host build would hold more than
    physical memory at its peak: `nbytes` of triple arrays plus its vertex
    pair tables, at most 32 bytes a pair. A build asks before it allocates
    anything, because past physical memory it is killed, not refused."""
    peak, total = nbytes + 32 * comb(n, 2), _physical_memory()
    if peak > total:
        raise ValueError(f"a host on {n} vertices needs about {peak / 1e9:.1f} "
                         f"GB at its peak, more than the {total / 1e9:.1f} GB "
                         "of physical memory")


def code_dtype(n: int) -> type:
    """The width of the triple codes of an n-vertex host: int32 while every
    code, below n^3, fits (n <= 1290), int64 above."""
    return np.int32 if n ** 3 < 1 << 31 else np.int64


def _pair_blocks(n: int) -> tuple[np.ndarray, list[int]]:
    """bc, the pair codes b*n + c (b < c) in lexicographic order and in
    code_dtype(n), and the ends of the first-vertex blocks of the
    lexicographic triple order: block a, the C(n-a-1, 2) triples with first
    vertex a, ends at ends[a], and its pairs are the tail of bc, so its
    triple index i has code a*n^2 + bc[i + bc.size - ends[a]]."""
    b, c = np.triu_indices(n, 1)
    ends = list(accumulate(comb(n - a - 1, 2) for a in range(n - 2)))
    return (b * n + c).astype(code_dtype(n)), ends


def _half(total: int, step: int = 1) -> int:
    """Where `_halves` cuts [0, total): a multiple of step, or total."""
    return total if total < _SPLIT else total // 2 // step * step


def _halves(part: Callable[[int, int], object], total: int, step: int = 1) -> list:
    """[part(0, half), part(half, total)], the second on a short-lived worker
    thread, or [part(0, total)] below _SPLIT items. A part writes no array
    slice the other reads or writes, and calls no shared Philox and nothing
    `perfbench/tracer.py` wraps (its one span stack assumes one thread)."""
    half = _half(total, step)
    if half == total:
        return [part(0, total)]
    with ThreadPoolExecutor(1) as worker:
        later = worker.submit(part, half, total)
        return [part(0, half), later.result()]


def _last_vertices(n: int, codes: np.ndarray) -> np.ndarray:
    """The last vertex c of every code, as int16 while every vertex fits."""
    last = np.empty(codes.size, dtype=np.int16 if n <= 1 << 15 else np.int32)
    for s in range(0, codes.size, _CHUNK):
        # c = code - n * (code // n), in a chunk-size buffer, not a host-size one
        c = codes[s:s + _CHUNK] // n
        c *= -n
        c += codes[s:s + _CHUNK]
        last[s:s + c.size] = c
    return last


def _link_row(n: int, codes: np.ndarray, last: np.ndarray, u: int) -> tuple[int, ...]:
    """Entry w is the mask of w' with uww' in H. Triples with u first are one
    run of codes, with u second one run per smaller first vertex, and with
    u last are found by a scan of the last vertices before the first run."""
    nn = n * n
    # keys of the codes' own dtype, so no search casts the whole host
    lo, hi = np.searchsorted(codes, np.array((u * nn, (u + 1) * nn), codes.dtype))
    base = np.arange(u, dtype=codes.dtype) * nn + u * n
    start, stop = np.searchsorted(codes, base), np.searchsorted(codes, base + n)
    runs = stop - start
    # the positions of every second-vertex run, one after another
    mid = codes[np.repeat(start - np.cumsum(runs) + runs, runs) + np.arange(runs.sum())]
    # the flat index x*n + y, x < y, of the other two vertices of each triple
    pairs = np.concatenate((codes[lo:hi] - u * nn,
                            mid // nn * n + mid % n,
                            codes[np.flatnonzero(last[:lo] == u)] // n))
    adj = np.zeros(nn, dtype=bool)
    adj[pairs] = True
    adj[pairs % n * n + pairs // n] = True
    return tuple(row_masks(adj.reshape(n, n)))


def _triple_codes(n: int, x, y, w, dtype: type) -> np.ndarray:
    """The codes of {x, y, w} in dtype, for vertices x, y and w broadcast
    together (with x, y columns of pairs and w = arange(n), every xyw of
    each pair): the least, the sum less least and most, and the most. A
    repeated vertex repeats a digit, which gives the code of no triple."""
    x, y, w = (np.asarray(v, dtype) for v in (x, y, w))
    a, c = np.minimum(np.minimum(x, y), w), np.maximum(np.maximum(x, y), w)
    return (a * n + (x + y + w - a - c)) * n + c


def _search(codes: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each key, in the codes' dtype so no search casts the host,
    lies in the sorted codes, clamped to the last code, and whether it is
    that code: one batched binary search."""
    if not codes.size:
        return np.zeros(keys.shape, np.intp), np.zeros(keys.shape, bool)
    at = np.minimum(np.searchsorted(codes, keys), codes.size - 1)
    return at, codes[at] == keys


class Hypergraph3:
    """An immutable 3-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "codes", "labels", "edges", "_rows", "_last", "_levels")

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
                    labels: tuple[str, ...] | None = None,
                    levels: tuple[_PairLevels, int] | None = None) -> Hypergraph3:
        """The hypergraph with these codes, which must be sorted and distinct;
        they are stored in code_dtype(n), whatever their integer dtype. A host
        of a nested draw passes its draw's table and its level (`skeleton`)."""
        H = cls.__new__(cls)
        H._set(n, codes, labels)
        H._levels = levels
        return H

    def _set(self, n: int, codes: np.ndarray, labels) -> None:
        codes = codes.astype(code_dtype(n), copy=False)
        codes.flags.writeable = False
        self.n, self.codes, self.labels = n, codes, labels

    def __reduce__(self):
        # ship the codes only, never the derived slots
        return (Hypergraph3._from_codes, (self.n, self.codes, self.labels))

    def __getattr__(self, name: str):
        # only reached while a derived slot is unset: fill it once
        if name == "_rows":
            value = {}
        elif name == "_last":
            value = _last_vertices(self.n, self.codes)
        elif name == "_levels":
            value = None
        elif name == "edges":
            value = frozenset(zip(*self.triples().T.tolist()))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    @property
    def vertices(self) -> range:
        return range(self.n)

    def row(self, u: int) -> tuple[int, ...]:
        """Entry w is the bitmask of the w' with uww' a triple of H. Built
        from the codes on the first read of u, then kept on the host; only
        that first read checks that u is a vertex."""
        r = self._rows.get(u)
        if r is None:
            if not 0 <= u < self.n:
                raise ValueError(f"vertex {u} not in hypergraph")
            r = self._rows[u] = _link_row(self.n, self.codes, self._last, int(u))
        return r

    def triples(self) -> np.ndarray:
        """The triples as rows a < b < c of an int64 array, lexicographically."""
        a, bc = np.divmod(self.codes, self.n * self.n)
        return np.stack((a, *np.divmod(bc, self.n)), axis=1, dtype=np.int64)

    def has_triples(self, triples) -> np.ndarray:
        """Whether each triple of an int array of shape (..., 3), its
        vertices in any order, is one of H: a bool array of shape (...),
        from one batched binary search in the codes. A triple with a
        repeated vertex, or one outside 0..n-1 (however large), is not."""
        n, t = self.n, np.asarray(triples)
        # rows of one 2-d array, so no step below meets a numpy scalar
        flat = t.reshape(-1, 3)
        inside = (0 <= flat) & (flat < n)
        ok = inside[:, 0] & inside[:, 1] & inside[:, 2]
        # a vertex outside V(H) may be huge: encode the checked triples only
        _, hit = _search(self.codes, _triple_codes(
            n, *np.where(ok, flat.T, 0), self.codes.dtype))
        return (ok & hit).reshape(t.shape[:-1])

    def __contains__(self, triple: Iterable[int]) -> bool:
        return bool(self.has_triples(_canon_triple(triple)))

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
    rows (`adj_mask`, keyed by the vertices in ascending order), which
    the flood-fill path searches read; `vertices` is a view of its keys,
    and the edge set and per-vertex neighbour sets (`adj`) are derived
    on first use.
    """

    __slots__ = ("edges", "adj", "adj_mask")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        masks = dict.fromkeys(sorted(set(vertices)), 0)
        for e in edges:
            a, b = _canon_pair(e)
            if a not in masks or b not in masks:
                raise ValueError(f"edge ({a},{b}) touches a vertex outside the graph")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.adj_mask = masks

    @classmethod
    def _from_masks(cls, masks: dict[int, int]) -> SkeletonGraph:
        """The graph on the keys of masks, which ascend, with these rows."""
        G = cls.__new__(cls)
        G.adj_mask = masks
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
    def vertices(self) -> KeysView[int]:
        """The vertex set, ascending: a read-only view of the keys of adj_mask."""
        return self.adj_mask.keys()

    @property
    def n(self) -> int:
        return len(self.adj_mask)

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    def edge_count(self) -> int:
        """The number of edges, counted from the rows without building them."""
        return sum(m.bit_count() for m in self.adj_mask.values()) // 2

    def has_edge(self, a: int, b: int) -> bool:
        a, b = _canon_pair((a, b))
        return a in self.adj_mask and (self.adj_mask[a] >> b) & 1 == 1

    def __eq__(self, other) -> bool:
        # adj_mask is keyed by the vertex set, so it decides equality alone
        return isinstance(other, SkeletonGraph) and self.adj_mask == other.adj_mask

    def __hash__(self) -> int:
        return hash(frozenset(self.adj_mask.items()))

    def __repr__(self) -> str:
        return f"SkeletonGraph(n={self.n}, edges={self.edge_count()})"


def _scatter(adj: np.ndarray, code: np.ndarray, n: int) -> None:
    """Set the flat n x n bool array adj at a*n + b, b*n + c and a*n + c for
    each code of an int64 array (numpy converts every int32 index array it
    is given, so the codes are widened once)."""
    ab = code // n
    a = ab // n
    adj[ab] = True
    adj[code - a * (n * n)] = True
    adj[a * n + code - ab * n] = True


def skeleton(H: Hypergraph3) -> SkeletonGraph:
    """The graph on V(H) whose edges are the pairs covered by some triple:
    read off the pair-level table of H's draw when it has one
    (`_PairLevels`), else scattered from the codes."""
    n = H.n
    adj = H._levels[0].adjacency(H._levels[1]) if H._levels else None
    if adj is None:
        def part(lo: int, hi: int) -> np.ndarray:
            adj = np.zeros(n * n, dtype=bool)
            for s in range(lo, hi, _CHUNK):
                _scatter(adj, H.codes[s:min(s + _CHUNK, hi)].astype(np.int64), n)
            return adj

        adj = reduce(np.logical_or, _halves(part, H.codes.size)).reshape(n, n)
        adj |= adj.T
    return SkeletonGraph._from_masks(dict(enumerate(row_masks(adj))))


class _PairLevels:
    """The skeletons of the nested hosts of one multi-density draw, read
    off one n x n table whose entry (x, y) is the least level of a drawn
    triple holding x and y: the host at level r has the pairs of entry <= r.

    The draw hands over the codes and levels it holds, with their top
    level, at every host it yields (`held`), and takes them back when it
    ends. The table is built from them on the first skeleton asked of a
    host they cover, so a draw whose hosts ask for none builds nothing,
    and a host asked after the draw has thinned past it gets None (its
    own scatter). The table is n^2 bytes, kept while a host holds it.
    """

    __slots__ = ("n", "held", "table", "top")

    def __init__(self, n: int):
        self.n, self.held, self.table, self.top = n, None, None, -1

    def adjacency(self, r: int) -> np.ndarray | None:
        """The n x n bool skeleton of the host at level r, or None."""
        if self.table is None and self.held is not None and r <= self.held[2]:
            codes, level, self.top = self.held
            self.table = _pair_levels(self.n, codes, level, self.top)
        return self.table <= r if r <= self.top else None


def _pair_levels(n: int, codes: np.ndarray, level: np.ndarray,
                 top: int) -> np.ndarray:
    """The symmetric n x n table whose entry (x, y) is the least level[i]
    of a codes[i] holding x and y, or top + 1 where none does.

    The level-0 triples are scattered. Then at each denser level r, the
    pairs still unset are either looked up in the codes, n - 2 keys a
    pair, which settles every level at once, or, when that asks for more
    keys than level r has triples, level r's own triples are scattered.
    Every pass goes a chunk at a time, so no temporary is host-size.
    """
    unset = top + 1
    table = np.full(n * n, unset, level.dtype)
    for r in range(unset):
        x, y = np.nonzero(np.triu(table.reshape(n, n) == unset, 1))
        if r and x.size * (n - 2) <= sum(
                np.count_nonzero(level[s:s + _CHUNK] == r)
                for s in range(0, level.size, _CHUNK)):
            _look_up_levels(table, n, codes, level, x, y, unset)
            break
        hit = np.zeros(n * n, dtype=bool)
        for s in range(0, codes.size, _CHUNK):
            # positions, not a bool mask: a gather by them is 3x faster
            at = np.flatnonzero(level[s:s + _CHUNK] == r) + s
            _scatter(hit, codes[at].astype(np.int64), n)
        table[hit & (table == unset)] = r
    table = table.reshape(n, n)
    return np.minimum(table, table.T)


def _look_up_levels(table: np.ndarray, n: int, codes: np.ndarray,
                    level: np.ndarray, x: np.ndarray, y: np.ndarray,
                    unset: int) -> None:
    """Set table[x*n + y] to the least level of a code holding x < y, or
    to unset where none does, by one binary search in the codes for each
    triple xyw, a few pairs at a time."""
    if not codes.size:
        return
    w, rows = np.arange(n), max(1, _CHUNK // n)
    for s in range(0, x.size, rows):
        px, py = x[s:s + rows], y[s:s + rows]
        at, hit = _search(codes, _triple_codes(n, px[:, None], py[:, None],
                                               w, codes.dtype))
        table[px * n + py] = np.where(hit, level[at], unset).min(axis=1)


def link_intersection(H: Hypergraph3, v: int, vp: int) -> list[int]:
    """The rows of LI(v, vp), the common link of v and vp, over all of
    V(H): entry x is the mask row(v)[x] & row(vp)[x] of the w with vxw and
    v'xw triples of H.

    No triple repeats a vertex, so entries v and vp are 0 and no entry
    holds bit v or bit vp: a path search over these rows never reaches
    an apex.
    """
    if v == vp:
        raise ValueError("link intersection requires two distinct vertices")
    return list(map(and_, H.row(v), H.row(vp)))


def pair_masks(H: Hypergraph3, pairs: list[tuple[int, int]]) -> list[int]:
    """Entry i is the mask of the w with x y w a triple of H, for the i-th
    pair (x, y) of distinct vertices: row(x)[y], read off a row the host
    already keeps, else from one batched binary search in the codes for
    the n triples xyw of every other pair, so no row is built."""
    rows = H._rows
    masks = [rows[x][y] if x in rows else rows[y][x] if y in rows else None
             for x, y in pairs]
    todo = [p for p, m in zip(pairs, masks) if m is None]
    if todo:
        x, y = np.array(todo).T[..., None]
        _, hit = _search(H.codes, _triple_codes(H.n, x, y, np.arange(H.n),
                                                H.codes.dtype))
        found = iter(row_masks(hit))
        masks = [next(found) if m is None else m for m in masks]
    return masks


def link(H: Hypergraph3, *vs: int) -> SkeletonGraph:
    """The graph of edges ww' with vww' a triple of H for every v of vs, on
    V(H) minus vs: link(H, u) is the link graph of u, and link(H, v, v')
    that of their link intersection."""
    masks = dict(enumerate(H.row(*vs) if len(vs) == 1
                           else link_intersection(H, *vs)))
    for v in vs:
        del masks[v]
    return SkeletonGraph._from_masks(masks)


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
    """All C(n,3) triples on n vertices. Raises ValueError for an n outside
    the range a host accepts or a host larger than physical memory."""
    _check_vertex_count(n)
    # the blocks and their concatenation each hold every code
    _check_memory(n, 2 * comb(n, 3) * np.dtype(code_dtype(n)).itemsize)
    # built in the stored width, so no int64 copy of the host is made
    bc, ends = _pair_blocks(n)
    blocks = [a * n * n + bc[bc.size - end + start:]
              for a, (start, end) in enumerate(zip([0, *ends], ends))]
    return Hypergraph3._from_codes(n, np.concatenate((np.empty(0, bc.dtype), *blocks)))


def iter_p2s(G: SkeletonGraph) -> Iterator[tuple[int, int, int]]:
    """Unlabeled length-2 paths (x, y, z) with x < z, each emitted once."""
    for y, m in G.adj_mask.items():
        for x, z in combinations(_bits(m), 2):
            yield (x, y, z)
