"""Pure 2-dimensional simplicial complexes and surface recognition.

A :class:`TwoComplex` is given by its triangle set; vertices and edges
are derived, so every edge lies in at least one triangle. The
recognizer in :func:`classify` is combinatorial:

* a complex is a surface with boundary when it is connected, no edge
  lies in more than two triangles, and the link of every vertex is a
  single simple path or a single simple cycle;
* a disk is such a surface whose boundary is one simple cycle and whose
  Euler characteristic is 1;
* a closed surface has every edge in exactly two triangles and every
  vertex link a single cycle. Closed surfaces are then identified by
  the pair (Euler characteristic, orientability): (2, True) is the
  sphere, (0, True) the torus, (1, False) the projective plane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

DISK = "Disk"
CLOSED_SURFACE = "ClosedSurface"
SURFACE_WITH_BOUNDARY = "SurfaceWithBoundary"
OTHER = "Other"


def _canon_triangle(t: Iterable[int]) -> tuple[int, int, int]:
    a, b, c = sorted(t)
    if a == b or b == c:
        raise ValueError(f"triangle {tuple(t)!r} has repeated vertices")
    return (a, b, c)


class TwoComplex:
    """An immutable pure 2-complex described by its triangles."""

    __slots__ = ("triangles", "vertices", "edges", "edge_incidence")

    def __init__(self, triangles: Iterable[Iterable[int]]):
        tris = frozenset(_canon_triangle(t) for t in triangles)
        incidence: Counter = Counter()
        verts = set()
        for a, b, c in tris:
            verts.update((a, b, c))
            incidence[(a, b)] += 1
            incidence[(a, c)] += 1
            incidence[(b, c)] += 1
        self.triangles = tris
        self.vertices = frozenset(verts)
        self.edges = frozenset(incidence)
        self.edge_incidence = dict(incidence)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoComplex) and self.triangles == other.triangles

    def __hash__(self) -> int:
        return hash(self.triangles)

    def __len__(self) -> int:
        return len(self.triangles)

    def __repr__(self) -> str:
        return f"TwoComplex(triangles={len(self.triangles)})"

    def union(self, other: "TwoComplex") -> "TwoComplex":
        return TwoComplex(self.triangles | other.triangles)

    def interior_vertices(self) -> frozenset[int]:
        """Vertices not on any boundary edge."""
        onb = {v for e in boundary(self).edges for v in e}
        return self.vertices - onb


@dataclass(frozen=True)
class Boundary:
    """Edges lying in exactly one triangle, plus cycle structure."""

    edges: frozenset[tuple[int, int]]
    is_single_cycle: bool
    cycle: tuple[int, ...] | None


@dataclass(frozen=True)
class Classification:
    kind: str
    euler: int
    orientable: bool | None
    boundary_components: int


def euler_characteristic(X: TwoComplex) -> int:
    return len(X.vertices) - len(X.edges) + len(X.triangles)


def _trace_cycles(edges: frozenset[tuple[int, int]]):
    """Split a set of edges into components; report whether each is a simple cycle."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen: set[int] = set()
    components = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        n_edges = sum(len(adj[v]) for v in comp) // 2
        is_cycle = all(len(adj[v]) == 2 for v in comp) and n_edges == len(comp)
        components.append((comp, is_cycle))
    return components


def _cycle_sequence(edges: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Canonical vertex order of a single simple cycle (min start, min successor)."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    seq = [start, min(adj[start])]
    while len(seq) < len(adj):
        nxt = [w for w in adj[seq[-1]] if w != seq[-2]]
        seq.append(nxt[0])
    return tuple(seq)


def boundary(X: TwoComplex) -> Boundary:
    """All edges in exactly one triangle and whether they form one simple cycle."""
    edges = frozenset(e for e, k in X.edge_incidence.items() if k == 1)
    if not edges:
        return Boundary(edges, False, None)
    comps = _trace_cycles(edges)
    single = len(comps) == 1 and comps[0][1]
    return Boundary(edges, single, _cycle_sequence(edges) if single else None)


def _vertex_link_shape(X: TwoComplex, v: int) -> str:
    """'path', 'cycle', or 'other' for the link of v.

    The link graph has an edge for each triangle containing v, joining
    the triangle's other two vertices.
    """
    deg: Counter = Counter()
    ends = 0
    for t in X.triangles:
        if v in t:
            a, b = (x for x in t if x != v)
            deg[a] += 1
            deg[b] += 1
    if not deg:
        return "other"
    if any(d > 2 for d in deg.values()):
        return "other"
    link_edges = frozenset(
        tuple(sorted(x for x in t if x != v)) for t in X.triangles if v in t
    )
    comps = _trace_cycles(link_edges)
    if len(comps) != 1:
        return "other"
    ends = sum(1 for d in deg.values() if d == 1)
    if ends == 0:
        return "cycle" if comps[0][1] else "other"
    return "path" if ends == 2 else "other"


def _is_connected(X: TwoComplex) -> bool:
    if not X.vertices:
        return False
    adj: dict[int, set[int]] = {v: set() for v in X.vertices}
    for a, b in X.edges:
        adj[a].add(b)
        adj[b].add(a)
    start = next(iter(X.vertices))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(X.vertices)


def _orientable(X: TwoComplex) -> bool:
    """Propagate triangle orientations across shared edges; check consistency.

    Assumes every edge lies in at most two triangles and the complex is
    connected through triangle adjacencies.
    """
    tris = sorted(X.triangles)
    index = {t: i for i, t in enumerate(tris)}
    by_edge: dict[tuple[int, int], list[int]] = {}
    for t in tris:
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            by_edge.setdefault(e, []).append(index[t])

    # orientation[i] is a cyclic vertex order for triangle i
    orientation: dict[int, tuple[int, int, int]] = {}

    def directed_edges(order):
        a, b, c = order
        return {(a, b), (b, c), (c, a)}

    for seed in range(len(tris)):
        if seed in orientation:
            continue
        orientation[seed] = tris[seed]
        stack = [seed]
        while stack:
            i = stack.pop()
            dir_i = directed_edges(orientation[i])
            a, b, c = tris[i]
            for e in ((a, b), (a, c), (b, c)):
                for j in by_edge[e]:
                    if j == i:
                        continue
                    u, w = e
                    # i traverses e one way; j must traverse it the other way
                    need = (w, u) if (u, w) in dir_i else (u, w)
                    x = next(x for x in tris[j] if x not in e)
                    want = (need[0], need[1], x)
                    if j in orientation:
                        if need not in directed_edges(orientation[j]):
                            return False
                    else:
                        orientation[j] = want
                        stack.append(j)
    return True


def classify(X: TwoComplex) -> Classification:
    """Recognize disks, closed surfaces, and surfaces with boundary."""
    if not X.triangles:
        raise ValueError("cannot classify an empty complex")
    euler = euler_characteristic(X)
    bd = boundary(X)
    bd_comps = _trace_cycles(bd.edges) if bd.edges else []
    n_bd = len(bd_comps)

    surface_like = (
        _is_connected(X)
        and all(k <= 2 for k in X.edge_incidence.values())
        and all(_vertex_link_shape(X, v) in ("path", "cycle") for v in X.vertices)
    )
    if not surface_like:
        return Classification(OTHER, euler, None, n_bd)

    if not bd.edges:
        # every edge in exactly two triangles, every link a cycle
        return Classification(CLOSED_SURFACE, euler, _orientable(X), 0)

    if bd.is_single_cycle and euler == 1:
        return Classification(DISK, euler, None, 1)
    return Classification(SURFACE_WITH_BOUNDARY, euler, None, n_bd)


def orientability(X: TwoComplex) -> bool:
    """Orientability of a closed surface; raises on anything else."""
    if classify(X).kind != CLOSED_SURFACE:
        raise ValueError("orientability is defined here only for closed surfaces")
    return _orientable(X)


def is_boundary_inducing(X: TwoComplex) -> bool:
    """True iff this disk has >= 2 triangles and a chord-free boundary.

    Chord-free means every skeleton edge joining two boundary vertices
    is itself a boundary edge.
    """
    c = classify(X)
    if c.kind != DISK:
        raise ValueError("boundary-inducing is defined only for disks")
    if len(X.triangles) < 2:
        return False
    bd = boundary(X)
    on_boundary = {v for e in bd.edges for v in e}
    for e in X.edges:
        if e[0] in on_boundary and e[1] in on_boundary and e not in bd.edges:
            return False
    return True
