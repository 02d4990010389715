"""Pure 2-dimensional simplicial complexes and surface recognition.

A :class:`TwoComplex` stores only its triangle set; vertices, edges and
edge incidences are derived on each read, so every edge lies in at
least one triangle. The recognizer in :func:`classify` is
combinatorial, and each of its graph questions goes to one routine,
``_component_shapes``, which splits a graph into connected components
and calls each a cycle, a path or other:

* a complex is a surface with boundary when no edge lies in more than
  two triangles, its 1-skeleton is one component, and the link of every
  vertex (all links are built in one pass over the triangles) is one
  path or one cycle;
* a disk is such a surface whose boundary, the edges lying in exactly
  one triangle, is one cycle and whose Euler characteristic is 1;
* a closed surface has every edge in exactly two triangles and every
  vertex link a single cycle. Closed surfaces are then identified by
  the pair (Euler characteristic, orientability), orientable meaning
  that the orientation double cover has two components: (2, True) is
  the sphere, (0, True) the torus, (1, False) the projective plane.
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

    __slots__ = ("triangles",)

    def __init__(self, triangles: Iterable[Iterable[int]]):
        self.triangles = frozenset(_canon_triangle(t) for t in triangles)

    # everything else is derived on each read, not stored: a search keeps
    # many small disks alive at once, and a benchmark every certificate
    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for t in self.triangles for v in t)

    @property
    def edge_incidence(self) -> Counter:
        """Edge (a, b), a < b, to the number of triangles holding it."""
        return Counter(e for a, b, c in self.triangles
                       for e in ((a, b), (a, c), (b, c)))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edge_incidence)

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
        onb = {v for e in _boundary_edges(self.edge_incidence) for v in e}
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


def euler_characteristic(X: TwoComplex, incidence: Counter | None = None) -> int:
    """V - E + F, counting E from X's edge incidence if the caller has it."""
    if incidence is None:
        incidence = X.edge_incidence
    return len(X.vertices) - len(incidence) + len(X.triangles)


def _component_shapes(edges: Iterable[tuple[int, int]]) -> list[str]:
    """The shape of each connected component of a simple graph given by its
    edges: "cycle" (every degree 2), "path" (no degree above 2 and two
    ends) or "other"."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen: set[int] = set()
    shapes = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        ends = forks = 0
        while stack:
            nbrs = adj[stack.pop()]
            ends += len(nbrs) == 1
            forks += len(nbrs) > 2
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        shapes.append("other" if forks else "path" if ends else "cycle")
    return shapes


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


def _boundary_edges(incidence: dict[tuple[int, int], int]
                    ) -> frozenset[tuple[int, int]]:
    """The edges in exactly one triangle, given a complex's edge incidence."""
    return frozenset(e for e, k in incidence.items() if k == 1)


def boundary(X: TwoComplex) -> Boundary:
    """All edges in exactly one triangle and whether they form one simple cycle."""
    edges = _boundary_edges(X.edge_incidence)
    single = _component_shapes(edges) == ["cycle"]
    return Boundary(edges, single, _cycle_sequence(edges) if single else None)


def _orientable(X: TwoComplex) -> bool:
    """Whether a connected closed surface, every edge in exactly two
    triangles, is orientable: exactly when its orientation double cover
    has two components (Hatcher, Algebraic Topology, 2002, section 3.3).

    Triangle i > 0, a < b < c, has cover vertices +i, running ab and bc
    forward and ac backward, and -i, running them the other way. Each
    edge lists the sides x, y of its two triangles that run it forward;
    the cover joins x to -y and -x to y, the sides that run it oppositely.
    """
    runs: dict[tuple[int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(X.triangles, start=1):
        for e, side in (((a, b), i), ((b, c), i), ((a, c), -i)):
            runs.setdefault(e, []).append(side)
    cover = [edge for x, y in runs.values() for edge in ((x, -y), (-x, y))]
    return len(_component_shapes(cover)) == 2


def _vertex_links(X: TwoComplex) -> dict[int, list[tuple[int, int]]]:
    """Every vertex link in one pass over the triangles: the link of v has
    an edge joining the other two vertices of each triangle at v."""
    links: dict[int, list[tuple[int, int]]] = {v: [] for v in X.vertices}
    for a, b, c in X.triangles:
        links[a].append((b, c))
        links[b].append((a, c))
        links[c].append((a, b))
    return links


def classify(X: TwoComplex) -> Classification:
    """Recognize disks, closed surfaces, and surfaces with boundary."""
    if not X.triangles:
        raise ValueError("cannot classify an empty complex")
    incidence = X.edge_incidence
    euler = euler_characteristic(X, incidence)
    bd_edges = _boundary_edges(incidence)
    bd_shapes = _component_shapes(bd_edges)
    surface_like = (
        all(k <= 2 for k in incidence.values())
        and len(_component_shapes(incidence)) == 1
        and all(_component_shapes(lk) in (["path"], ["cycle"])
                for lk in _vertex_links(X).values())
    )
    if not surface_like:
        return Classification(OTHER, euler, None, len(bd_shapes))

    if not bd_edges:
        # every edge in exactly two triangles, every link a cycle
        return Classification(CLOSED_SURFACE, euler, _orientable(X), 0)

    if bd_shapes == ["cycle"] and euler == 1:
        return Classification(DISK, euler, None, 1)
    return Classification(SURFACE_WITH_BOUNDARY, euler, None, len(bd_shapes))


def orientability(X: TwoComplex) -> bool:
    """Orientability of a closed surface; raises on anything else."""
    c = classify(X)
    if c.kind != CLOSED_SURFACE:
        raise ValueError("orientability is defined here only for closed surfaces")
    return c.orientable


def is_boundary_inducing(X: TwoComplex) -> bool:
    """True iff this disk has >= 2 triangles and a chord-free boundary.

    Chord-free means every skeleton edge joining two boundary vertices
    is itself a boundary edge.
    """
    if classify(X).kind != DISK:
        raise ValueError("boundary-inducing is defined only for disks")
    incidence = X.edge_incidence
    return _chord_free(X, _boundary_edges(incidence), incidence)


def _chord_free(X: TwoComplex, bd_edges: frozenset[tuple[int, int]],
                incidence: dict[tuple[int, int], int]) -> bool:
    """For a disk X with this edge incidence and these boundary edges:
    >= 2 triangles and no chord."""
    if len(X.triangles) < 2:
        return False
    on_boundary = {v for e in bd_edges for v in e}
    return not any(a in on_boundary and b in on_boundary and (a, b) not in bd_edges
                   for a, b in incidence)
