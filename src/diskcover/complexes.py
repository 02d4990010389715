"""Pure 2-dimensional simplicial complexes and surface recognition.

A :class:`TwoComplex` stores only its triangle set; vertices, edges and
edge incidences are derived on each read, so every edge lies in at
least one triangle. The recognizer in :func:`classify` is
combinatorial, and each of its graph questions is a count of connected
components by one union-find, ``_components``:

* a complex is a surface with boundary when no edge lies in more than
  two triangles, its 1-skeleton is one component, and its link corners
  make one component per vertex. Corner (v, w) stands for w in the link
  of v, and each triangle joins its two corners at each of its
  vertices. With every edge in at most two triangles no link vertex has
  degree above 2, so a link is one path or one cycle exactly when it is
  connected;
* a disk is such a surface whose boundary, the edges lying in exactly
  one triangle, is one component and whose Euler characteristic is 1.
  Each boundary vertex's link is a path, whose two ends are its two
  boundary edges, so the boundary is 2-regular and one component is
  one cycle;
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


def euler_characteristic(X: TwoComplex) -> int:
    """V - E + F."""
    return len(X.vertices) - len(X.edge_incidence) + len(X.triangles)


def _components(edges: Iterable[tuple]) -> int:
    """The number of connected components of the graph given by its edges
    (so with no isolated vertex), by union-find with path halving."""
    parent: dict = {}
    merges = 0
    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a != b:
            parent[a] = b
            merges += 1
    return len(parent) - merges


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
    degrees = Counter(v for e in edges for v in e)
    single = set(degrees.values()) == {2} and _components(edges) == 1
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
    return _components(cover) == 2


def classify(X: TwoComplex, incidence: Counter | None = None) -> Classification:
    """Recognize disks, closed surfaces, and surfaces with boundary. A
    caller that counted X's edge incidence may pass it."""
    if not X.triangles:
        raise ValueError("cannot classify an empty complex")
    if incidence is None:
        incidence = X.edge_incidence
    vertex_count = len(X.vertices)
    euler = vertex_count - len(incidence) + len(X.triangles)
    bd_edges = _boundary_edges(incidence)
    bd_count = _components(bd_edges)
    # corner (v, w) is w in the link of v; triangle abc joins, at a, the
    # corners (a, b) and (a, c), and likewise at b and at c
    corners = (pair for a, b, c in X.triangles
               for pair in (((a, b), (a, c)), ((b, a), (b, c)),
                            ((c, a), (c, b))))
    surface_like = (
        all(k <= 2 for k in incidence.values())
        and _components(incidence) == 1
        and _components(corners) == vertex_count
    )
    if not surface_like:
        return Classification(OTHER, euler, None, bd_count)

    if not bd_edges:
        # every edge in exactly two triangles, every link a cycle
        return Classification(CLOSED_SURFACE, euler, _orientable(X), 0)

    if bd_count == 1 and euler == 1:
        return Classification(DISK, euler, None, 1)
    return Classification(SURFACE_WITH_BOUNDARY, euler, None, bd_count)


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
    incidence = X.edge_incidence
    if classify(X, incidence).kind != DISK:
        raise ValueError("boundary-inducing is defined only for disks")
    return _chord_free(X, _boundary_edges(incidence), incidence)


def cycle_edges(cycle) -> frozenset[tuple[int, int]]:
    """The edges of a cycle listed by its vertices in order, as sorted pairs."""
    return frozenset(tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1]))


def disk_defect(X: TwoComplex, cycle, incidence: dict | None = None) -> str | None:
    """Why X is not a boundary-inducing disk with boundary the given cycle,
    or None when it is one.

    X must classify as a disk, its boundary edges must be the cycle's
    edges, and it must be chord-free with at least two triangles; the
    first check that fails names the defect. A caller that counted X's
    edge incidence may pass it.
    """
    if incidence is None:
        incidence = X.edge_incidence
    kind = classify(X, incidence).kind
    if kind != DISK:
        return f"classifies as {kind}"
    bd_edges = _boundary_edges(incidence)
    if bd_edges != cycle_edges(cycle):
        return f"boundary differs from cycle {cycle}"
    if not _chord_free(X, bd_edges, incidence):
        return "is not boundary-inducing"
    return None


def _chord_free(X: TwoComplex, bd_edges: frozenset[tuple[int, int]],
                incidence: dict[tuple[int, int], int]) -> bool:
    """For a disk X with this edge incidence and these boundary edges:
    >= 2 triangles and no chord."""
    if len(X.triangles) < 2:
        return False
    on_boundary = {v for e in bd_edges for v in e}
    return not any(a in on_boundary and b in on_boundary and (a, b) not in bd_edges
                   for a, b in incidence)
