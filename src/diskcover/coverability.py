"""Disk coverability and path admissibility: estimators, oracles, audits.

Definitions implemented here, stated over a 3-uniform hypergraph H with
skeleton S(H) and a sampling pair (p, epsilon):

* A 4-cycle C = v w v' w' in S(H) is (p, epsilon)-disk-coverable when a
  p-random vertex subset U contains the interior of some
  boundary-inducing disk of H with boundary C, with probability at
  least 1 - epsilon.
* A length-2 path w u w' in a graph G is (p, epsilon)-admissible when a
  p-random U (drawn from V(G) minus u) contains the internal vertices
  of some length >= 2 path from w to w', with probability at least
  1 - epsilon.

Both events are monotone in U, which the exact oracles exploit: they
walk the subset lattice once, branching vertex by vertex, and prune a
branch as soon as the event is decided with the vertices chosen so far
(success with only the included ones, or failure even if every
undecided vertex were included). Each node asks `_holds`, the one
per-mask test that the sampled counts ask of their trial masks too:
the event's path searches, each carrying its rows, and under
EXHAUSTIVE_SMALL its disk searcher. The walk does not depend on p: it
counts success leaves N[a, b] by vertices included and excluded, and
Pr(p) = sum N[a, b] p^a (1 - p)^b (the two-terminal reliability
polynomial) is evaluated in integers, as one numerator over D^k at
p = P/D for a walk over k vertices. The weighted audits compare those
numerators directly; the public oracles reduce them to a `Fraction`.
The inequalities these feed are strict and must not be flipped by
rounding. Monte Carlo estimates are ordinary floats.

Pair statistics: psi(v, v') is the fraction of common-neighbour pairs
{w, w'} whose 4-cycle v w v' w' fails the coverability test (0 when the
codegree is 0), and phi sums the three pair values of a triple divided
by the triple codegree, with the same 0 convention.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, compress
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .complexes import TwoComplex, cycle_edges, disk_defect
from .hypergraph import (
    Hypergraph3,
    SkeletonGraph,
    _bits,
    common_neighborhood,
    iter_p2s,
    link_intersection,
    pair_masks,
)
from .rng import (bit_words, keyed_bits, mask_bits, mask_words, mix64,
                  row_masks, trial_masks, word_masks)

PYRAMID_ONLY = "pyramid-only"
EXHAUSTIVE_SMALL = "exhaustive-small"

# stream tags keep the admissibility and coverability samplers on
# disjoint Philox streams even under identical seeds
_STREAM_ADMISSIBLE = 0xAD
_STREAM_COVER = 0xC0

_EXACT_LIMIT = 25

# cycles per lane pass; the lane cap bounds the trial bits a pass holds
# (cycles x trials x vertices) when the trial count is large
_BLOCK = 64
_BLOCK_LANES = 4096


def _check_exact_size(n: int) -> None:
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact oracle limited to {_EXACT_LIMIT} vertices")


def as_fraction(x) -> Fraction:
    """Exact Fraction from int, float, str, or Fraction input."""
    if not isinstance(x, (int, str, float, Fraction)):
        raise TypeError(f"cannot interpret {x!r} as a fraction")
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError):  # "1/0", float("inf")
        raise ValueError(f"cannot interpret {x!r} as a fraction") from None


def unit_fraction(x, name: str, zero: bool = True) -> Fraction:
    """as_fraction(x), which must lie in [0, 1], or in (0, 1] without zero."""
    f = as_fraction(x)
    if not (0 <= f <= 1 if zero else 0 < f <= 1):
        raise ValueError(f"{name} must lie in {'[' if zero else '('}0, 1]")
    return f


def _check_max_interior(max_interior: int) -> None:
    if max_interior < 1:
        raise ValueError("max_interior must be at least 1")


@dataclass(frozen=True)
class EstimatorParams:
    """Sampling parameters shared by the Monte Carlo estimators."""

    p: float = 0.5
    epsilon: float = 0.1
    trials: int = 256
    seed: int = 0
    strategy: str = PYRAMID_ONLY
    max_interior: int = 3

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.strategy not in (PYRAMID_ONLY, EXHAUSTIVE_SMALL):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        _check_max_interior(self.max_interior)


@dataclass(frozen=True)
class CoverabilityEstimate:
    successes: int
    trials: int
    estimate: float
    decided_coverable: bool

    @classmethod
    def from_counts(cls, successes: int, trials: int,
                    epsilon: float) -> "CoverabilityEstimate":
        est = successes / trials
        return cls(successes, trials, est, est >= 1 - epsilon)


@dataclass(frozen=True)
class PairStats:
    """xi non-coverable 4-cycles out of codeg*(codeg-1)/2; psi = xi/codeg."""

    xi: int
    codeg: int
    psi: Fraction


@dataclass(frozen=True)
class WeightedAudit:
    """Weighted count of (p, epsilon)-inadmissible length-2 paths."""

    weighted_sum: Fraction
    bound: Fraction
    holds: bool
    inadmissible: tuple[tuple[int, int, int], ...]


# ---------------------------------------------------------------------------
# pyramid disks


def pyramid_disk(v: int, vp: int, path: Sequence[int]) -> TwoComplex:
    """The disk {v w_i w_{i+1}} + {v' w_i w_{i+1}} over path w_0..w_k.

    Its boundary is the 4-cycle v w_0 v' w_k, and it is boundary-inducing
    exactly when the path has length k >= 2 (for k = 1 the skeleton edge
    w_0 w_1 is a chord of the boundary).
    """
    seq = list(path)
    if v == vp:
        raise ValueError("pyramid apexes must be distinct")
    if len(seq) < 2:
        raise ValueError("pyramid path needs length at least 1")
    if len(set(seq)) != len(seq):
        raise ValueError("pyramid path must be simple")
    if v in seq or vp in seq:
        raise ValueError("pyramid path must avoid both apexes")
    tris = []
    for a, b in zip(seq, seq[1:]):
        tris.append((v, a, b))
        tris.append((vp, a, b))
    return TwoComplex(tris)


# ---------------------------------------------------------------------------
# bitmask path search


def path_exists(adj, a: int, b: int, interior: int) -> bool:
    """Whether a path a..b of length >= 2 runs through `interior`, for two
    distinct ends (False when a == b).

    The direct edge ab is left out and the internal vertices are
    confined to the `interior` mask (a and b are never internal): the
    one-search `_holds` on the full mask.

    `adj` holds the bitmask rows indexed by vertex (a list, or a graph's
    `adj_mask`), and a and b must be vertices. The rows must be
    symmetric (bit y of adj[x] set iff bit x of adj[y] is), since the
    search from b follows rows backwards.
    """
    if a == b:
        return False
    return _holds((_search(adj, a, b, interior),), None, -1)


def _meets(adj, front_a: int, front_b: int, interior: int) -> bool:
    """Whether breadth-first searches from the first frontiers front_a and
    front_b meet inside `interior`, which must leave out both ends: the
    path search of `_holds`.

    It grows the smaller frontier, and succeeds as soon as the two
    reached sets meet; it fails when either frontier empties.
    """
    seen_a, seen_b = front_a, front_b
    while front_a and front_b:
        if seen_a & seen_b:
            return True
        if front_a.bit_count() > front_b.bit_count():
            front_a, seen_a, front_b, seen_b = front_b, seen_b, front_a, seen_a
        step = 0
        f = front_a
        while f:
            low = f & -f
            f ^= low
            step |= adj[low.bit_length() - 1]
        front_a = step & interior & ~seen_a
        seen_a |= front_a
    return False


def _layers(adj, end: int, reach: int,
            goal: int = 0) -> tuple[dict[int, int], list[int]]:
    """A breadth-first search from `end` through the `reach` mask, which
    must leave out `end`: the distance of each vertex whose row it read,
    and the layer masks, layer i holding the vertices at distance i + 1.

    It stops at the first layer that meets `goal`, before reading that
    layer's rows, so the last layer is then the first to meet it.
    """
    dist, layers = {}, []
    front, seen, k = adj[end] & reach, 0, 1
    while front:
        layers.append(front)
        if front & goal:
            break
        seen |= front
        step = 0
        while front:
            low = front & -front
            front ^= low
            x = low.bit_length() - 1
            dist[x] = k
            step |= adj[x]
        front, k = step & reach & ~seen, k + 1
    return dist, layers


def _lane_paths(nbrs: list[list[int]], source: dict[int, int],
                target: dict[int, int], interior: list[int]) -> int:
    """The lanes in which a path of length >= 2 runs from a source to a
    target through the interior: one breadth-first search over every lane
    at once, the lanes being the bits of an int.

    The graph is given by neighbour lists over vertices 0..len(nbrs) - 1.
    source[x] and target[x] are the lanes in which x is an end (absent
    when none), interior[x] those in which x may be an internal vertex;
    it must leave out the lanes where x is an end. The first frontier is
    the interior neighbours of the sources, and a lane hits once its
    frontier meets a neighbour of its target; a hit lane stops growing.
    """
    n = len(nbrs)
    goal, reach, seen = [0] * n, [0] * n, [0] * n
    for ends, out in ((target, goal), (source, reach)):
        for y, s in ends.items():
            for x in nbrs[y]:
                out[x] |= s
    hit = 0
    while True:
        front = []
        for x, r in enumerate(reach):
            if r and (r := r & interior[x] & ~seen[x]):
                seen[x] |= r
                front.append((x, r))
                hit |= r & goal[x]
        if not front:
            return hit
        keep, reach = ~hit, [0] * n
        for y, f in front:
            if f := f & keep:
                for x in nbrs[y]:
                    reach[x] |= f


def least_path(adj, a: int, b: int, interior: int) -> list[int] | None:
    """The lexicographically smallest shortest path a..b of length >= 2
    through `interior`, over rows as `path_exists` takes them, or None
    when `path_exists` finds none (always when a == b).

    The layers from b (`_layers`) stop at the first that meets N(a), and
    layer i holds exactly the interior vertices i + 1 steps from b. So
    a shortest path takes its first internal vertex from the last layer
    and each next one from the layer before, and the walk from a that
    takes the smallest such neighbour of the last vertex at each step
    is the least of them.
    """
    if a == b:
        return None
    start = adj[a]
    _, layers = _layers(adj, b, interior & ~((1 << a) | (1 << b)), start)
    if not layers or not layers[-1] & start:
        return None
    path = [a]
    for layer in reversed(layers):
        cand = layer & adj[path[-1]]
        path.append((cand & -cand).bit_length() - 1)
    path.append(b)
    return path


# ---------------------------------------------------------------------------
# exact probabilities for monotone events


def _leaf_counts(order: Sequence[int],
                 event: Callable[[int], bool]) -> Counter:
    """Success leaves {(a, b): count} of a pruned walk of the subset lattice.

    `event` takes an inclusion bitmask and must be monotone. The walk
    branches on the vertices in the order given; at a branching node the
    included set fails and the included plus undecided set holds, so the
    include child asks only its lower bound and the exclude child only
    its upper one: at most one event call per node. A success leaf with
    a vertices included and b excluded has weight p^a (1 - p)^b, so the
    probability does not depend on the order, only the number of nodes.
    """
    leaves: Counter = Counter()

    def walk(idx: int, inc: int, rest: int, a: int) -> None:
        # event(inc | rest) holds; event(inc) fails, or is not asked yet
        # on the branch that excludes everything
        bit = 1 << order[idx]
        rest ^= bit
        if not rest or event(inc | bit):
            leaves[a + 1, idx - a] += 1
        else:
            walk(idx + 1, inc | bit, rest, a + 1)
        if rest:
            if event(inc | rest):
                walk(idx + 1, inc, rest, a)
        elif not inc and event(0):
            leaves[0, idx + 1] += 1

    full = sum(1 << v for v in order)
    if order and event(full):
        walk(0, 0, full, 0)
    elif not order and event(0):
        leaves[0, 0] = 1
    return leaves


def _powers(p: Fraction, k: int) -> tuple[list[int], list[int], list[int]]:
    """P^i, (D - P)^i and D^i for i = 0..k, at p = P/D: built once per
    (p, k) and shared by every walk over a universe of k vertices."""
    P, D = p.numerator, p.denominator
    return tuple([x ** i for i in range(k + 1)] for x in (P, D - P, D))


def _numerator(leaves: Counter, powers) -> int:
    """D^k sum N[a, b] p^a (1 - p)^b at p = P/D: the reliability as an
    integer over D^k, for `powers = _powers(p, k)`."""
    pa, qb, dc = powers
    k = len(dc) - 1
    return sum(c * pa[a] * qb[b] * dc[k - a - b]
               for (a, b), c in leaves.items())


def _reliability(leaves: Counter, k: int, p: Fraction) -> Fraction:
    """sum N[a, b] p^a (1 - p)^b at p = P/D, reduced from its numerator."""
    powers = _powers(p, k)
    return Fraction(_numerator(leaves, powers), powers[2][k])


# ---------------------------------------------------------------------------
# events as path searches, and their Monte Carlo trials


def _least_hits(trials: int, epsilon: float) -> int:
    """The least h with h / trials >= 1 - epsilon: the decision rule of
    `CoverabilityEstimate.from_counts`, in the same float expression.
    The floor of (1 - epsilon) trials is at most one below it."""
    h = int((1 - epsilon) * trials)
    while h / trials < 1 - epsilon:
        h += 1
    return h


def _search(rows, a: int, b: int, interior: int):
    """A path search (ends, rows, a, b, interior) for a..b over symmetric
    rows, indexed by vertex, with a and b taken out of the interior.
    `ends` are the neighbours of a and of b in that interior, the first
    frontiers before a mask cuts them."""
    interior &= ~(1 << a | 1 << b)
    return (rows[a] & interior, rows[b] & interior), rows, a, b, interior


def _holds(searches, disk: "_DiskSearcher | None", m: int) -> bool:
    """Whether the event holds on the vertex mask m: some search finds an
    a..b path of length >= 2 through interior & m (`_meets` from ends & m),
    or else the disk searcher (under EXHAUSTIVE_SMALL only) finds a disk
    inside m. The one per-mask test of the exact walks and the sampled
    counts."""
    for (a, b), rows, _, _, interior in searches:
        if _meets(rows, a & m, b & m, interior & m):
            return True
    return disk is not None and disk.find(m) is not None


def _hits(search, disk: "_DiskSearcher | None", masks: list[int],
          need: int | None = None) -> int:
    """How many masks the event holds on, asked in mask order: a path found
    by the one search, or else a disk found by the disk searcher.

    One pass over the masks settles the sure ones from the ends the
    search carries, reading no rows. A mask meeting both ends at one
    vertex holds a one-vertex path, a hit. A mask missing an end is a
    miss, except with a disk searcher, which can hold where no path
    search starts. The open masks are then asked in order (`_ask`).

    Given `need`, it stops as soon as whether hits >= need is fixed: after
    the screens, at the need-th hit, or at the miss that leaves too few
    masks to reach need. The count is then partial, but that decision is
    the one the full count gives.
    """
    (a, b), *_ = search
    hit = a & b
    hits = misses = 0
    open_ = []
    for m in masks:
        if m & hit:
            hits += 1
        elif disk is None and not (m & a and m & b):
            misses += 1
        else:
            open_.append(m)
    spare = len(masks) if need is None else len(masks) - need
    if need is not None and hits >= need or misses > spare:
        return hits
    return _ask((search,), disk, open_, hits, misses, need, spare)


def _ask(searches, disk: "_DiskSearcher | None", masks: Iterable[int],
         hits: int, misses: int, need: int | None, spare: int) -> int:
    """hits, plus how many of the open masks the event holds on (`_holds`),
    asked in order: the masks the screens left, after `hits` sure hits
    and `misses` sure misses. It stops at the need-th hit, or at the
    miss past `spare`, the most misses that still leave need reachable.
    Without need, and with a spare no miss count passes, it asks every
    mask."""
    for m in masks:
        if _holds(searches, disk, m):
            hits += 1
            if hits == need:
                break
        else:
            misses += 1
            if misses > spare:
                break
    return hits


def _order(searches, universe: list[int]) -> list[int]:
    """The universe for the lattice walk, nearest both ends first: x goes
    by the least over the searches of (dist(a, x) + dist(x, b), dist(a, x)),
    then by x, distances (`_layers`) running through the search's interior
    and the universe. A vertex no search reaches lies on no path; it goes
    last, where the walk is decided and never branches."""
    umask = sum(1 << x for x in universe)
    far = 2 * len(universe) + 1  # above any sum of two distances
    best: list[tuple[int, int, int]] = []
    for _, rows, a, b, interior in searches:
        da, db = (_layers(rows, end, umask & interior)[0] for end in (a, b))
        keys = []
        for x in universe:
            xa = da.get(x, far)
            keys.append((xa + db.get(x, far), xa, x))
        # both lists run over the universe in one order: least per vertex
        best = list(map(min, best, keys)) if best else keys
    return [x for _, _, x in sorted(best)]


# ---------------------------------------------------------------------------
# admissibility of length-2 paths


def _check_p2(G: SkeletonGraph, w: int, u: int, wp: int,
              labels: Sequence[str] | None = None) -> None:
    """Raise unless w u w' is a path of G; errors name vertices by any labels."""
    if len({w, u, wp}) != 3:
        raise ValueError("the length-2 path must have three distinct vertices")
    for x in (w, u, wp):
        if x not in G.vertices:
            raise ValueError(f"vertex {x} not in graph")
    if not (G.has_edge(w, u) and G.has_edge(u, wp)):
        w, u, wp = (x if labels is None else labels[x] for x in (w, u, wp))
        raise ValueError(f"{w}-{u}-{wp} is not a path in the graph")


def _admissibility_event(G: SkeletonGraph, w: int, u: int, wp: int):
    """The admissibility event of w u w': one search, w..w' in G - u, and
    no disk searcher."""
    return (_search(G.adj_mask, w, wp, ~(1 << u)),), None


def _sampled_admissibility(G: SkeletonGraph, w: int, u: int, wp: int,
                           params: EstimatorParams):
    """The one search and no disk searcher of a path checked here, and its
    trial masks."""
    _check_p2(G, w, u, wp)
    masks = trial_masks(params.seed, (_STREAM_ADMISSIBLE, w, u, wp),
                        params.trials, max(G.vertices) + 1, params.p)
    [search], disk = _admissibility_event(G, w, u, wp)
    return search, disk, masks


def sample_admissibility(G: SkeletonGraph, w: int, u: int, wp: int,
                         params: EstimatorParams) -> CoverabilityEstimate:
    """Monte Carlo estimate that the path w u w' is (p, epsilon)-admissible.

    Each trial draws U from V(G) minus u with inclusion probability p and
    succeeds when some simple w..w' path of length >= 2 has all internal
    vertices inside U. Deterministic in (params.seed, trials) and in the
    path's vertex labels; trials may be evaluated in any order.
    """
    return CoverabilityEstimate.from_counts(
        _hits(*_sampled_admissibility(G, w, u, wp, params)), params.trials,
        params.epsilon)


def _admissible(G: SkeletonGraph, w: int, u: int, wp: int,
                params: EstimatorParams) -> bool:
    """`sample_admissibility(...).decided_coverable`, stopping the trials
    once the decision is fixed."""
    need = _least_hits(params.trials, params.epsilon)
    return _hits(*_sampled_admissibility(G, w, u, wp, params), need) >= need


def _admissibility_leaves(G: SkeletonGraph, w: int, u: int,
                          wp: int) -> Counter:
    """The lattice walk of the admissibility event over V(G) minus u, w, w',
    branching first on the vertices nearest both ends."""
    searches, disk = _admissibility_event(G, w, u, wp)
    universe = [x for x in G.vertices if x not in (u, w, wp)]
    return _leaf_counts(_order(searches, universe),
                        partial(_holds, searches, disk))


def exact_admissibility(G: SkeletonGraph, w: int, u: int, wp: int,
                        p) -> Fraction:
    """Exact probability of the admissibility event, by lattice walk."""
    pf = unit_fraction(p, "p")
    _check_p2(G, w, u, wp)
    _check_exact_size(G.n)
    return _reliability(_admissibility_leaves(G, w, u, wp), G.n - 3, pf)


def _admissibility_rows(G: SkeletonGraph, ps: Iterable[Fraction]):
    """Yield (p, rows) for each p, each row (numerator, D^k, deg(y), path)
    for a length-2 path x y z: its admissibility probability at p = P/D as
    an integer over D^k, k = n - 3, so that no Fraction is made per path.
    Every path is walked once, before the first p."""
    _check_exact_size(G.n)
    adj = G.adj_mask
    walks = [(_admissibility_leaves(G, *path), adj[path[1]].bit_count(), path)
             for path in iter_p2s(G)]
    k = max(G.n - 3, 0)  # below three vertices there is no path, no row
    for p in ps:
        powers = _powers(p, k)
        den = powers[2][k]
        yield p, [(_numerator(leaves, powers), den, d, path)
                  for leaves, d, path in walks]


def admissibility_probabilities(G: SkeletonGraph, p) -> dict[tuple[int, int, int], Fraction]:
    """Exact admissibility probability for every unlabeled length-2 path."""
    [(_, rows)] = _admissibility_rows(G, [unit_fraction(p, "p")])
    return {path: Fraction(num, den) for num, den, _, path in rows}


# ---------------------------------------------------------------------------
# disk coverability


def _check_four_vertices(H: Hypergraph3, cycle: Sequence[int]) -> tuple[int, int, int, int]:
    """The cycle as a tuple, once it lists four distinct vertices of H."""
    cyc = tuple(cycle)
    if len(cyc) != 4 or len(set(cyc)) != 4:
        raise ValueError("boundary cycle must list four distinct vertices")
    vertices = H.vertices
    for x in cyc:
        if x not in vertices:
            raise ValueError(f"vertex {x} not in the skeleton")
    return cyc


def _check_four_cycle(H: Hypergraph3, cycle: Sequence[int]
                      ) -> tuple[tuple[int, int, int, int], list[int]]:
    """`_check_four_vertices(H, cycle)` and the masks S_ab, S_bc, S_cd, S_da
    of its edges, S_xy holding the w with xyw in H (`pair_masks`, which
    builds no link row), once every S_xy is nonzero: each edge lies in
    some triple of H. The first empty edge in cycle order is the one
    reported."""
    cyc = _check_four_vertices(H, cycle)
    edges = list(zip(cyc, cyc[1:] + cyc[:1]))
    masks = pair_masks(H, edges)
    for (a, b), m in zip(edges, masks):
        if not m:
            raise ValueError(f"cycle edge {H.label_of(a)}-{H.label_of(b)} "
                             "missing from the skeleton")
    return cyc, masks


class _DiskSearcher:
    """Exhaustive search for boundary-inducing disks over one 4-cycle.

    The candidates on an edge xy are the triangles xyw of H that hold no
    opposite pair of the cycle (that would put a chord into the disk
    skeleton). They are read off the link row H.row(x)[y], built once
    and kept on the host, on the edge's first use, and stored in
    `by_edge` in ascending w. The search grows a partial complex across
    its smallest open edge, so every disk with at most `max_interior`
    interior vertices is reached exactly once.
    """

    def __init__(self, H: Hypergraph3, cycle: Sequence[int], max_interior: int):
        _check_max_interior(max_interior)
        self.H, self.cycle = H, tuple(cycle)
        self.cycle_mask = sum(1 << v for v in self.cycle)
        self.cycle_edges = cycle_edges(self.cycle)
        a, b, c, d = self.cycle
        # the bit of the vertex opposite each cycle vertex
        self.opposite = {a: 1 << c, b: 1 << d, c: 1 << a, d: 1 << b}
        self.by_edge: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self.max_tris = 2 * (max_interior + 1)
        self.max_interior = max_interior

    def find(self, allowed_interior: int) -> TwoComplex | None:
        """First boundary-inducing disk whose interior bits all lie in the mask."""
        start = min(self.cycle_edges)

        def rec(used: list, inc: dict, interior: int) -> TwoComplex | None:
            open_edges = [e for e, k in inc.items()
                          if k == 1 and e not in self.cycle_edges]
            if used and not open_edges:
                if any(inc.get(e, 0) != 1 for e in self.cycle_edges):
                    return None
                X = TwoComplex(used)
                # inc is X's edge incidence, counted as the disk grew
                return X if disk_defect(X, self.cycle, inc) is None else None
            if len(used) >= self.max_tris:
                return None
            # the empty complex grows across the least cycle edge
            e = min(open_edges, default=start)
            if e not in self.by_edge:
                x, y = e
                ws = self.H.row(x)[y] & ~(self.opposite.get(x, 0)
                                          | self.opposite.get(y, 0))
                self.by_edge[e] = [tuple(sorted((x, y, w))) for w in _bits(ws)]
            for t in self.by_edge[e]:
                if t in used:
                    continue
                x, y, z = t
                new = (1 << x | 1 << y | 1 << z) & ~(self.cycle_mask | interior)
                if new & ~allowed_interior or (
                        (interior | new).bit_count() > self.max_interior):
                    continue
                edges = ((x, y), (x, z), (y, z))
                # an edge takes two triangles at most, a cycle edge one
                if any(inc.get(f, 0) >= (1 if f in self.cycle_edges else 2)
                       for f in edges):
                    continue
                inc2 = dict(inc)
                for f in edges:
                    inc2[f] = inc2.get(f, 0) + 1
                found = rec(used + [t], inc2, interior | new)
                if found is not None:
                    return found
            return None

        return rec([], {}, 0)


def find_boundary_inducing_disk(H: Hypergraph3, cycle: Sequence[int],
                                max_interior: int = 3) -> TwoComplex | None:
    """A boundary-inducing disk of H with the given 4-cycle boundary, or None.

    Searches exhaustively over disks with at most `max_interior` interior
    vertices. Intended as a small-instance oracle. Raises ValueError
    unless the cycle lists four distinct vertices of H.
    """
    searcher = _DiskSearcher(H, _check_four_vertices(H, cycle), max_interior)
    return searcher.find((1 << H.n) - 1)


def _disk_searcher(H: Hypergraph3, cyc: tuple[int, int, int, int],
                   strategy: str, max_interior: int):
    """The disk searcher of a checked 4-cycle, under EXHAUSTIVE_SMALL only."""
    return (None if strategy == PYRAMID_ONLY
            else _DiskSearcher(H, cyc, max_interior))


def _coverability_event(H: Hypergraph3, cyc: tuple[int, int, int, int],
                        strategy: str, max_interior: int):
    """The coverability event of a checked 4-cycle v w v' w': the pyramid
    searches w..w' in LI(v, v') and v..v' in LI(w, w'), and the disk
    searcher under EXHAUSTIVE_SMALL."""
    v, w, vp, wp = cyc
    return ((_search(link_intersection(H, v, vp), w, wp, -1),
             _search(link_intersection(H, w, wp), v, vp, -1)),
            _disk_searcher(H, cyc, strategy, max_interior))


def sample_disk_coverability(H: Hypergraph3, cycle: Sequence[int],
                             params: EstimatorParams) -> CoverabilityEstimate:
    """Monte Carlo test that the 4-cycle is (p, epsilon)-disk-coverable.

    Per trial a p-random U of V(H) is drawn and the trial succeeds when
    some boundary-inducing disk with this boundary has its interior
    inside U. The search family is set by params.strategy. Deterministic
    in (seed, trials, cycle labels); independent of evaluation order.
    The count is the lane pass's over a single cycle (`_cycle_hits`).
    """
    (v, w, vp, wp), _ = _check_four_cycle(H, cycle)
    [hits] = _cycle_hits(H, v, vp, [(w, wp)], params)
    return CoverabilityEstimate.from_counts(hits, params.trials,
                                            params.epsilon)


def exact_disk_coverability(H: Hypergraph3, cycle: Sequence[int], p,
                            strategy: str = PYRAMID_ONLY,
                            max_interior: int = 3) -> Fraction:
    """Exact coverability probability by monotone lattice walk (n <= 25),
    branching first on the vertices nearest both ends of a pyramid search."""
    _check_max_interior(max_interior)
    _check_exact_size(H.n)
    pf = unit_fraction(p, "p")
    cyc, _ = _check_four_cycle(H, cycle)
    searches, disk = _coverability_event(H, cyc, strategy, max_interior)
    universe = [x for x in H.vertices if x not in cyc]
    leaves = _leaf_counts(_order(searches, universe),
                          partial(_holds, searches, disk))
    return _reliability(leaves, len(universe), pf)


# ---------------------------------------------------------------------------
# weighted inadmissibility audits


def _audit(bad: list[tuple[int, tuple[int, int, int]]],
           bound: Fraction) -> WeightedAudit:
    """The sum of 1/deg(y) over the bad (deg(y), path x y z) pairs, against
    the bound; one Fraction in all, over the least common multiple of the
    degrees, not one per path or per degree class."""
    per_degree = Counter(d for d, _ in bad)
    den = lcm(*per_degree)
    total = Fraction(sum(k * (den // d) for d, k in per_degree.items()), den)
    # with no bad path the bound holds, even at n = 0, where it is 0 too
    return WeightedAudit(total, bound, total < bound or not bad,
                         tuple(sorted(path for _, path in bad)))


def inadmissible_p2_audit(G: SkeletonGraph) -> WeightedAudit:
    """Audit the p = 1 inadmissibility bound: sum of 1/deg(y) < 3n/2, the
    weighted bound at p = epsilon = 1.

    A length-2 path x y z is inadmissible here when x and z are not
    joined by any path of length >= 2 avoiding y: the path search from
    x to z with every vertex but y allowed inside finds nothing.
    """
    adj = G.adj_mask
    full = sum(1 << v for v in adj)
    bad = [(adj[y].bit_count(), (x, y, z)) for x, y, z in iter_p2s(G)
           if not path_exists(adj, x, z, full & ~(1 << y))]
    return _audit(bad, Fraction(3 * G.n, 2))


def _weighted_audits(G: SkeletonGraph, by_p: dict[Fraction, list[Fraction]]):
    """Yield (p, epsilon, WeightedAudit) for every epsilon listed under each
    checked grid p, walking every path once. A path is bad when its
    probability num/den is below 1 - epsilon, decided in integers as
    num e_d < (e_d - e_n) den."""
    for p, rows in _admissibility_rows(G, by_p):
        for eps in by_p[p]:
            en, ed = eps.numerator, eps.denominator
            bad = [(d, path) for num, den, d, path in rows
                   if num * ed < (ed - en) * den]
            # 3n / (2 p^2 epsilon), as one Fraction
            bound = Fraction(3 * G.n * p.denominator ** 2 * ed,
                             2 * p.numerator ** 2 * en)
            yield p, eps, _audit(bad, bound)


def weighted_inadmissibility_audit(G: SkeletonGraph, p, epsilon) -> WeightedAudit:
    """Audit the (p, epsilon) bound: sum of 1/deg(y) < 3n/(2 p^2 epsilon),
    counting a path when its exact admissibility probability is below
    1 - epsilon."""
    pf = unit_fraction(p, "p", zero=False)
    [(_, _, audit)] = _weighted_audits(
        G, {pf: [unit_fraction(epsilon, "epsilon", zero=False)]})
    return audit


# ---------------------------------------------------------------------------
# pair and triple statistics


def _cycle_hits(H: Hypergraph3, v: int, vp: int,
                pairs: list[tuple[int, int]], params: EstimatorParams,
                need: int | None = None) -> list[int]:
    """The hit count of each 4-cycle v w v' w' over the given pairs, which
    must all be valid: one screen or one bit-sliced pass per block of
    cycles. As in `_hits`, given `need` a count may be partial once
    whether it reaches need is fixed; without it every count is exact.

    A lane is one (cycle, trial). Each cycle's trial bits are the matrix
    behind its `trial_masks`; one `keyed_bits` call draws a block's, one
    (cycle, trial, vertex) array. Given `need`, when every cycle of a
    block has one-vertex pyramids, C = LI(v, v')[w] & LI(v, v')[w']
    nonempty, one numpy screen counts each cycle's trials that meet C,
    the sure hits of `_hits`; if each count reaches `need`, those counts
    stand and no lane is built. Otherwise the block's bits are
    transposed into one lane set per vertex, and the first pyramid side,
    w..w' in LI(v, v'), runs as one `_lane_paths` over all the block's
    lanes. The cycles short of `need` (of every trial, without it) then
    take their second side over their side-1 misses (`_second_sides`):
    the event is side 1 or side 2 or a disk, so each count, or decision,
    is the full event's. The rows of LI(v, v') (`link_intersection`)
    are built once for all the cycles.
    """
    if not pairs:
        return []
    trials = params.trials
    width = max(H.n, 1)
    adj = link_intersection(H, v, vp)
    nbrs = None
    prefix = mix64(params.seed, _STREAM_COVER, v)
    full = (1 << trials) - 1
    size = max(1, min(_BLOCK, _BLOCK_LANES // trials))
    out = []
    for s in range(0, len(pairs), size):
        block = pairs[s:s + size]
        bits = keyed_bits([mix64(w, vp, wp, key=prefix) for w, wp in block],
                          trials, width, params.p)
        pyramids = [adj[w] & adj[wp] for w, wp in block]
        if need is not None and all(pyramids) and (
                sure := _sure_hits(bits, pyramids)).min() >= need:
            out += sure.tolist()
            continue
        if nbrs is None:
            nbrs = [_bits(row) for row in adj]
        lanes = row_masks(bits.reshape(-1, width).T)
        source: dict[int, int] = {}
        target: dict[int, int] = {}
        for c, (w, wp) in enumerate(block):
            own = full << c * trials
            source[w] = source.get(w, 0) | own
            target[wp] = target.get(wp, 0) | own
            lanes[w] &= ~own
            lanes[wp] &= ~own
        hit = _lane_paths(nbrs, source, target, lanes)
        hits = mask_bits([hit], len(block) * trials).reshape(-1, trials)
        out += _second_sides(H, v, vp, block, bits, hits, params, need)
    return out


def _second_sides(H: Hypergraph3, v: int, vp: int,
                  block: list[tuple[int, int]], bits: np.ndarray,
                  hits: np.ndarray, params: EstimatorParams,
                  need: int | None) -> list[int]:
    """The counts of a block's cycles given their side-1 hits, a (cycles,
    trials) bool array: a cycle short of `need` (of every trial, without
    it) adds its second side, v..v' in LI(w, w'), or under
    EXHAUSTIVE_SMALL a disk, over its side-1 misses, under `_hits`'
    screens and stop rules.

    The short cycles' misses are packed as uint64 words (`bit_words`),
    in trial order, and screened all at once. The hit screen of `_hits`
    never fires here: a mask meeting both second-side ends at one
    vertex meets C = LI(v, v')[w] & LI(v, v')[w'], a one-vertex pyramid
    of the first side too. Under PYRAMID_ONLY a miss m is a sure miss
    when m & A or m & B is 0, where A = row(v)[w] & row(v)[w'] and
    B = row(v')[w] & row(v')[w'], less v and v', are LI(w, w')[v] and
    LI(w, w')[v'], the second side's ends, read off the apexes' rows, so
    the screen builds no row of w or w'. A cycle with no open mask, or
    (given need) with more sure misses than trials - need, takes its
    first-side count as it is. Each other one builds LI(w, w') and asks
    its open masks in trial order (`_ask`), with its disk searcher under
    EXHAUSTIVE_SMALL.
    """
    trials = params.trials
    spare = trials if need is None else trials - need
    counts = hits.sum(axis=1)
    low = counts < (trials if need is None else need)
    short = np.flatnonzero(low)
    if not short.size:
        return counts.tolist()
    # the short cycles' misses in trial order, and the rank in `short` of
    # each one's cycle
    rows = np.flatnonzero(~hits & low[:, None])
    rank = np.repeat(np.arange(short.size), trials - counts[short])
    words = bit_words(bits.reshape(-1, bits.shape[2]).take(rows, axis=0))
    cycles = [block[c] for c in short.tolist()]
    open_ = np.ones(rank.size, bool)
    if params.strategy == PYRAMID_ONLY:
        rv, rvp = H.row(v), H.row(vp)
        apexes = ~(1 << v | 1 << vp)
        ends = mask_words([e & apexes for w, wp in cycles
                           for e in (rv[w] & rv[wp], rvp[w] & rvp[wp])],
                          words.shape[1])
        for side in (0, 1):
            open_ &= (words & ends[2 * rank + side]).any(axis=1)
    asked = np.bincount(rank[open_], minlength=short.size)
    sure_misses = trials - counts[short] - asked
    rest = (asked > 0) & (sure_misses <= spare)
    out = counts.tolist()
    masks = word_masks(words[open_ & rest[rank]])
    stop = 0
    for c, (w, wp), k, missed in compress(zip(
            short.tolist(), cycles, asked.tolist(), sure_misses.tolist()),
            rest.tolist()):
        start, stop = stop, stop + k
        side = _search(link_intersection(H, w, wp), v, vp, -1)
        disk = _disk_searcher(H, (v, w, vp, wp), params.strategy,
                              params.max_interior)
        out[c] = _ask((side,), disk, masks[start:stop], out[c], missed,
                      need, spare)
    return out


def _sure_hits(bits: np.ndarray, pyramids: list[int]) -> np.ndarray:
    """How many trials of each cycle c hold a one-vertex pyramid, a vertex
    of pyramids[c], given the (cycles, trials, width) trial bits: one
    boolean product (an OR of ANDs) with the sets as bool columns."""
    sets = mask_bits(pyramids, bits.shape[2])
    return np.matmul(bits, sets[:, :, None]).sum(axis=(1, 2))


def _count_uncoverable(H: Hypergraph3, v: int, vp: int,
                       pairs: Iterable[tuple[int, int]],
                       params: EstimatorParams) -> int:
    """How many 4-cycles v w v' w' over the given pairs fail the test.

    A 4-cycle with a repeated vertex, a vertex outside H or an edge
    missing from S(H) counts as non-coverable outright (no disk of H can
    have that boundary), as `_check_four_cycle` would reject it. Each
    vertex x of the pairs is checked once: the cycle is valid exactly
    when w and w' differ and each is a vertex of H with row(v)[x] and
    row(v')[x] both nonzero, which also keeps x off v and v' (row(v)[v]
    is 0). The valid cycles of the one apex pair are decided together, in
    one lane pass (`_cycle_hits`) that stops each count once it is fixed
    against the least hit count. `pair_psi`, the K_t finder's core stage
    (over sampled pairs) and its pattern stage (over the t - 2 special
    cycles of each apex pair of a draw) all count here.
    """
    pairs = list(pairs)
    vertices = H.vertices
    if v == vp or v not in vertices or vp not in vertices:
        return len(pairs)
    rv, rvp = H.row(v), H.row(vp)
    good = {x for x in {x for pair in pairs for x in pair}
            if x in vertices and rv[x] and rvp[x]}
    valid = [(w, wp) for w, wp in pairs
             if w != wp and w in good and wp in good]
    need = _least_hits(params.trials, params.epsilon)
    return len(pairs) - sum(
        h >= need for h in _cycle_hits(H, v, vp, valid, params, need))


def pair_psi(H: Hypergraph3, G: SkeletonGraph, v: int, vp: int,
             params: EstimatorParams) -> PairStats:
    """xi and psi = xi/codeg for a vertex pair of G against H.

    Runs the coverability test for every unordered pair {w, w'} of
    common neighbours.
    """
    if v == vp:
        raise ValueError("pair statistics need two distinct vertices")
    common = sorted(common_neighborhood(G, (v, vp)))
    xi = _count_uncoverable(H, v, vp, combinations(common, 2), params)
    codeg = len(common)
    psi = Fraction(xi, codeg) if codeg else Fraction(0)
    return PairStats(xi, codeg, psi)


def triple_phi(psi12: Fraction, psi13: Fraction, psi23: Fraction,
               codeg3: int) -> Fraction:
    """phi of a triple: (psi12 + psi13 + psi23) / codeg3, or 0 when codeg3 = 0."""
    if codeg3 < 0:
        raise ValueError("triple codegree cannot be negative")
    if codeg3 == 0:
        return Fraction(0)
    return (psi12 + psi13 + psi23) / codeg3
