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
undecided vertex were included). The walk does not depend on p: it
counts success leaves N[a, b] by vertices included and excluded, and
Pr(p) = sum N[a, b] p^a (1 - p)^b (the two-terminal reliability
polynomial) is evaluated in integers, giving one exact `Fraction` per
p. The inequalities these feed are strict and must not be flipped by
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
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .complexes import DISK, TwoComplex, _boundary_edges, _chord_free, classify
from .hypergraph import (
    Hypergraph3,
    SkeletonGraph,
    _bits,
    common_neighborhood,
    iter_p2s,
    link_intersection,
)
from .rng import trial_masks

PYRAMID_ONLY = "pyramid-only"
EXHAUSTIVE_SMALL = "exhaustive-small"

# stream tags keep the admissibility and coverability samplers on
# disjoint Philox streams even under identical seeds
_STREAM_ADMISSIBLE = 0xAD
_STREAM_COVER = 0xC0

_EXACT_LIMIT = 25


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


def path_exists(adj: dict[int, int], a: int, b: int, interior: int,
                layers: list[list[int]] | None = None) -> bool:
    """Whether a path a..b of length >= 2 runs through `interior`.

    The direct edge ab is left out and the internal vertices are
    confined to the `interior` mask (a and b are never internal). The
    search grows one breadth-first frontier from a and one from b,
    always expanding the smaller, and succeeds as soon as the two
    reached sets meet; it fails when either frontier empties.

    Given `layers = [from_a, from_b]`, it appends each frontier to its
    own side's list, so from_a[i] is the mask of interior vertices at
    distance i + 1 from a, and from_b[j] the same from b; `least_path`
    reads the path off them. The outer list is reversed whenever the
    two sides swap, so read the two lists, not `layers`, afterwards.

    `adj` must be symmetric (bit y of adj[x] set iff bit x of adj[y]
    is), since the search from b follows rows backwards.
    """
    if a not in adj or b not in adj:
        return False
    interior &= ~((1 << a) | (1 << b))
    front_a = seen_a = adj[a] & interior
    front_b = seen_b = adj[b] & interior
    if layers is not None:
        layers[0].append(front_a)
        layers[1].append(front_b)
    while front_a and front_b:
        if seen_a & seen_b:
            return True
        if front_a.bit_count() > front_b.bit_count():
            front_a, seen_a, front_b, seen_b = front_b, seen_b, front_a, seen_a
            if layers is not None:
                layers.reverse()
        step = 0
        f = front_a
        while f:
            low = f & -f
            f ^= low
            step |= adj[low.bit_length() - 1]
        front_a = step & interior & ~seen_a
        seen_a |= front_a
        if layers is not None:
            layers[0].append(front_a)
    return False


def least_path(adj: dict[int, int], a: int, b: int,
               interior: int) -> list[int] | None:
    """The lexicographically smallest shortest path a..b of length >= 2
    through `interior`, or None when `path_exists` finds none.

    It reads the layers `path_exists` records. That search stops at the
    first check where the two reached sets meet, and the check before it
    failed, so when from_a and from_b end at indices p and q a shortest
    path has p + q + 2 edges and its (p + 1)-th internal vertex lies in
    from_a[p] & from_b[q]. A backward pass keeps the vertices of each
    earlier layer of from_a that reach that meeting set; the forward
    pass then takes the smallest kept neighbour of the previous vertex
    at each step. Past the meeting set every neighbour in the next layer
    of from_b lies on a shortest path, so those layers need no pruning.
    """
    from_a: list[int] = []
    from_b: list[int] = []
    if not path_exists(adj, a, b, interior, [from_a, from_b]):
        return None
    target = from_a[-1] & from_b[-1]
    kept = [target]
    for layer in reversed(from_a[:-1]):
        keep = 0
        f = layer
        while f:
            low = f & -f
            f ^= low
            if adj[low.bit_length() - 1] & target:
                keep |= low
        kept.append(keep)
        target = keep
    path = [a]
    for layer in kept[::-1] + from_b[:-1][::-1]:
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


def _reliability(leaves: Counter, k: int, p: Fraction) -> Fraction:
    """sum N[a, b] p^a (1 - p)^b at p = P/D, as one integer over D^k."""
    P, D = p.numerator, p.denominator
    return Fraction(sum(c * P ** a * (D - P) ** b * D ** (k - a - b)
                        for (a, b), c in leaves.items()), D ** k)


# ---------------------------------------------------------------------------
# Monte Carlo trials


def _least_hits(trials: int, epsilon: float) -> int:
    """The least h with h / trials >= 1 - epsilon: the decision rule of
    `CoverabilityEstimate.from_counts`, in the same float expression.
    The floor of (1 - epsilon) trials is at most one below it."""
    h = int((1 - epsilon) * trials)
    while h / trials < 1 - epsilon:
        h += 1
    return h


def _trial_hits(event: Callable[[int], bool], masks: list[int],
                need: int | None = None) -> int:
    """How many masks satisfy the event, asked in mask order.

    Given `need`, the loop stops as soon as whether hits >= need is
    fixed: at the need-th hit, or at the miss that leaves too few masks
    to reach need. The count is then partial, but that decision is the
    one the full count gives.
    """
    hits = misses = 0
    spare = len(masks) if need is None else len(masks) - need
    for m in masks:
        if event(m):
            hits += 1
            if hits == need:
                break
        else:
            misses += 1
            if misses > spare:
                break
    return hits


def _decided(event: Callable[[int], bool], masks: list[int], epsilon: float,
             known_hits: int = 0, known_misses: int = 0) -> bool:
    """Whether the hit rate reaches 1 - epsilon over the masks and over
    known_hits and known_misses further trials already settled, asking
    the event only until the decision is fixed."""
    need = _least_hits(len(masks) + known_hits + known_misses,
                       epsilon) - known_hits
    return need <= 0 or (need <= len(masks)
                         and _trial_hits(event, masks, need) >= need)


def _ends(adj: dict[int, int], a: int, b: int,
          interior: int = -1) -> tuple[int, int]:
    """The first frontiers of `path_exists(adj, a, b, interior & m)` before
    m cuts them: the neighbours of a and of b inside interior, other than
    a and b."""
    interior &= ~((1 << a) | (1 << b))
    return adj[a] & interior, adj[b] & interior


def _screened(event: Callable[[int], bool], masks: list[int], epsilon: float,
              first: tuple[int, int], second: tuple[int, int] = (0, 0),
              misses: bool = True) -> bool:
    """`_decided(event, masks, epsilon)`, asking the event only of the
    masks that two screens leave open.

    `first` and `second` are the `_ends` of the one or two path searches
    the event runs. A vertex in both masks of a pair is a path of one
    interior vertex, so a mask that meets it is a hit. A mask that misses
    one mask of each pair leaves every search an empty frontier, so it is
    a miss, unless the event can hold without them (misses=False).
    """
    (a1, b1), (a2, b2) = first, second
    hit = a1 & b1 | a2 & b2
    rest = [m for m in masks if not m & hit]
    open_ = rest if not misses else [
        m for m in rest if m & a1 and m & b1 or m & a2 and m & b2]
    return _decided(event, open_, epsilon, len(masks) - len(rest),
                    len(rest) - len(open_))


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


def _admissible_universe(G: SkeletonGraph, w: int, u: int, wp: int) -> list[int]:
    # only vertices that can appear inside a w..w' path matter; u is
    # excluded from U by definition and w, w' are endpoints either way
    return [x for x in G.vertices if x not in (u, w, wp)]


def _admissibility_trials(G: SkeletonGraph, w: int, u: int, wp: int,
                          params: EstimatorParams):
    """The per-trial event and the trial masks of the admissibility test."""
    _check_p2(G, w, u, wp)
    umask_all = 0
    for x in _admissible_universe(G, w, u, wp):
        umask_all |= 1 << x
    width = max(G.vertices) + 1
    masks = trial_masks(params.seed, (_STREAM_ADMISSIBLE, w, u, wp),
                        params.trials, width, params.p)
    adj = G.adj_mask
    return (lambda m: path_exists(adj, w, wp, m & umask_all)), masks


def sample_admissibility(G: SkeletonGraph, w: int, u: int, wp: int,
                         params: EstimatorParams) -> CoverabilityEstimate:
    """Monte Carlo estimate that the path w u w' is (p, epsilon)-admissible.

    Each trial draws U from V(G) minus u with inclusion probability p and
    succeeds when some simple w..w' path of length >= 2 has all internal
    vertices inside U. Deterministic in (params.seed, trials) and in the
    path's vertex labels; trials may be evaluated in any order.
    """
    event, masks = _admissibility_trials(G, w, u, wp, params)
    return CoverabilityEstimate.from_counts(_trial_hits(event, masks),
                                            params.trials, params.epsilon)


def _admissible(G: SkeletonGraph, w: int, u: int, wp: int,
                params: EstimatorParams) -> bool:
    """`sample_admissibility(...).decided_coverable`, screening the trials
    and stopping them once the decision is fixed."""
    return _screened(*_admissibility_trials(G, w, u, wp, params),
                     params.epsilon, _ends(G.adj_mask, w, wp, ~(1 << u)))


def _admissibility_leaves(G: SkeletonGraph, w: int, u: int,
                          wp: int) -> Counter:
    """The lattice walk of the admissibility event, branching first on the
    vertices x nearest both ends, by (dist(w, x) + dist(x, w'), dist(w, x), x)
    in G - u through the universe. A vertex an end cannot reach lies on no
    w..w' path; it goes last, where the walk is decided and never branches."""
    adj = G.adj_mask
    universe = _admissible_universe(G, w, u, wp)
    umask = sum(1 << x for x in universe)
    far = 2 * len(universe) + 1  # above any sum of two distances
    dist = {}
    for end in (w, wp):
        d = dist[end] = dict.fromkeys(universe, far)
        front, seen, k = adj[end] & umask, 0, 1
        while front:
            seen |= front
            step = 0
            for x in _bits(front):
                d[x] = k
                step |= adj[x]
            front, k = step & umask & ~seen, k + 1
    dw, dwp = dist[w], dist[wp]
    order = sorted(universe, key=lambda x: (dw[x] + dwp[x], dw[x], x))
    return _leaf_counts(order, lambda mask: path_exists(adj, w, wp, mask))


def exact_admissibility(G: SkeletonGraph, w: int, u: int, wp: int,
                        p) -> Fraction:
    """Exact probability of the admissibility event, by lattice walk."""
    pf = unit_fraction(p, "p")
    _check_p2(G, w, u, wp)
    _check_exact_size(G.n)
    return _reliability(_admissibility_leaves(G, w, u, wp), G.n - 3, pf)


def admissibility_tables(G: SkeletonGraph, ps: Iterable
                         ) -> dict[Fraction, dict[tuple[int, int, int], Fraction]]:
    """`admissibility_probabilities(G, p)` for every p, walking each path once."""
    pfs = [unit_fraction(p, "p") for p in ps]
    _check_exact_size(G.n)
    walks = {path: _admissibility_leaves(G, *path) for path in iter_p2s(G)}
    return {pf: {path: _reliability(leaves, G.n - 3, pf)
                 for path, leaves in walks.items()} for pf in pfs}


def admissibility_probabilities(G: SkeletonGraph, p) -> dict[tuple[int, int, int], Fraction]:
    """Exact admissibility probability for every unlabeled length-2 path."""
    [table] = admissibility_tables(G, [p]).values()
    return table


# ---------------------------------------------------------------------------
# disk coverability


def _check_four_vertices(H: Hypergraph3, cycle: Sequence[int]) -> tuple[int, int, int, int]:
    """The cycle as a tuple, once it lists four distinct vertices of H."""
    cyc = tuple(cycle)
    if len(cyc) != 4 or len(set(cyc)) != 4:
        raise ValueError("boundary cycle must list four distinct vertices")
    for x in cyc:
        if x not in H.vertices:
            raise ValueError(f"vertex {x} not in the skeleton")
    return cyc


def _check_four_cycle(H: Hypergraph3, cycle: Sequence[int]) -> tuple[int, int, int, int]:
    """`_check_four_vertices(H, cycle)`, once every edge ab of the cycle
    lies in some triple of H, read as a set bit b in the link row of a."""
    cyc = _check_four_vertices(H, cycle)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not H.row(a)[b]:
            raise ValueError(f"cycle edge {H.label_of(a)}-{H.label_of(b)} "
                             "missing from the skeleton")
    return cyc


class _DiskSearcher:
    """Exhaustive search for boundary-inducing disks over one 4-cycle.

    Candidate triangles are those of H inside the allowed vertex pool
    that do not span an opposite pair of the cycle (such a triangle
    would put a chord into the disk skeleton). The search grows a
    partial complex across its smallest open edge, so every disk with at
    most `max_interior` interior vertices is reached exactly once.
    """

    def __init__(self, H: Hypergraph3, cycle: Sequence[int], max_interior: int):
        _check_max_interior(max_interior)
        self.cycle = tuple(cycle)
        a, b, c, d = self.cycle
        self.cycle_set = frozenset(self.cycle)
        self.cycle_edges = frozenset(
            tuple(sorted(e)) for e in ((a, b), (b, c), (c, d), (d, a)))
        tris = H.triples()
        on = [(tris == x).any(axis=1) for x in self.cycle]
        skip = (sum(on) > 2) | (on[0] & on[2]) | (on[1] & on[3])
        cands = zip(*tris[~skip].T.tolist())
        self.by_edge: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for t in cands:
            x, y, z = t
            for e in ((x, y), (x, z), (y, z)):
                self.by_edge.setdefault(e, []).append(t)
        self.max_tris = 2 * (max_interior + 1)
        self.max_interior = max_interior

    def find(self, allowed_interior: int) -> TwoComplex | None:
        """First boundary-inducing disk whose interior bits all lie in the mask."""
        start = min(self.cycle_edges)

        def rec(used: list, inc: dict, interior: frozenset) -> TwoComplex | None:
            open_edges = [e for e, k in inc.items()
                          if k == 1 and e not in self.cycle_edges]
            if used and not open_edges:
                if any(inc.get(e, 0) != 1 for e in self.cycle_edges):
                    return None
                X = TwoComplex(used)
                if classify(X).kind != DISK:
                    return None
                # inc is X's edge incidence, counted as the disk grew
                bd_edges = _boundary_edges(inc)
                if bd_edges != self.cycle_edges:
                    return None
                return X if _chord_free(X, bd_edges, inc) else None
            if len(used) >= self.max_tris:
                return None
            # the empty complex grows across the least cycle edge
            e = min(open_edges, default=start)
            for t in self.by_edge.get(e, ()):
                if t in used:
                    continue
                new_int = [x for x in t
                           if x not in self.cycle_set and x not in interior]
                if any(not (allowed_interior >> x) & 1 for x in new_int):
                    continue
                if len(interior) + len(new_int) > self.max_interior:
                    continue
                x, y, z = t
                edges = ((x, y), (x, z), (y, z))
                # an edge takes two triangles at most, a cycle edge one
                if any(inc.get(f, 0) >= (1 if f in self.cycle_edges else 2)
                       for f in edges):
                    continue
                inc2 = dict(inc)
                for f in edges:
                    inc2[f] = inc2.get(f, 0) + 1
                found = rec(used + [t], inc2, interior | frozenset(new_int))
                if found is not None:
                    return found
            return None

        return rec([], {}, frozenset())


def find_boundary_inducing_disk(H: Hypergraph3, cycle: Sequence[int],
                                allowed_interior: Iterable[int] | None = None,
                                max_interior: int = 3) -> TwoComplex | None:
    """A boundary-inducing disk of H with the given 4-cycle boundary, or None.

    Searches exhaustively over disks with at most `max_interior` interior
    vertices, optionally restricted to a pool of allowed interior
    vertices. Intended as a small-instance oracle. Raises ValueError
    unless the cycle lists four distinct vertices of H.
    """
    searcher = _DiskSearcher(H, _check_four_vertices(H, cycle), max_interior)
    if allowed_interior is None:
        mask = (1 << H.n) - 1
    else:
        mask = 0
        for v in allowed_interior:
            mask |= 1 << v
    return searcher.find(mask)


def _pyramid_sides(H: Hypergraph3, cycle: tuple[int, int, int, int],
                   li_apex: SkeletonGraph | None = None):
    """The pyramid event's path searches (adj, a, b) over the 4-cycle
    v w v' w': w..w' in LI(v, v') and v..v' in LI(w, w'). A caller with
    many cycles over one apex pair may pass LI(v, v')."""
    v, w, vp, wp = cycle
    if li_apex is None:
        li_apex = link_intersection(H, v, vp)
    return ((li_apex.adj_mask, w, wp),
            (link_intersection(H, w, wp).adj_mask, v, vp))


def _coverability_event(H: Hypergraph3, cycle: tuple[int, int, int, int],
                        strategy: str, max_interior: int,
                        sides=None) -> Callable[[int], bool]:
    """Build the per-sample success predicate for one boundary cycle.

    PyramidOnly tries both opposite-apex choices of the 4-cycle, the
    searches `sides` (by default `_pyramid_sides(H, cycle)`); the
    exhaustive strategy additionally searches all small disks.
    """
    (adj1, w, wp), (adj2, v, vp) = sides or _pyramid_sides(H, cycle)

    def pyramid_event(umask: int) -> bool:
        return (path_exists(adj1, w, wp, umask)
                or path_exists(adj2, v, vp, umask))

    if strategy == PYRAMID_ONLY:
        return pyramid_event
    searcher = _DiskSearcher(H, cycle, max_interior)

    def exhaustive_event(umask: int) -> bool:
        if pyramid_event(umask):
            return True
        return searcher.find(umask) is not None

    return exhaustive_event


def _coverability_trials(H: Hypergraph3, cyc: tuple[int, int, int, int],
                         params: EstimatorParams, sides=None):
    """The per-trial event and the trial masks of the coverability test
    of a checked cycle, whose pyramid searches may be given."""
    event = _coverability_event(H, cyc, params.strategy, params.max_interior,
                                sides)
    masks = trial_masks(params.seed, (_STREAM_COVER, *cyc),
                        params.trials, max(H.n, 1), params.p)
    return event, masks


def sample_disk_coverability(H: Hypergraph3, cycle: Sequence[int],
                             params: EstimatorParams) -> CoverabilityEstimate:
    """Monte Carlo test that the 4-cycle is (p, epsilon)-disk-coverable.

    Per trial a p-random U of V(H) is drawn and the trial succeeds when
    some boundary-inducing disk with this boundary has its interior
    inside U. The search family is set by params.strategy. Deterministic
    in (seed, trials, cycle labels); independent of evaluation order.
    """
    event, masks = _coverability_trials(H, _check_four_cycle(H, cycle), params)
    return CoverabilityEstimate.from_counts(_trial_hits(event, masks),
                                            params.trials, params.epsilon)


def _coverable(H: Hypergraph3, cyc: tuple[int, int, int, int],
               params: EstimatorParams,
               li_apex: SkeletonGraph | None = None) -> bool:
    """`sample_disk_coverability(H, cyc, params).decided_coverable` for a
    checked cycle, screening the trials and stopping them once the
    decision is fixed. The disk search of EXHAUSTIVE_SMALL can hold where
    no pyramid search starts, so that strategy screens hits only."""
    sides = _pyramid_sides(H, cyc, li_apex)
    return _screened(*_coverability_trials(H, cyc, params, sides),
                     params.epsilon, *(_ends(*side) for side in sides),
                     misses=params.strategy == PYRAMID_ONLY)


def exact_disk_coverability(H: Hypergraph3, cycle: Sequence[int], p,
                            strategy: str = PYRAMID_ONLY,
                            max_interior: int = 3) -> Fraction:
    """Exact coverability probability by monotone lattice walk (n <= 25)."""
    _check_max_interior(max_interior)
    _check_exact_size(H.n)
    pf = unit_fraction(p, "p")
    cyc = _check_four_cycle(H, cycle)
    event = _coverability_event(H, cyc, strategy, max_interior)
    universe = [x for x in H.vertices if x not in cyc]
    return _reliability(_leaf_counts(universe, event), len(universe), pf)


# ---------------------------------------------------------------------------
# weighted inadmissibility audits


def _audit(G: SkeletonGraph, bad: list[tuple[int, int, int]],
           bound: Fraction) -> WeightedAudit:
    """The sum of 1/deg(y) over the bad paths x y z, against the bound; one
    Fraction per degree class, not one per path."""
    per_degree = Counter(G.degree(y) for _, y, _ in bad)
    total = sum((Fraction(k, d) for d, k in per_degree.items()), Fraction(0))
    return WeightedAudit(total, bound, total < bound, tuple(sorted(bad)))


def inadmissible_p2_audit(G: SkeletonGraph) -> WeightedAudit:
    """Audit the p = 1 inadmissibility bound: sum of 1/deg(y) < 3n/2, the
    weighted bound at p = epsilon = 1.

    A length-2 path x y z is inadmissible here when x and z are not
    joined by any path of length >= 2 avoiding y: the path search from
    x to z with every vertex but y allowed inside finds nothing.
    """
    adj = G.adj_mask
    full = sum(1 << v for v in adj)
    bad = [(x, y, z) for x, y, z in iter_p2s(G)
           if not path_exists(adj, x, z, full & ~(1 << y))]
    return _audit(G, bad, Fraction(3 * G.n, 2))


def weighted_inadmissibility_audit(G: SkeletonGraph, p, epsilon,
                                   probabilities: dict | None = None) -> WeightedAudit:
    """Audit the (p, epsilon) bound: sum of 1/deg(y) < 3n/(2 p^2 epsilon).

    A path is counted when its exact admissibility probability is below
    1 - epsilon. Probabilities may be supplied (keyed by (x, y, z) with
    x < z) to share subset-enumeration work across epsilon values.
    """
    _check_exact_size(G.n)
    pf = unit_fraction(p, "p", zero=False)
    ef = unit_fraction(epsilon, "epsilon", zero=False)
    if probabilities is None:
        probabilities = admissibility_probabilities(G, pf)
    # prob < 1 - epsilon, in integers: no Fraction per path
    en, ed = ef.numerator, ef.denominator
    bad = [path for path, prob in probabilities.items()
           if prob.numerator * ed < (ed - en) * prob.denominator]
    return _audit(G, bad, Fraction(3 * G.n) / (2 * pf * pf * ef))


# ---------------------------------------------------------------------------
# pair and triple statistics


def _count_uncoverable(H: Hypergraph3, v: int, vp: int,
                       pairs: Iterable[tuple[int, int]],
                       params: EstimatorParams) -> int:
    """How many 4-cycles v w v' w' over the given pairs fail the test.

    A 4-cycle with a vertex outside H or an edge missing from S(H)
    counts as non-coverable outright (no disk of H can have that
    boundary). The link intersection of v and v' is built once, at the
    first valid cycle, and shared by all of them.
    """
    bad = 0
    li_apex = None
    for w, wp in pairs:
        try:
            cyc = _check_four_cycle(H, (v, w, vp, wp))
        except ValueError:
            bad += 1
            continue
        if li_apex is None:
            li_apex = link_intersection(H, v, vp)
        if not _coverable(H, cyc, params, li_apex):
            bad += 1
    return bad


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
