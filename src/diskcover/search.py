"""Randomized searches for homeomorphs, emitting verified certificates.

Four finders share one pipeline shape: pick an ambient link structure,
pick core vertices by dependent random choice, assemble boundary
4-cycles, then glue one pyramid disk per cycle with pairwise disjoint
interiors. The K_t and surface finders share their first stage
(`_best_link`): of 16 sampled vertices, or vertex pairs, the one whose
link, or common link, has the most edges. The surface finders read the
hub degree, spoke pairs and embedding labels off their `Pattern`
recipe. Every stage has a bounded retry budget keyed off the params
seed, so a run is a pure function of (H, params); failures are returned
as stage-tagged values, never raised. A finder only returns a
certificate after the independent verifier has passed it.

The searches are best-effort on arbitrary input. The density
assumptions behind the existence proofs are asymptotic and are not
enforced; on thin inputs the stage tags say where the pipeline died.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .certificates import (
    KTT,
    PROJECTIVE_PLANE,
    SPHERE,
    SURFACES,
    TARGETS,
    TORUS,
    HomeomorphCertificate,
    Pattern,
)
from .complexes import TwoComplex
from .coverability import (
    PYRAMID_ONLY,
    EstimatorParams,
    _admissible,
    _check_four_cycle,
    _count_uncoverable,
    least_path,
    pyramid_disk,
    triple_phi,
)
from .gamma import gamma, roles
from .hypergraph import (
    Hypergraph3,
    SkeletonGraph,
    codegree,
    common_neighborhood,
    link,
    link_intersection,
    skeleton,
)
from .rng import generator, mask_bits, row_masks, streams
from .verify import verify_certificate

_S_LINK = 0x51
_S_CORE = 0x52
_S_PATTERN = 0x53
_S_HUB = 0x54
_S_SPHERE = 0x55
_S_GLUE = 0x56

_SURFACE_P = 1 / 18
_SURFACE_EPS = 1 / 163

# Proof constants: core triples need codegree above _R and a phi sum,
# sampled from at most _PAIR_SAMPLE pairs each, below _PHI. Pattern
# redraws cost almost nothing, so their budget is far above max_retries.
_R = 2
_PHI = Fraction(1, 2)
_PAIR_SAMPLE = 20
_LINK_SAMPLE = 16
_PATTERN_RETRIES = 200
_GLUE_RETRIES = 256


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the homeomorph searches.

    t is the pattern size of the complete-pattern search. p and epsilon
    default per target when left None: t^-3 and 2 t^-6 for the
    complete-pattern search, 1/18 and 1/163 for the surface builders.
    Those defaults are calibrated for asymptotic inputs; desk-scale
    instances usually want larger values. trials and strategy go to the
    coverability estimator, seed keys every random draw, and max_retries
    is the per-stage budget for the expensive stages.
    """

    t: int = 4
    p: float | None = None
    epsilon: float | None = None
    trials: int = 64
    seed: int = 0
    max_retries: int = 10
    strategy: str = PYRAMID_ONLY

    def __post_init__(self):
        if self.t < 3:
            raise ValueError("target clique size must be at least 3")
        if self.max_retries < 1:
            raise ValueError("retry budgets must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for name, x in (("p", self.p), ("epsilon", self.epsilon)):
            if x is not None and not 0 < x < 1:
                raise ValueError(f"{name} must lie strictly between 0 and 1")

    def resolved(self, target: str) -> tuple[float, float]:
        if target == KTT:
            pd, ed = self.t ** -3, 2 * self.t ** -6
        else:
            pd, ed = _SURFACE_P, _SURFACE_EPS
        return (self.p if self.p is not None else pd,
                self.epsilon if self.epsilon is not None else ed)

    def estimator(self, target: str) -> EstimatorParams:
        p, eps = self.resolved(target)
        return EstimatorParams(p=p, epsilon=eps, trials=self.trials,
                               seed=self.seed, strategy=self.strategy)


@dataclass(frozen=True)
class SearchFailure:
    target: str
    stage: str
    detail: str
    retries: int


@dataclass(frozen=True)
class GlueFailure:
    """Per-cycle diagnostics from an exhausted gluing budget."""

    retries: int
    cycle_failures: tuple[int, ...]
    detail: str


def _open_sides(cyc: tuple[int, int, int, int], masks: list[int],
                free_mask: int) -> list[tuple[int, int, int, int]]:
    """The sides (v, v', w, w') of a 4-cycle a b c d, (a, c, b, d) then
    (b, d, a, c), whose ends' first frontiers LI(v, v')[w] and
    LI(v, v')[w'] both meet free_mask, read off its edge masks with no
    row: LI(a, c)[b] = S_ab & S_bc, LI(a, c)[d] = S_cd & S_da, and so on.
    `least_path` finds nothing on any other side through any part of
    free_mask."""
    a, b, c, d = cyc
    ab, bc, cd, da = masks
    return [side for side, ends in (((a, c, b, d), (ab & bc, cd & da)),
                                    ((b, d, a, c), (da & ab, bc & cd)))
            if all(e & free_mask for e in ends)]


def _cycle_pyramid(sides: list[tuple[int, int, int, int]],
                   rows: dict[tuple[int, int], list[int]],
                   part_mask: int) -> TwoComplex | None:
    """A pyramid disk over one 4-cycle with interior inside the part mask,
    from the first of its sides (v, v', w, w') with a path w..w', given
    the link intersection rows of each side's apex pair."""
    for v, vp, w, wp in sides:
        path = least_path(rows[v, vp], w, wp, part_mask)
        if path is not None:
            return pyramid_disk(v, vp, path)
    return None


def glue_disks(H: Hypergraph3, cycles, params: SearchParams):
    """One interior-disjoint pyramid disk per cycle, or a GlueFailure.

    Each attempt shuffles the vertices outside all cycles and splits
    them into len(cycles) nearly equal parts, then looks for a pyramid
    path per cycle with interior confined to its own part. For a cycle
    a b c d the apexes a, c are tried before b, d, and the path taken is
    the lexicographically smallest shortest path between the other two
    vertices in the apexes' link intersection. Parts are disjoint and avoid
    every cycle vertex, which is what the verifier's intersection check
    needs. Attempts are keyed by (seed, attempt index) and the first
    success by index wins, independent of execution order.

    Before any link row is built, each cycle's sides are screened on its
    edge masks from `_check_four_cycle` (`_open_sides`). A cycle with no
    open side is hopeless outright, and an apex pair's rows are built
    once, only for an open side.
    """
    cycs = [tuple(c) for c in cycles]
    if not cycs:
        return []
    # a cycle listed twice (the sphere's two disks) is checked, screened
    # and tried with every free vertex once
    masks = {c: _check_four_cycle(H, c)[1] for c in dict.fromkeys(cycs)}
    k = len(cycs)
    W = {v for c in masks for v in c}
    free_mask = ((1 << H.n) - 1) & ~sum(1 << v for v in W)
    sides = {c: _open_sides(c, m, free_mask) for c, m in masks.items()}
    pairs = dict.fromkeys((v, vp) for s in sides.values() for v, vp, _, _ in s)
    rows = {p: link_intersection(H, *p) for p in pairs}

    stuck = {c for c, s in sides.items()
             if _cycle_pyramid(s, rows, free_mask) is None}
    hopeless = [i for i, c in enumerate(cycs) if c in stuck]
    if hopeless:
        counts = tuple(1 if i in hopeless else 0 for i in range(k))
        return GlueFailure(
            0, counts,
            f"cycle(s) {hopeless} admit no pyramid disk even with every "
            "free vertex available")
    n_free = free_mask.bit_count()
    if n_free < k:
        return GlueFailure(
            0, tuple(0 for _ in range(k)),
            f"{n_free} free vertices cannot give {k} disjoint interiors")

    free = np.flatnonzero(mask_bits([free_mask], H.n))
    fail_counts = [0] * k
    base, extra = divmod(n_free, k)
    # the part of each position of a permuted `free`: the first `extra`
    # parts take base + 1 vertices, the rest base
    part_of = np.repeat(np.arange(k), [base + (i < extra) for i in range(k)])
    for _, gen in zip(range(_GLUE_RETRIES), streams(params.seed, _S_GLUE)):
        parts = np.zeros((k, H.n), dtype=bool)
        parts[part_of, free[gen.permutation(n_free)]] = True
        disks: list[TwoComplex] = []
        for i, part_mask in enumerate(row_masks(parts)):
            disk = _cycle_pyramid(sides[cycs[i]], rows, part_mask)
            if disk is None:
                fail_counts[i] += 1
                break
            disks.append(disk)
        else:
            return disks
    return GlueFailure(_GLUE_RETRIES, tuple(fail_counts),
                       "partition budget exhausted")


def _certify(H: Hypergraph3, target: str, t: int | None, pattern: Pattern,
             embedding: dict[str, int], params: SearchParams, retries: int):
    """Glue one disk per special cycle of the embedded pattern into a
    certificate and return it, carrying its report, once the verifier
    passes it; otherwise the glue or verify SearchFailure."""
    cycles = pattern.cycles_of(embedding)
    glued = glue_disks(H, cycles, params)
    if isinstance(glued, GlueFailure):
        return SearchFailure(target, "glue", glued.detail, glued.retries)
    cert = HomeomorphCertificate(target=target, t=t, embedding=embedding,
                                 cycles=cycles, disks=tuple(glued),
                                 seed=params.seed, retries=retries)
    report = verify_certificate(H, cert)
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        return SearchFailure(target, "verify",
                             f"verifier rejected: {', '.join(failed)}", retries)
    return replace(cert, report=report)


def _best_link(H: Hypergraph3, seed: int, arity: int):
    """Stage 1 of the K_t and surface finders: of _LINK_SAMPLE draws of
    `arity` vertices, the distinct sorted tuples in ascending order, the
    first whose link (common link, for a pair) has the most edges, and that
    graph; (None, None) when every sampled link is empty."""
    draws = generator(seed, _S_LINK).integers(0, H.n, size=(_LINK_SAMPLE, arity))
    best, best_G, best_e = None, None, 0
    for vs in sorted({tuple(sorted(d)) for d in draws.tolist()
                      if len(set(d)) == arity}):
        G = link(H, *vs)
        if (e := G.edge_count()) > best_e:
            best, best_G, best_e = vs, G, e
    return best, best_G


# ---------------------------------------------------------------------------
# complete-pattern search


def _pick_distinct(gen, pool: list[int], count: int) -> list[int] | None:
    if len(pool) < count:
        return None
    idx = gen.permutation(len(pool))[:count]
    return [pool[i] for i in idx]


def _sampled_psi(H: Hypergraph3, G: SkeletonGraph, v: int, vp: int,
                 est: EstimatorParams, gen) -> Fraction:
    """Estimate of psi(v, v') from a bounded sample of common-neighbour pairs."""
    common = sorted(common_neighborhood(G, (v, vp)))
    codeg = len(common)
    if codeg < 2:
        return Fraction(0)
    total = comb(codeg, 2)
    idx = np.arange(total)
    if total > _PAIR_SAMPLE:
        idx = np.sort(gen.permutation(total)[:_PAIR_SAMPLE])
    # unrank: pair (i, j), i < j, is number start[i] + j - i - 1 of the
    # lexicographic listing, start[i] = i (2 codeg - i - 1) / 2
    i = np.arange(codeg - 1)
    start = i * (2 * codeg - i - 1) // 2
    first = np.searchsorted(start, idx, side="right") - 1
    second = idx - start[first] + first + 1
    pairs = [(common[a], common[b])
             for a, b in zip(first.tolist(), second.tolist())]
    bad = _count_uncoverable(H, v, vp, pairs, est)
    return Fraction(bad, len(pairs)) * total / codeg


def find_k_t_homeomorph(H: Hypergraph3, params: SearchParams):
    """Search H for a homeomorph of the complete 3-uniform pattern on t vertices.

    Pipeline: (1) pick the link vertex u whose link graph has the most
    edges among a random sample; (2) dependent random choice inside
    G = H_u: draw w, then t core vertices from N(w), accepting when all
    triple codegrees clear r and the sampled phi sum stays below the
    threshold; (3) draw a pattern vertex for every pair and triple from
    the corresponding common neighbourhoods, rejecting collisions and
    any special 4-cycle that fails the coverability test; (4) glue one
    disk per special cycle and verify.
    """
    t = params.t
    est = params.estimator(KTT)

    # stage 1: the sampled vertex whose link graph has the most edges
    if H.n == 0 or not H.codes.size:
        return SearchFailure(KTT, "link-selection", "hypergraph has no edges", 0)
    best, G = _best_link(H, params.seed, 1)
    if G is None:
        return SearchFailure(KTT, "link-selection",
                             "every sampled link graph is empty",
                             _LINK_SAMPLE)
    [u] = best

    # stage 2: dependent random choice of the t core vertices
    core: list[int] | None = None
    candidates = sorted(v for v in G.vertices if G.degree(v) > 0)
    for _, gen in zip(range(params.max_retries), streams(params.seed, _S_CORE)):
        if not candidates:
            break
        w0 = candidates[int(gen.integers(0, len(candidates)))]
        W = sorted(common_neighborhood(G, (w0,)))
        vs = _pick_distinct(gen, W, t)
        if vs is None:
            continue
        codegrees = {triple: codegree(G, triple)
                     for triple in combinations(vs, 3)}
        if any(codeg <= _R for codeg in codegrees.values()):
            continue
        # both come in the order of vs, so a triple's pairs are keys as is
        psis = {(x, y): _sampled_psi(H, G, x, y, est, gen)
                for x, y in combinations(vs, 2)}
        phi_sum = sum(
            (triple_phi(psis[x, y], psis[x, z], psis[y, z], codeg)
             for (x, y, z), codeg in codegrees.items()), Fraction(0))
        if phi_sum < _PHI:
            core = vs
            break
    if core is None:
        return SearchFailure(KTT, "core-vertices",
                             "no accepted core draw (codegree floor or phi "
                             "threshold)", params.max_retries)

    # stages 3-4: pattern vertices for pairs, then triples, with
    # coverability; then glue and verify
    pattern = gamma(t)  # O(t^3) vertices: built only once a core stands
    # the pools depend on the core alone; an empty one fails every draw
    pools = [sorted(common_neighborhood(G, [core[i] for i in role]))
             for role in roles(t)[t:]]
    sizes = [len(pool) for pool in pools]
    for retry, gen in zip(range(_PATTERN_RETRIES if all(pools) else 0),
                          streams(params.seed, _S_PATTERN)):
        # one array draw gives the values of one scalar draw per pool
        values = core + [pool[i] for pool, i in
                         zip(pools, gen.integers(0, sizes).tolist())]
        if len(set(values)) != len(values):
            continue
        draw = dict(zip(pattern.labels, values))
        # the t - 2 cycles v w v' w' of each apex pair (v, v'), in one pass
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for v, w, vp, wp in pattern.cycles_of(draw):
            groups.setdefault((v, vp), []).append((w, wp))
        if all(_count_uncoverable(H, v, vp, pairs, est) == 0
               for (v, vp), pairs in groups.items()):
            return _certify(H, KTT, t, pattern, draw, params, retry)
    return SearchFailure(KTT, "pattern-vertices",
                         "pattern draws kept colliding or failing the "
                         "coverability test", _PATTERN_RETRIES)


# ---------------------------------------------------------------------------
# surface builders


def _find_surface(H: Hypergraph3, params: SearchParams, target: str):
    # the recipe's labels are u, u', v and then the hub's spokes w1, w2, ...
    # in order; the spokes of each cycle u w u' w' pair up for admissibility
    pattern = SURFACES[target]
    hub_degree = len(pattern.labels) - 3
    spoke_pairs = sorted((c[1] - 3, c[3] - 3) for c in pattern.cycles
                         if {c[0], c[2]} == {0, 1})
    est = params.estimator(target)

    # stage 1: the sampled apex pair whose common link has the most edges
    if H.n < len(pattern.labels) or not H.codes.size:
        return SearchFailure(target, "apex-selection",
                             "hypergraph too small or empty", 0)
    best, G = _best_link(H, params.seed, 2)
    if G is None:
        return SearchFailure(target, "apex-selection",
                             "no sampled apex pair has a common link edge",
                             _LINK_SAMPLE)
    u, up = best

    # stage 2: hub vertex with admissible spoke paths
    candidates = sorted(v for v in G.vertices if G.degree(v) >= hub_degree)
    for retry, gen in zip(range(params.max_retries),
                          streams(params.seed, _S_HUB)):
        if not candidates:
            break
        v = candidates[int(gen.integers(0, len(candidates)))]
        ws = _pick_distinct(gen, sorted(common_neighborhood(G, (v,))), hub_degree)
        if ws is None:
            continue
        if all(_admissible(G, ws[i], v, ws[j], est) for i, j in spoke_pairs):
            # stages 3-4: embed the fixed cycle recipe, glue and verify
            embedding = dict(zip(pattern.labels, (u, up, v, *ws)))
            return _certify(H, target, None, pattern, embedding, params, retry)
    return SearchFailure(target, "hub-selection",
                         f"no hub with {hub_degree} neighbours and "
                         "admissible spoke paths", params.max_retries)


def find_torus(H: Hypergraph3, params: SearchParams):
    """Build a torus homeomorph: 9 disks over the 9 fixed 4-cycles."""
    return _find_surface(H, params, TORUS)


def find_projective_plane(H: Hypergraph3, params: SearchParams):
    """Build a projective-plane homeomorph: 6 disks over 6 fixed 4-cycles."""
    return _find_surface(H, params, PROJECTIVE_PLANE)


def find_sphere(H: Hypergraph3, params: SearchParams):
    """Find a 4-cycle bounding two interior-disjoint disks (a 2-sphere).

    No coverability estimation is involved: candidate cycles go
    straight to the gluer, which needs two pyramid disks over disjoint
    vertex pools. Used by the threshold sweeps.
    """
    if H.n < 6:
        return SearchFailure(SPHERE, "cycle-selection",
                             "need at least 6 vertices", 0)
    skel = skeleton(H)
    stage = "cycle-selection"
    detail = "no 4-cycle with two spare common neighbours"
    for retry, gen in zip(range(params.max_retries),
                          streams(params.seed, _S_SPHERE)):
        # the first draw of the highest codegree, which must be at least 2;
        # only the winner's neighbours are listed
        codeg = {(a, c): (skel.adj_mask[a] & skel.adj_mask[c]).bit_count()
                 for a, c in gen.integers(0, H.n, size=(_LINK_SAMPLE, 2)).tolist()
                 if a != c}
        best = max(codeg, key=codeg.get, default=None)
        if best is None or codeg[best] < 2:
            continue
        a, c = best
        bd = _pick_distinct(gen, sorted(common_neighborhood(skel, best)), 2)
        result = _certify(H, SPHERE, None, SURFACES[SPHERE],
                          dict(zip("abcd", (a, bd[0], c, bd[1]))), params,
                          retry)
        if isinstance(result, HomeomorphCertificate):
            return result
        stage, detail = result.stage, result.detail
    return SearchFailure(SPHERE, stage, detail, params.max_retries)


FINDERS = {
    KTT: find_k_t_homeomorph,
    TORUS: find_torus,
    PROJECTIVE_PLANE: find_projective_plane,
    SPHERE: find_sphere,
}
assert set(FINDERS) == set(TARGETS), "one finder per target"
