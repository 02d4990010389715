"""Randomized searches for homeomorphs, emitting verified certificates.

Four finders share one pipeline shape: pick an ambient link structure,
pick core vertices by dependent random choice, assemble boundary
4-cycles, then glue one pyramid disk per cycle with pairwise disjoint
interiors. Every stage has a bounded retry budget keyed off the params
seed, so a run is a pure function of (H, params); failures are returned
as stage-tagged values, never raised. A finder only returns a
certificate after the independent verifier has passed it.

The searches are best-effort on arbitrary input. The density
assumptions behind the existence proofs are asymptotic and are not
enforced; on thin inputs the stage tags say where the pipeline died.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .certificates import (
    KTT,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    HomeomorphCertificate,
    surface_cycles,
)
from .complexes import TwoComplex
from .coverability import (
    PYRAMID_ONLY,
    EstimatorParams,
    _admissible,
    _check_four_cycle,
    _count_uncoverable,
    _coverable,
    least_path,
    pyramid_disk,
    triple_phi,
)
from .gamma import gamma, role_name
from .hypergraph import (
    Hypergraph3,
    SkeletonGraph,
    codegree,
    common_neighborhood,
    link,
    link_intersection,
    skeleton,
)
from .rng import generator
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


def _cycle_pyramid(cyc: tuple[int, int, int, int],
                   lis: tuple[SkeletonGraph, SkeletonGraph],
                   part_mask: int) -> TwoComplex | None:
    """A pyramid disk over one 4-cycle with interior inside the part mask."""
    a, b, c, d = cyc
    for (v, vp, w, wp), li in zip(((a, c, b, d), (b, d, a, c)), lis):
        path = least_path(li.adj_mask, w, wp, part_mask)
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
    """
    cycs = [_check_four_cycle(H, c) for c in cycles]
    if not cycs:
        return []
    k = len(cycs)
    W = {v for c in cycs for v in c}
    free = sorted(v for v in H.vertices if v not in W)
    lis = [
        (link_intersection(H, c[0], c[2]), link_intersection(H, c[1], c[3]))
        for c in cycs
    ]

    free_mask = 0
    for v in free:
        free_mask |= 1 << v
    hopeless = [i for i in range(k)
                if _cycle_pyramid(cycs[i], lis[i], free_mask) is None]
    if hopeless:
        counts = tuple(1 if i in hopeless else 0 for i in range(k))
        return GlueFailure(
            0, counts,
            f"cycle(s) {hopeless} admit no pyramid disk even with every "
            "free vertex available")
    if len(free) < k:
        return GlueFailure(
            0, tuple(0 for _ in range(k)),
            f"{len(free)} free vertices cannot give {k} disjoint interiors")

    fail_counts = [0] * k
    base, extra = divmod(len(free), k)
    for attempt in range(_GLUE_RETRIES):
        gen = generator(params.seed, _S_GLUE, attempt)
        order = [free[i] for i in gen.permutation(len(free))]
        disks: list[TwoComplex] = []
        pos = 0
        failed = -1
        for i in range(k):
            size = base + (1 if i < extra else 0)
            part_mask = 0
            for v in order[pos:pos + size]:
                part_mask |= 1 << v
            pos += size
            disk = _cycle_pyramid(cycs[i], lis[i], part_mask)
            if disk is None:
                failed = i
                break
            disks.append(disk)
        if failed < 0:
            return disks
        fail_counts[failed] += 1
    return GlueFailure(_GLUE_RETRIES, tuple(fail_counts),
                       "partition budget exhausted")


def _certify(H: Hypergraph3, target: str, t: int | None,
             embedding: dict[str, int], cycles, params: SearchParams,
             retries: int):
    """Glue one disk per cycle into a certificate and return it once the
    verifier passes it; otherwise the glue or verify SearchFailure."""
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
    return cert


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
    pairs = list(combinations(common, 2))
    if len(pairs) > _PAIR_SAMPLE:
        idx = gen.permutation(len(pairs))[:_PAIR_SAMPLE]
        pairs = [pairs[i] for i in sorted(idx)]
    bad = _count_uncoverable(H, v, vp, pairs, est)
    return Fraction(bad, len(pairs)) * comb(codeg, 2) / codeg


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
    pattern = gamma(t)

    # stage 1: link selection over a sample of candidate vertices
    if H.n == 0 or not H.codes.size:
        return SearchFailure(KTT, "link-selection", "hypergraph has no edges", 0)
    gen = generator(params.seed, _S_LINK)
    cand = sorted({int(x) for x in gen.integers(0, H.n, size=_LINK_SAMPLE)})
    best_u, best_G, best_e = -1, None, -1
    for u in cand:
        Gu = link(H, u)
        e = Gu.edge_count()
        if e > best_e:
            best_u, best_G, best_e = u, Gu, e
    if best_e <= 0:
        return SearchFailure(KTT, "link-selection",
                             "every sampled link graph is empty",
                             _LINK_SAMPLE)
    u, G = best_u, best_G

    # stage 2: dependent random choice of the t core vertices
    core: list[int] | None = None
    candidates = sorted(v for v in G.vertices if G.degree(v) > 0)
    for retry in range(params.max_retries):
        gen = generator(params.seed, _S_CORE, retry)
        if not candidates:
            break
        w0 = candidates[int(gen.integers(0, len(candidates)))]
        W = sorted(common_neighborhood(G, (w0,)))
        vs = _pick_distinct(gen, W, t)
        if vs is None:
            continue
        if any(codegree(G, triple) <= _R
               for triple in combinations(vs, 3)):
            continue
        psis = {
            frozenset(pair): _sampled_psi(H, G, pair[0], pair[1], est, gen)
            for pair in combinations(vs, 2)
        }
        phi_sum = sum(
            (triple_phi(psis[frozenset((x, y))], psis[frozenset((x, z))],
                        psis[frozenset((y, z))], codegree(G, (x, y, z)))
             for x, y, z in combinations(vs, 3)), Fraction(0))
        if phi_sum < _PHI:
            core = vs
            break
    if core is None:
        return SearchFailure(KTT, "core-vertices",
                             "no accepted core draw (codegree floor or phi "
                             "threshold)", params.max_retries)

    # stage 3: pattern vertices for pairs, then triples, with coverability
    embedding: dict[str, int] | None = None
    cycles: tuple[tuple[int, int, int, int], ...] | None = None
    used_retries = 0
    # the pools depend on the core alone; an empty one fails every draw
    pools = {role: sorted(common_neighborhood(G, [core[i] for i in role]))
             for role in pattern.roles[t:]}
    for retry in range(_PATTERN_RETRIES if all(pools.values()) else 0):
        gen = generator(params.seed, _S_PATTERN, retry)
        image: dict[tuple[int, ...], int] = {(i,): core[i] for i in range(t)}
        for role, pool in pools.items():
            image[role] = pool[int(gen.integers(0, len(pool)))]
        values = [image[r] for r in pattern.roles]
        if len(set(values)) != len(values):
            continue
        cand_cycles = tuple(
            (values[a], values[b], values[c], values[d])
            for a, b, c, d in pattern.special_cycles)
        if all(_coverable(H, _check_four_cycle(H, cyc), est)
               for cyc in cand_cycles):
            embedding = {role_name(r): image[r] for r in pattern.roles}
            cycles = cand_cycles
            used_retries = retry
            break
    if embedding is None or cycles is None:
        return SearchFailure(KTT, "pattern-vertices",
                             "pattern draws kept colliding or failing the "
                             "coverability test", _PATTERN_RETRIES)

    # stage 4: glue and verify
    return _certify(H, KTT, t, embedding, cycles, params, used_retries)


# ---------------------------------------------------------------------------
# surface builders


def _find_surface(H: Hypergraph3, params: SearchParams, target: str):
    # the hub's spokes pair up (w1, w2), (w3, w4), ... for admissibility
    hub_degree = 6 if target == TORUS else 4
    hub_paths = ((0, 1), (2, 3), (4, 5))[:hub_degree // 2]
    est = params.estimator(target)

    # stage 1: apex pair maximizing the common-link edge count
    if H.n < hub_degree + 3 or not H.codes.size:
        return SearchFailure(target, "apex-selection",
                             "hypergraph too small or empty", 0)
    gen = generator(params.seed, _S_LINK)
    pairs = set()
    draws = gen.integers(0, H.n, size=(_LINK_SAMPLE, 2))
    for a, b in draws:
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    best, best_e = None, -1
    for a, b in sorted(pairs):
        li = link_intersection(H, a, b)
        e = li.edge_count()
        if e > best_e:
            best, best_e = (a, b, li), e
    if best is None or best_e <= 0:
        return SearchFailure(target, "apex-selection",
                             "no sampled apex pair has a common link edge",
                             _LINK_SAMPLE)
    u, up, G = best

    # stage 2: hub vertex with admissible spoke paths
    hub = None
    candidates = sorted(v for v in G.vertices if G.degree(v) >= hub_degree)
    used_retries = 0
    for retry in range(params.max_retries):
        if not candidates:
            break
        gen = generator(params.seed, _S_HUB, retry)
        v = candidates[int(gen.integers(0, len(candidates)))]
        ws = _pick_distinct(gen, sorted(common_neighborhood(G, (v,))), hub_degree)
        if ws is None:
            continue
        if all(_admissible(G, ws[i], v, ws[j], est) for i, j in hub_paths):
            hub = (v, ws)
            used_retries = retry
            break
    if hub is None:
        return SearchFailure(target, "hub-selection",
                             f"no hub with {hub_degree} neighbours and "
                             "admissible spoke paths", params.max_retries)
    v, ws = hub

    # stages 3-4: assemble the fixed cycle list, glue and verify
    embedding = {"u": u, "u'": up, "v": v}
    embedding.update({f"w{i + 1}": ws[i] for i in range(hub_degree)})
    cycles = surface_cycles(target, embedding)
    return _certify(H, target, None, embedding, cycles, params, used_retries)


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
    skel = skeleton(H)
    if H.n < 6:
        return SearchFailure(SPHERE, "cycle-selection",
                             "need at least 6 vertices", 0)
    stage = "cycle-selection"
    detail = "no 4-cycle with two spare common neighbours"
    for retry in range(params.max_retries):
        gen = generator(params.seed, _S_SPHERE, retry)
        draws = gen.integers(0, H.n, size=(_LINK_SAMPLE, 2))
        best = None
        best_c = 1
        # rank the draws by codegree; only the winner's neighbours are listed
        for a, c in draws.tolist():
            if a == c:
                continue
            k = (skel.adj_mask[a] & skel.adj_mask[c]).bit_count()
            if k > best_c:
                best, best_c = (a, c), k
        if best is None:
            continue
        a, c = best
        bd = _pick_distinct(gen, sorted(common_neighborhood(skel, best)), 2)
        if bd is None:
            continue
        cycle = (a, bd[0], c, bd[1])
        result = _certify(H, SPHERE, None, dict(zip("abcd", cycle)),
                          (cycle, cycle), params, retry)
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
