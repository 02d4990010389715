import gc
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from diskcover import coverability, hypergraph, search
from diskcover.certificates import (KTT, PROJECTIVE_PLANE, SPHERE, TARGETS,
                                    TORUS, HomeomorphCertificate,
                                    serialize_certificate)
from diskcover.complexes import boundary, classify, is_boundary_inducing
from diskcover.generators import random_hypergraph
from diskcover.coverability import EstimatorParams, pair_psi
from diskcover.hypergraph import (Hypergraph3, SkeletonGraph,
                                  complete_hypergraph, link, link_intersection)
from diskcover.rng import generator
from diskcover.search import (FINDERS, GlueFailure, SearchFailure,
                              SearchParams, find_k_t_homeomorph,
                              find_projective_plane, find_sphere, find_torus,
                              glue_disks)
from diskcover.verify import verify_certificate

DESK = SearchParams(p=0.5, epsilon=0.1)


def union_of(disks):
    X = disks[0]
    for d in disks[1:]:
        X = X.union(d)
    return X


def test_search_params_validation_and_defaults():
    with pytest.raises(ValueError):
        SearchParams(t=2)
    with pytest.raises(ValueError):
        SearchParams(max_retries=0)
    # a given p or epsilon is range-checked at once, whatever the target
    for bad in ({"p": 2}, {"p": 0}, {"epsilon": 1}, {"epsilon": float("nan")}):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            SearchParams(**bad)
    p, eps = SearchParams(t=4).resolved(KTT)
    assert p == pytest.approx(4 ** -3)
    assert eps == pytest.approx(2 * 4 ** -6)
    p, eps = SearchParams().resolved(TORUS)
    assert p == pytest.approx(1 / 18)
    assert eps == pytest.approx(1 / 163)
    est = DESK.estimator(TORUS)
    assert (est.p, est.epsilon) == (0.5, 0.1)


def test_finder_registry_covers_targets():
    assert set(FINDERS) == set(TARGETS)


# ---------------------------------------------------------------------------
# gluing


def test_glue_disks_complete():
    H = complete_hypergraph(12)
    cycles = [(0, 4, 1, 5), (0, 6, 2, 7)]
    disks = glue_disks(H, cycles, DESK)
    assert not isinstance(disks, GlueFailure)
    assert len(disks) == 2
    interiors = []
    for cyc, d in zip(cycles, disks):
        assert classify(d).kind == "Disk"
        assert is_boundary_inducing(d)
        assert set(boundary(d).cycle) == set(cyc)
        interiors.append(d.interior_vertices())
    assert not interiors[0] & interiors[1]
    cycle_verts = {v for c in cycles for v in c}
    assert not (interiors[0] | interiors[1]) & cycle_verts


def test_glue_disks_same_cycle_twice(monkeypatch):
    # as the sphere finder passes it: the cycle is checked, and the rows of
    # its two link intersections built, once
    H = complete_hypergraph(8)
    cyc = (0, 2, 1, 3)
    calls = []
    for name in ("_check_four_cycle", "link_intersection"):
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, real=real, name=name:
                            calls.append((name, a[1:])) or real(*a))
    disks = glue_disks(H, [cyc, cyc], DESK)
    assert calls == [("_check_four_cycle", (cyc,)),
                     ("link_intersection", (0, 1)),
                     ("link_intersection", (2, 3))]
    assert not isinstance(disks, GlueFailure)
    assert union_of(disks).triangles == disks[0].triangles | disks[1].triangles
    assert not disks[0].interior_vertices() & disks[1].interior_vertices()


def test_glue_disks_builds_each_apex_pairs_rows_once(monkeypatch):
    """On a K_4 certificate's 12 cycles the gluer asks for the rows of each
    of the 18 distinct apex pairs once (6 pairs (v_i, v_j) of two cycles
    each, 12 pairs (v_ij, v_ijk) of one) and builds no graph; its disks
    are the certificate's."""
    H = complete_hypergraph(30)
    cert = find_k_t_homeomorph(H, replace(DESK, t=4))
    asked = Counter()
    monkeypatch.setattr(search, "link_intersection", lambda H, v, vp:
                        asked.update([(v, vp)]) or link_intersection(H, v, vp))
    for build in ("__init__", "_from_masks"):
        monkeypatch.setattr(SkeletonGraph, build, lambda *a: pytest.fail(
            "the gluer built a graph"))
    disks = glue_disks(H, cert.cycles, replace(DESK, seed=cert.seed))
    pairs = {p for a, b, c, d in cert.cycles for p in ((a, c), (b, d))}
    assert len(pairs) == 18 and asked == Counter(pairs)
    assert tuple(disks) == cert.disks


def test_glue_disks_hopeless_cycle(monkeypatch):
    # the skeleton contains the 4-cycle but H has no covering pyramid; the
    # edge masks already show it (LI(0, 2)[3] = S_23 & S_30 and
    # LI(1, 3)[0] = S_01 & S_30 are empty), so no link row is built
    H = Hypergraph3(6, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 5)])
    monkeypatch.setattr(hypergraph, "_link_row", lambda *a: pytest.fail(
        "a link row was built"))
    res = glue_disks(H, [(0, 1, 2, 3)], DESK)
    assert isinstance(res, GlueFailure)
    assert res.retries == 0
    assert "no pyramid disk" in res.detail
    assert res.cycle_failures[0] > 0
    # listed twice, the cycle is tried once and reported at both places
    res = glue_disks(H, [(0, 1, 2, 3)] * 2, DESK)
    assert res.cycle_failures == (1, 1)
    assert res.detail.startswith("cycle(s) [0, 1] admit no pyramid disk")


def test_glue_disks_not_enough_free_vertices():
    H = complete_hypergraph(5)
    res = glue_disks(H, [(0, 1, 2, 3), (0, 1, 2, 4)], DESK)
    assert isinstance(res, GlueFailure)


def _glue_or_error(glue, H, cycles, params):
    try:
        return glue(H, cycles, params)
    except ValueError as err:
        return str(err)


def _same_glue(H, cycles, params):
    """glue_disks, on a copy of H that keeps no link row and then on H once
    the rows-first reference has built its rows there, returns what the
    reference does."""
    fresh = Hypergraph3._from_codes(H.n, H.codes)
    got = _glue_or_error(glue_disks, fresh, cycles, params)
    want = _glue_or_error(bf.glue_disks_rows_first, H, cycles, params)
    assert got == want
    assert _glue_or_error(glue_disks, H, cycles, params) == want
    return got


# two cycles whose only pyramids run through vertex 4: 1-4-3 in LI(0, 2)
# and 6-4-8 in LI(5, 7); the free vertices are 4 and 9, so every
# partition starves one of them
_ONE_SHARED_APEX = Hypergraph3(10, [(0, 1, 4), (1, 2, 4), (0, 3, 4), (2, 3, 4),
                                    (4, 5, 6), (4, 6, 7), (4, 5, 8),
                                    (4, 7, 8)])


@pytest.mark.parametrize("H, cycles, expect", [
    (Hypergraph3(6, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 5)]),
     [(0, 1, 2, 3)] * 2, "cycle(s) [0, 1] admit no pyramid disk"),
    # side (0, 2) passes the screen (frontiers 4 and 5), but no path joins
    # them in LI(0, 2); side (1, 3) fails it
    (Hypergraph3(6, [(0, 1, 4), (1, 2, 4), (0, 3, 5), (2, 3, 5)]),
     [(0, 1, 2, 3)], "cycle(s) [0] admit no pyramid disk"),
    (complete_hypergraph(6), [(0, 1, 2, 3), (0, 1, 2, 4)],
     "1 free vertices cannot give 2 disjoint interiors"),
    (_ONE_SHARED_APEX, [(0, 1, 2, 3), (5, 6, 7, 8)],
     "partition budget exhausted"),
    (complete_hypergraph(8), [(0, 2, 1, 3)] * 2, None),
    (_ONE_SHARED_APEX, [(0, 1, 2, 3), (0, 1, 2, 9)],
     "cycle edge 2-9 missing from the skeleton"),
], ids=["screened", "hopeless-after-rows", "too-few-free", "budget",
        "glued", "missing-edge"])
def test_glue_disks_matches_rows_first_reference(H, cycles, expect):
    got = _same_glue(H, cycles, DESK)
    if expect is None:
        assert isinstance(got, list)
    else:
        assert (got if isinstance(got, str) else got.detail).startswith(expect)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_glue_disks_matches_rows_first_reference_on_random_hosts(data):
    n = data.draw(st.integers(5, 9), label="n")
    H = random_hypergraph(n, data.draw(st.sampled_from((0.2, 0.4, 0.7))),
                          data.draw(st.integers(0, 1 << 16)))
    quad = st.permutations(range(n)).map(lambda p: tuple(p[:4]))
    cycles = data.draw(st.lists(quad, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # one cycle listed twice, as the sphere finder lists its cycle
        cycles[-1] = cycles[0]
    _same_glue(H, cycles, replace(DESK, seed=data.draw(st.integers(0, 3))))
    # the screen opens exactly the sides whose two first frontiers in the
    # link intersection rows meet the free vertices
    free = (1 << n) - 1 & ~sum(1 << v for v in {v for c in cycles for v in c})
    for cyc in cycles:
        try:
            _, masks = coverability._check_four_cycle(H, cyc)
        except ValueError:
            continue
        a, b, c, d = cyc
        assert search._open_sides(cyc, masks, free) == [
            (v, vp, w, wp) for v, vp, w, wp in ((a, c, b, d), (b, d, a, c))
            if all(link_intersection(H, v, vp)[x] & free for x in (w, wp))]


# ---------------------------------------------------------------------------
# sphere


def test_find_sphere_k8():
    H = complete_hypergraph(8)
    cert = find_sphere(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    assert cert.target == SPHERE
    assert len(cert.disks) == 2
    assert cert.cycles[0] == cert.cycles[1]
    report = verify_certificate(H, cert)
    assert report.passed and report.target_confirmed
    c = classify(union_of(cert.disks))
    assert (c.kind, c.euler, c.orientable) == ("ClosedSurface", 2, True)


def test_find_sphere_too_small():
    res = find_sphere(complete_hypergraph(5), DESK)
    assert isinstance(res, SearchFailure)
    assert res.stage == "cycle-selection"


def test_find_sphere_deterministic():
    H = complete_hypergraph(9)
    a = find_sphere(H, SearchParams(seed=11, p=0.5, epsilon=0.1))
    b = find_sphere(H, SearchParams(seed=11, p=0.5, epsilon=0.1))
    assert serialize_certificate(a) == serialize_certificate(b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_find_sphere_builds_only_the_rows_it_intersects(monkeypatch, seed):
    H = random_hypergraph(200, 0.14, seed)
    asked = set()

    def recording(H, v, vp):
        asked.update((v, vp))
        return link_intersection(H, v, vp)

    monkeypatch.setattr(search, "link_intersection", recording)
    find_sphere(H, replace(DESK, seed=seed))
    assert asked and set(H._rows) == asked


# ---------------------------------------------------------------------------
# torus and projective plane


def test_find_torus_k20():
    H = complete_hypergraph(20)
    cert = find_torus(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    assert cert.target == TORUS
    assert len(cert.cycles) == 9 and len(cert.disks) == 9
    assert set(cert.embedding) == {"u", "u'", "v",
                                   "w1", "w2", "w3", "w4", "w5", "w6"}
    assert len(set(cert.embedding.values())) == 9
    report = verify_certificate(H, cert)
    assert report.passed
    c = classify(union_of(cert.disks))
    assert (c.kind, c.euler, c.orientable) == ("ClosedSurface", 0, True)


def test_find_projective_plane_k15():
    H = complete_hypergraph(15)
    cert = find_projective_plane(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    assert cert.target == PROJECTIVE_PLANE
    assert len(cert.cycles) == 6 and len(cert.disks) == 6
    assert set(cert.embedding) == {"u", "u'", "v", "w1", "w2", "w3", "w4"}
    report = verify_certificate(H, cert)
    assert report.passed
    c = classify(union_of(cert.disks))
    assert (c.kind, c.euler, c.orientable) == ("ClosedSurface", 1, False)


@pytest.mark.parametrize("finder", [find_torus, find_projective_plane])
def test_surface_apex_stage_ands_each_pair_once(monkeypatch, finder):
    """The apex stage ranks its sampled pairs by the edges of their common
    link graphs, as the K_t finder ranks its sampled links: one
    `link_intersection` and one graph per distinct sampled pair, in
    sorted order, and the winner's graph is kept, not built again."""
    asked, built = [], []
    monkeypatch.setattr(hypergraph, "link_intersection", lambda H, v, vp:
                        asked.append((v, vp)) or link_intersection(H, v, vp))
    real = SkeletonGraph._from_masks.__func__
    monkeypatch.setattr(SkeletonGraph, "_from_masks", classmethod(
        lambda cls, masks: built.append(list(masks)) or real(cls, masks)))
    cert = finder(complete_hypergraph(20), DESK)
    assert isinstance(cert, HomeomorphCertificate)
    draws = generator(DESK.seed, search._S_LINK).integers(
        0, 20, size=(search._LINK_SAMPLE, 2)).tolist()
    pairs = sorted({(min(a, b), max(a, b)) for a, b in draws if a != b})
    assert len(pairs) > 1 and asked == pairs
    assert built == [[x for x in range(20) if x not in p] for p in pairs]
    assert (cert.embedding["u"], cert.embedding["u'"]) in pairs


@pytest.mark.parametrize("finder, n, spokes", [
    (find_torus, 20, [("w1", "w2"), ("w3", "w4"), ("w5", "w6")]),
    (find_projective_plane, 15, [("w1", "w2"), ("w3", "w4")]),
], ids=["torus", "rp2"])
def test_surface_hub_asks_the_recipes_spoke_pairs(monkeypatch, finder, n,
                                                 spokes):
    # the spoke pairs come from the recipe's cycles through u and u'; on a
    # complete host the first hub draw passes, so every pair is asked once
    asked = []
    real = search._admissible
    monkeypatch.setattr(search, "_admissible", lambda G, x, v, y, est:
                        asked.append((x, v, y)) or real(G, x, v, y, est))
    cert = finder(complete_hypergraph(n), DESK)
    assert isinstance(cert, HomeomorphCertificate) and cert.retries == 0
    emb = cert.embedding
    assert asked == [(emb[w], emb["v"], emb[wp]) for w, wp in spokes]


def test_one_vertex_link_draws_match_a_flat_draw():
    # the K_t finder's stage 1 draws its vertices as (_LINK_SAMPLE, 1); the
    # values must be those of the flat draw it replaced, or every K_t
    # certificate would move
    for n in (7, 30, 100, 1000):
        for seed in range(50):
            flat = generator(seed, search._S_LINK).integers(
                0, n, size=search._LINK_SAMPLE)
            column = generator(seed, search._S_LINK).integers(
                0, n, size=(search._LINK_SAMPLE, 1))
            assert column.ravel().tolist() == flat.tolist()


def test_find_torus_hub_starved():
    # K_8 cannot host six distinct hub neighbours after the apexes go
    res = find_torus(complete_hypergraph(8), DESK)
    assert isinstance(res, SearchFailure)
    assert res.stage in ("apex-selection", "hub-selection")


def test_surface_failure_on_empty():
    H = Hypergraph3(10, [])
    res = find_torus(H, DESK)
    assert isinstance(res, SearchFailure)
    assert res.stage == "apex-selection"
    res = find_k_t_homeomorph(H, DESK)
    assert res.stage == "link-selection"


def test_find_torus_asymptotic_defaults_fail_at_desk_scale():
    # at p = 1/18 the hub-path admissibility probability on K_20 is
    # 1 - (17/18)^15, about 0.576, far below 1 - 1/163
    res = find_torus(complete_hypergraph(20), SearchParams())
    assert isinstance(res, SearchFailure)
    assert res.stage == "hub-selection"


# ---------------------------------------------------------------------------
# complete pattern


def test_find_ktt_t3_k12():
    H = complete_hypergraph(12)
    cert = find_k_t_homeomorph(H, SearchParams(t=3, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate)
    assert cert.target == KTT and cert.t == 3
    assert len(cert.disks) == 3  # 3 * C(3,3)
    assert len(cert.embedding) == 7  # 3 + 3 + 1
    assert len(set(cert.embedding.values())) == 7
    report = verify_certificate(H, cert)
    assert report.passed and report.target_confirmed


def test_find_ktt_t4_k30():
    H = complete_hypergraph(30)
    cert = find_k_t_homeomorph(H, SearchParams(t=4, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate)
    assert len(cert.disks) == 12
    assert len(cert.embedding) == 14
    assert verify_certificate(H, cert).passed


def test_ktt_certificates_stay_small():
    """Twenty K_4 certificates on K_30 kept alive retain at most 12 KB
    each: their disks keep their triangles, and derive edge incidences,
    edges and vertices on read."""
    H = complete_hypergraph(30)
    for u in H.vertices:  # link rows are kept on the host; build them first
        H.row(u)
    params = SearchParams(t=4, p=0.5, epsilon=0.1)
    find_k_t_homeomorph(H, params)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = [find_k_t_homeomorph(H, replace(params, seed=s))
                 for s in range(1, 21)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(isinstance(c, HomeomorphCertificate) for c in certs)
    assert retained / len(certs) <= 12 * 1024
    for disk in (d for c in certs for d in c.disks):
        assert disk.vertices == bf.complex_vertices(disk.triangles)
        assert disk.edges == bf.complex_edges(disk.triangles)
        assert disk.edges == frozenset(disk.edge_incidence)


def test_ktt_pattern_pools_are_built_once_per_core(monkeypatch):
    # one core draw lists N(w) and the six pairs' common neighbourhoods;
    # stage 3 then lists the ten pair and triple pools once, though it
    # draws nine times at seed 0
    calls = []
    real = search.common_neighborhood
    monkeypatch.setattr(search, "common_neighborhood",
                        lambda G, vs: calls.append(len(vs)) or real(G, vs))
    cert = find_k_t_homeomorph(complete_hypergraph(30),
                               SearchParams(t=4, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate) and cert.retries == 8
    assert calls == [1] + [2] * 6 + [2] * 6 + [3] * 4


def test_one_array_draw_matches_one_scalar_draw_per_pool():
    # stage 3 draws every pool's index in one gen.integers(0, sizes) call;
    # it must give the values, and leave the stream where, the scalar
    # calls it replaced did, or every K_t certificate would move
    rnd = random.Random(0)
    for seed in range(500):
        sizes = [rnd.choice((1, 2, rnd.randrange(1, 50), rnd.randrange(1, 5000),
                             rnd.randrange(1, 1 << 40)))
                 for _ in range(rnd.randrange(1, 13))]
        one, each = generator(seed, search._S_PATTERN), generator(seed, search._S_PATTERN)
        assert one.integers(0, sizes).tolist() == [int(each.integers(0, s))
                                                   for s in sizes]
        assert one.integers(0, 1 << 62) == each.integers(0, 1 << 62)


def test_ktt_pattern_stage_runs_one_lane_pass_per_apex_pair(monkeypatch):
    """The pattern stage decides a draw's special cycles v_i v_ij v_j v_ijk
    in one lane pass per apex pair (v_i, v_j), over its t - 2 cycles, in
    first-appearance order: at seed 0 the core stage's 6 passes over
    sampled pairs, then 6 for the accepted draw. A find builds the rows of
    30 link intersections (one per lane pass, 12 in all, and the gluer's
    18, one per distinct apex pair of its 12 cycles) and checks each of
    its 12 cycles once, in the gluer."""
    passes = []
    real = coverability._cycle_hits

    def record(H, v, vp, pairs, params, need=None):
        passes.append((v, vp, list(pairs)))
        return real(H, v, vp, pairs, params, need)

    monkeypatch.setattr(coverability, "_cycle_hits", record)
    calls = Counter()
    for f in (hypergraph.link_intersection,
              coverability._check_four_cycle):
        def counting(*args, f=f):
            calls[f.__name__] += 1
            return f(*args)

        for name, mod in list(sys.modules.items()):
            if (name.split(".")[0] == "diskcover"
                    and getattr(mod, f.__name__, None) is f):
                monkeypatch.setattr(mod, f.__name__, counting)
    H = complete_hypergraph(30)
    for seed in range(3):
        del passes[:]
        calls.clear()
        cert = find_k_t_homeomorph(H, SearchParams(t=4, p=0.5, epsilon=0.1,
                                                   seed=seed))
        assert isinstance(cert, HomeomorphCertificate)
        assert calls == {"link_intersection": 30,
                         "_check_four_cycle": 12}
    del passes[:]
    cert = find_k_t_homeomorph(H, SearchParams(t=4, p=0.5, epsilon=0.1))
    groups = {}
    for v, w, vp, wp in cert.cycles:
        groups.setdefault((v, vp), []).append((w, wp))
    assert [len(pairs) for pairs in groups.values()] == [2] * 6
    assert [len(pairs) for _, _, pairs in passes] == (
        [search._PAIR_SAMPLE] * 6 + [2] * 6)
    assert passes[6:] == [(v, vp, pairs) for (v, vp), pairs in groups.items()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_psi_unranks_the_listed_pairs(monkeypatch, seed):
    """The core stage's sample of common-neighbour pairs, unranked from
    the sorted draw of `gen.permutation`, is the list the full lexicographic
    listing gave, in order: every pair up to 20 of them, and from 21 (codeg
    7) on the 20 sorted draws, with labels not 0..codeg - 1."""
    pairs = []

    def record(H, v, vp, sample, est):
        pairs.append(sample)
        return 0

    monkeypatch.setattr(search, "_count_uncoverable", record)
    H = complete_hypergraph(4)
    est = EstimatorParams(p=0.5, epsilon=0.1)
    rnd = random.Random(seed)
    for codeg in range(0, 60):
        common = sorted(rnd.sample(range(2, 200), codeg))
        G = SkeletonGraph(range(200), [(x, c) for c in common for x in (0, 1)])
        del pairs[:]
        search._sampled_psi(H, G, 0, 1, est, generator(seed, codeg))
        listed = list(combinations(common, 2))
        if len(listed) > search._PAIR_SAMPLE:
            idx = generator(seed, codeg).permutation(len(listed))
            listed = [listed[i] for i in sorted(idx[:search._PAIR_SAMPLE])]
        assert pairs == ([listed] if codeg >= 2 else [])
        assert all(type(x) is int for sample in pairs for pair in sample
                   for x in pair)


def test_ktt_search_and_pair_psi_build_no_skeleton(monkeypatch):
    # 4-cycle edges are read from the host's link rows, so neither path
    # needs the skeleton of the whole host
    calls = []
    real = hypergraph.skeleton

    def counting(H):
        calls.append(H)
        return real(H)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "diskcover"
                and getattr(mod, "skeleton", None) is real):
            monkeypatch.setattr(mod, "skeleton", counting)
    H = complete_hypergraph(12)
    cert = find_k_t_homeomorph(H, SearchParams(t=3, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate)
    stats = pair_psi(H, link(H, 0), 1, 2,
                     EstimatorParams(p=0.5, epsilon=0.1, trials=16))
    assert stats.codeg == 9
    assert calls == []


def test_find_ktt_deterministic_failure_stage():
    H = Hypergraph3(6, [(0, 1, 2), (3, 4, 5)])
    a = find_k_t_homeomorph(H, SearchParams(t=4, seed=2, p=0.5, epsilon=0.1))
    b = find_k_t_homeomorph(H, SearchParams(t=4, seed=2, p=0.5, epsilon=0.1))
    assert isinstance(a, SearchFailure)
    assert (a.stage, a.detail) == (b.stage, b.detail)


def test_ktt_pattern_is_built_only_for_stage_3(monkeypatch):
    # gamma(t) has O(t^3) vertices; a search that fails before stage 3,
    # as every large t does on K_8, must not build it
    def no_pattern(t):
        raise AssertionError(f"gamma({t}) built")
    monkeypatch.setattr(search, "gamma", no_pattern)
    res = find_k_t_homeomorph(complete_hypergraph(8),
                              SearchParams(t=60, p=0.5, epsilon=0.1))
    assert isinstance(res, SearchFailure) and res.stage == "core-vertices"


# ---------------------------------------------------------------------------
# the shared glue and verify tail


@pytest.mark.parametrize("target, n, params", [
    (SPHERE, 8, DESK),
    (PROJECTIVE_PLANE, 15, DESK),
    (KTT, 12, SearchParams(t=3, p=0.5, epsilon=0.1)),
])
def test_finders_report_verifier_rejection(monkeypatch, target, n, params):
    """Every finder turns a rejected certificate into a "verify" failure
    that names the failed checks."""
    def reject(H, cert):
        report = verify_certificate(H, cert)
        checks = tuple(replace(c, passed=c.name != "pairwise-intersections")
                       for c in report.checks)
        return replace(report, passed=False, checks=checks)

    monkeypatch.setattr(search, "verify_certificate", reject)
    res = FINDERS[target](complete_hypergraph(n), params)
    assert isinstance(res, SearchFailure)
    assert (res.stage, res.detail) == (
        "verify", "verifier rejected: pairwise-intersections")
