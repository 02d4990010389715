import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest

import bruteforce as bf
from diskcover import hypergraph, search
from diskcover.certificates import (KTT, PROJECTIVE_PLANE, SPHERE, TARGETS,
                                    TORUS, HomeomorphCertificate,
                                    serialize_certificate)
from diskcover.complexes import boundary, classify, is_boundary_inducing
from diskcover.generators import random_hypergraph
from diskcover.coverability import EstimatorParams, pair_psi
from diskcover.hypergraph import (Hypergraph3, complete_hypergraph, link,
                                  link_intersection)
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


def test_glue_disks_same_cycle_twice():
    H = complete_hypergraph(8)
    cyc = (0, 2, 1, 3)
    disks = glue_disks(H, [cyc, cyc], DESK)
    assert not isinstance(disks, GlueFailure)
    assert union_of(disks).triangles == disks[0].triangles | disks[1].triangles
    assert not disks[0].interior_vertices() & disks[1].interior_vertices()


def test_glue_disks_hopeless_cycle():
    # the skeleton contains the 4-cycle but H has no covering pyramid
    H = Hypergraph3(6, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 5)])
    res = glue_disks(H, [(0, 1, 2, 3)], DESK)
    assert isinstance(res, GlueFailure)
    assert res.retries == 0
    assert "no pyramid disk" in res.detail
    assert res.cycle_failures[0] > 0


def test_glue_disks_not_enough_free_vertices():
    H = complete_hypergraph(5)
    res = glue_disks(H, [(0, 1, 2, 3), (0, 1, 2, 4)], DESK)
    assert isinstance(res, GlueFailure)


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
