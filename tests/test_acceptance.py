"""Acceptance gate: eleven shipping criteria, one test and one line each.

Every test asserts the stated tolerance and runtime budget, then prints a
single summary line; `pytest -v` therefore shows one pass/fail line per
criterion. Criteria 6-8 drive the surface and pattern builders at the
desk-scale estimator settings p = 0.5, epsilon = 0.1: the library's
asymptotic defaults (1/18, 1/163 and the t-dependent pair) target far
larger sparse hypergraphs and reject nearly every run on these complete
instances (a hub path on K_20 is accepted with probability
1 - (17/18)^15, about 0.58, nowhere near 1 - 1/163).
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import networkx as nx

from diskcover.certificates import SPHERE, HomeomorphCertificate
from diskcover.complexes import CLOSED_SURFACE, DISK, TwoComplex, boundary, classify, is_boundary_inducing
from diskcover.coverability import (EstimatorParams, exact_admissibility,
                                    inadmissible_p2_audit, pyramid_disk,
                                    sample_admissibility)
from diskcover.experiments import audit_corpus, sweep_csv, threshold_sweep
from diskcover.generators import (clique_pendant_graph, random_graph,
                                  random_graph_corpus)
from diskcover.hypergraph import SkeletonGraph, complete_hypergraph, iter_p2s
from diskcover.search import (SearchParams, find_k_t_homeomorph,
                              find_projective_plane, find_sphere, find_torus)
from diskcover.verify import verify_certificate

from bruteforce import unweighted_audit_sum

DESK = SearchParams(p=0.5, epsilon=0.1)


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def _all_trees():
    yield SkeletonGraph([0], [])
    for k in range(2, 11):
        for t in nx.nonisomorphic_trees(k):
            yield SkeletonGraph(range(k), t.edges())


def test_criterion_01_structural_audit_corpus():
    start = time.perf_counter()
    graphs = [g for _, g in random_graph_corpus(500, seed=101)]
    graphs.extend(_all_trees())
    graphs.extend(clique_pendant_graph(n) for n in (16, 25, 36))
    for G in graphs:
        audit = inadmissible_p2_audit(G)
        assert isinstance(audit.weighted_sum, Fraction)
        assert audit.holds
        assert audit.weighted_sum < Fraction(3 * G.n, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"{len(graphs)} graphs audited in {elapsed:.1f}s, "
               "weighted_sum < 3n/2 throughout")


def test_criterion_02_clique_pendant_exact_value():
    G = clique_pendant_graph(16)
    audit = inadmissible_p2_audit(G)
    assert audit.weighted_sum == Fraction(102, 15)
    oracle = unweighted_audit_sum(sorted(G.edges), 16)
    assert oracle == Fraction(102, 15)
    _report(2, "clique-pendant n=16 weighted_sum = 102/15, matches the "
               "enumeration oracle")


def test_criterion_03_weighted_audit_grid():
    start = time.perf_counter()
    rnd = random.Random(31)
    graphs = []
    for i in range(100):
        n = rnd.randrange(8, 15)
        graphs.append((str(i), random_graph(n, rnd.choice((0.25, 0.4)),
                                            seed=3000 + i)))
    grid = [(p, eps) for p in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
            for eps in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))]
    n_of = {gid: G.n for gid, G in graphs}
    checked = 0
    # each graph's structural row, at (p, eps) = (1, 1), then its nine grid
    # rows, all from one walk of each length-2 path
    for row in list(audit_corpus(graphs, grid))[1:]:
        gid, n, p, eps, _, bound, holds = row.split(",")
        assert int(n) == n_of[gid]
        if (p, eps) == ("1/1", "1/1"):
            continue
        p, eps = Fraction(p), Fraction(eps)
        assert holds == "true"
        assert Fraction(bound) == Fraction(3 * int(n)) / (2 * p * p * eps)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 900
    assert elapsed < 600.0
    _report(3, f"900 (graph, p, eps) audits hold, exact rationals, "
               f"{elapsed:.1f}s")


def test_criterion_04_estimator_calibration():
    rnd = random.Random(47)
    ps = (0.3, 0.5, 0.7)
    good = 0
    done = 0
    i = 0
    while done < 50:
        i += 1
        G = random_graph(rnd.randrange(10, 15), 0.4, seed=4000 + i)
        p2s = list(iter_p2s(G))
        if not p2s:
            continue
        w, u, wp = p2s[rnd.randrange(len(p2s))]
        p = ps[done % 3]
        exact = float(exact_admissibility(G, w, u, wp, Fraction(p)))
        est = sample_admissibility(
            G, w, u, wp,
            EstimatorParams(p=p, epsilon=0.1, trials=10_000, seed=done))
        if abs(est.estimate - exact) <= 0.05:
            good += 1
        done += 1
    assert good >= 49
    _report(4, f"{good}/50 estimates within 0.05 of the exact oracle "
               "at 10^4 trials")


def test_criterion_05_pyramid_disk_properties():
    rnd = random.Random(55)
    for k in range(1, 7):
        for _ in range(100):
            verts = rnd.sample(range(60), k + 3)
            v, vp, path = verts[0], verts[1], tuple(verts[2:])
            disk = pyramid_disk(v, vp, path)
            cls = classify(disk)
            assert cls.kind == DISK
            assert cls.euler == 1
            edges = boundary(disk).edges
            expect = frozenset(
                tuple(sorted(e))
                for e in ((v, path[0]), (path[0], vp), (vp, path[-1]),
                          (path[-1], v)))
            assert edges == expect
            assert is_boundary_inducing(disk) is (k >= 2)
    _report(5, "600 pyramid disks: Disk, euler 1, assigned boundary, "
               "inducing iff k >= 2")


def _surface_run(finder, n, want_euler, want_orient, need):
    H = complete_hypergraph(n)
    wins = 0
    for seed in range(100):
        cert = finder(H, replace(DESK, seed=seed, max_retries=10))
        if not isinstance(cert, HomeomorphCertificate):
            continue
        report = verify_certificate(H, cert)
        assert report.passed
        union = TwoComplex(t for d in cert.disks for t in d.triangles)
        cls = classify(union)
        assert cls.kind == CLOSED_SURFACE
        assert cls.euler == want_euler
        assert cls.orientable is want_orient
        wins += 1
    assert wins >= need
    return wins


def test_criterion_06_torus_build():
    start = time.perf_counter()
    wins = _surface_run(find_torus, 20, 0, True, 95)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(6, f"torus on K_20: {wins}/100 seeds, euler 0 orientable, "
               f"{elapsed:.1f}s")


def test_criterion_07_rp2_build():
    wins = _surface_run(find_projective_plane, 15, 1, False, 95)
    _report(7, f"projective plane on K_15: {wins}/100 seeds, euler 1 "
               "non-orientable")


def test_criterion_08_ktt_build():
    H = complete_hypergraph(30)
    wins = 0
    for seed in range(100):
        cert = find_k_t_homeomorph(H, replace(DESK, t=4, seed=seed,
                                              max_retries=10))
        if not isinstance(cert, HomeomorphCertificate):
            continue
        assert len(cert.disks) == 3 * comb(4, 3) == 12
        assert len(cert.embedding) == 14
        assert len(set(cert.embedding.values())) == 14
        report = verify_certificate(H, cert)
        assert report.passed
        pairwise = {c.name: c for c in report.checks}["pairwise-intersections"]
        assert pairwise.passed
        assert "66 disk pairs" in pairwise.detail
        wins += 1
    assert wins >= 90
    _report(8, f"K_4 pattern on K_30: {wins}/100 seeds, 12 disks, "
               "injective 14-vertex embedding, 66 clean pairs")


def test_criterion_09_mutation_detection():
    bases = [
        (complete_hypergraph(12), find_sphere, {}),
        (complete_hypergraph(20), find_torus, {}),
        (complete_hypergraph(12), find_k_t_homeomorph, {"t": 3}),
    ]
    rnd = random.Random(99)
    caught = 0
    total = 0
    for H, finder, extra in bases:
        cert = finder(H, replace(DESK, seed=7, **extra))
        assert isinstance(cert, HomeomorphCertificate)
        assert verify_certificate(H, cert).passed
        tris = sorted(H.edges)
        for _ in range(34 if finder is find_sphere else 33):
            disks = list(cert.disks)
            i = rnd.randrange(len(disks))
            old = sorted(disks[i].triangles)
            victim = old[rnd.randrange(len(old))]
            new_tri = victim
            while new_tri == victim or new_tri in disks[i].triangles:
                new_tri = tris[rnd.randrange(len(tris))]
            disks[i] = TwoComplex((set(disks[i].triangles) - {victim})
                                  | {new_tri})
            mutated = replace(cert, disks=tuple(disks))
            total += 1
            if not verify_certificate(H, mutated).passed:
                caught += 1
    assert total == 100
    assert caught == 100
    _report(9, "100/100 single-triangle mutations rejected by the verifier")


def test_criterion_10_sphere_threshold_monotone():
    start = time.perf_counter()
    cs = (0.2, 0.5, 1.0, 2.0, 4.0)
    rows = threshold_sweep(SPHERE, [60], cs, trials=50, seed=2026,
                           params=DESK)
    rates = []
    for c in cs:
        cell = [r for r in rows if r.c == c]
        assert len(cell) == 50
        rates.append(sum(r.found for r in cell) / 50)
    assert rates[-1] - rates[0] >= 0.5
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(10, "sphere found-rates "
                + "/".join(f"{r:.2f}" for r in rates)
                + f" across c, {elapsed:.1f}s")


def test_criterion_11_parallel_reproducibility():
    serial = threshold_sweep(SPHERE, [24, 36], [0.5, 1.0, 2.0], trials=6,
                             seed=77, params=DESK, jobs=1)
    parallel = threshold_sweep(SPHERE, [24, 36], [0.5, 1.0, 2.0], trials=6,
                               seed=77, params=DESK, jobs=8)
    assert sweep_csv(serial) == sweep_csv(parallel)

    H = complete_hypergraph(20)
    a = find_torus(H, replace(DESK, seed=5))
    b = find_torus(H, replace(DESK, seed=5))
    assert a == b
    _report(11, "jobs=1 and jobs=8 sweeps byte-identical; same-seed "
                "searches byte-identical")
