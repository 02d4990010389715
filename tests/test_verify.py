import random
from dataclasses import replace

import pytest

from diskcover.certificates import (KTT, PROJECTIVE_PLANE, SPHERE, SURFACES,
                                    TORUS, HomeomorphCertificate)
from diskcover.complexes import TwoComplex
from diskcover.coverability import pyramid_disk
from diskcover.experiments import threshold_sweep
from diskcover.gamma import gamma
from diskcover.generators import random_hypergraph
from diskcover.hypergraph import Hypergraph3, complete_hypergraph
from diskcover.search import (SearchParams, find_k_t_homeomorph, find_sphere,
                              find_torus)
from diskcover.verify import CertificateError, CheckResult, verify_certificate

DESK = SearchParams(p=0.5, epsilon=0.1)


def hand_built_sphere():
    """Two pyramids over the same square, interiors {4} and {5}."""
    cycle = (0, 2, 1, 3)
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 1, (2, 5, 3))
    H = Hypergraph3(6, list(d1.triangles | d2.triangles))
    cert = HomeomorphCertificate(target=SPHERE, t=None,
                                 embedding={"a": 0, "b": 2, "c": 1, "d": 3},
                                 cycles=(cycle, cycle), disks=(d1, d2),
                                 seed=0, retries=0)
    return H, cert


def test_hand_built_sphere_verifies():
    H, cert = hand_built_sphere()
    report = verify_certificate(H, cert)
    assert report.passed
    assert report.target_confirmed
    names = [c.name for c in report.checks]
    assert names == ["disk-triangles-in-hypergraph", "disks-bound-cycles",
                     "pairwise-intersections", "pattern-sphere"]
    d = report.as_dict()
    assert d["passed"] is True
    assert len(d["checks"]) == 4


def test_triangle_outside_hypergraph_fails_check_a():
    H, cert = hand_built_sphere()
    smaller = Hypergraph3(6, [t for t in H.edges if t != (0, 2, 4)])
    report = verify_certificate(smaller, cert)
    assert not report.passed
    assert not report.checks[0].passed


def test_disks_sharing_interior_vertex_fail_check_c():
    cycle = (0, 2, 1, 3)
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 1, (2, 4, 5, 3))  # interior {4, 5} meets {4}
    H = Hypergraph3(6, list(d1.triangles | d2.triangles))
    cert = HomeomorphCertificate(target=SPHERE, t=None, embedding={},
                                 cycles=(cycle, cycle), disks=(d1, d2),
                                 seed=0, retries=0)
    report = verify_certificate(H, cert)
    assert not report.passed
    by_name = {c.name: c.passed for c in report.checks}
    assert by_name["pairwise-intersections"] is False


def _check_c(cycles, disks):
    H = Hypergraph3(10, [t for d in disks for t in d.triangles])
    cert = HomeomorphCertificate(SPHERE, None, {}, tuple(cycles),
                                 tuple(disks), 0, 0)
    by_name = {c.name: c.passed for c in verify_certificate(H, cert).checks}
    return by_name["pairwise-intersections"]


def test_check_c_disks_sharing_a_cycle_edge_pass():
    # the cycles 0 2 1 3 and 0 2 5 6 share the vertices {0, 2} and the
    # edge 0-2, and the disks meet in exactly that
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 5, (2, 7, 6))
    assert _check_c([(0, 2, 1, 3), (0, 2, 5, 6)], [d1, d2])


def test_check_c_shared_triangle_fails():
    d = pyramid_disk(0, 1, (2, 4, 3))
    assert not _check_c([(0, 2, 1, 3), (0, 2, 1, 3)], [d, d])


def test_check_c_shared_edge_off_cycles_fails():
    # the disks meet only in the common cycle vertices {0, 2}, but both
    # contain the edge 0-2, which lies on one cycle and is a chord of the other
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = TwoComplex([(0, 2, 5), (0, 2, 6)])
    assert not _check_c([(0, 2, 1, 3), (0, 5, 2, 6)], [d1, d2])


def test_check_c_symmetric_in_disk_order():
    cycle = (0, 2, 1, 3)
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 1, (2, 4, 5, 3))
    H = Hypergraph3(6, list(d1.triangles | d2.triangles))
    a = verify_certificate(H, HomeomorphCertificate(
        SPHERE, None, {}, (cycle, cycle), (d1, d2), 0, 0))
    b = verify_certificate(H, HomeomorphCertificate(
        SPHERE, None, {}, (cycle, cycle), (d2, d1), 0, 0))
    assert [c.passed for c in a.checks] == [c.passed for c in b.checks]


def test_wrong_boundary_cycle_fails_check_b():
    H, cert = hand_built_sphere()
    wrong = (cert.cycles[0], (0, 4, 1, 5))
    report = verify_certificate(H, replace(cert, cycles=wrong))
    assert not report.passed
    assert not report.checks[1].passed


@pytest.mark.parametrize("cycle, disk, detail", [
    ((0, 2, 1, 3), TwoComplex([(0, 2, 4), (1, 3, 5)]),
     "disk 1 classifies as Other"),
    ((0, 4, 1, 5), pyramid_disk(0, 1, (2, 5, 3)),
     "disk 1 boundary differs from cycle (0, 4, 1, 5)"),
    ((0, 2, 1, 3), pyramid_disk(0, 1, (2, 3)),
     "disk 1 is not boundary-inducing"),
], ids=["not-a-disk", "other-boundary", "chord"])
def test_check_b_detail_names_the_defect(cycle, disk, detail):
    H, cert = hand_built_sphere()
    H = Hypergraph3(6, list(H.edges | disk.triangles))
    cert = replace(cert, cycles=(cert.cycles[0], cycle),
                   disks=(cert.disks[0], disk))
    check = verify_certificate(H, cert).checks[1]
    assert (check.name, check.passed, check.detail) == (
        "disks-bound-cycles", False, detail)


def test_surface_signature_mismatch():
    # a valid sphere certificate relabeled as a torus target
    H, cert = hand_built_sphere()
    report = verify_certificate(H, replace(cert, target="torus"))
    assert not report.passed
    assert not report.target_confirmed
    assert report.checks[-1].name == "pattern-torus"


def test_malformed_certificates_raise():
    H, cert = hand_built_sphere()
    with pytest.raises(CertificateError):
        verify_certificate(H, replace(cert, cycles=(), disks=()))
    for bad in ((0, 1, 2, 99), (0, 1, 1, 2), (0, 1, 2)):
        with pytest.raises(CertificateError):
            verify_certificate(H, replace(cert, cycles=(cert.cycles[0], bad)))
    # an empty disk is malformed, not a complex the classifier rejects
    with pytest.raises(CertificateError, match="^disk 1 has no triangles$"):
        verify_certificate(H, replace(cert, disks=(cert.disks[0],
                                                   TwoComplex([]))))


def test_ktt_certificate_checks():
    H = complete_hypergraph(20)
    cert = find_k_t_homeomorph(H, replace(DESK, t=3))
    assert isinstance(cert, HomeomorphCertificate)
    report = verify_certificate(H, cert)
    assert report.passed

    # a missing embedding label fails the pattern check, as for surfaces
    short = dict(cert.embedding)
    short.pop("v0")
    assert verify_certificate(H, replace(cert, embedding=short)).checks[-1] == (
        CheckResult("pattern-ktt", False,
                    "embedding misses pattern labels: v0"))

    # a non-injective embedding fails the pattern check
    squashed = dict(cert.embedding)
    squashed["v0"] = squashed["v1"]
    report = verify_certificate(H, replace(cert, embedding=squashed))
    assert not report.passed

    # labels beyond the pattern's fail the pattern check
    for extra in ({"zzz": -4}, {"extra": 0}):
        bad = replace(cert, embedding=dict(cert.embedding, **extra))
        assert _pattern_check(H, bad) == (False, False)

    # wrong cycle count for the target is malformed
    with pytest.raises(CertificateError):
        verify_certificate(H, replace(cert, cycles=cert.cycles[:2],
                                      disks=cert.disks[:2]))


@pytest.mark.parametrize("target, t", [
    (SPHERE, None), (TORUS, None), (PROJECTIVE_PLANE, None),
    (KTT, 3), (KTT, 4), (KTT, 5),
], ids=["sphere", "torus", "rp2", "ktt3", "ktt4", "ktt5"])
def test_every_pattern_filled_with_pyramids_verifies(target, t):
    # label k lands on vertex k; cycle i is coned off from its own fresh
    # vertex len(labels) + i
    pattern = gamma(t) if target == KTT else SURFACES[target]
    labels = pattern.labels
    H = complete_hypergraph(len(labels) + len(pattern.cycles))
    embedding = {lab: k for k, lab in enumerate(labels)}
    cycles = pattern.cycles_of(embedding)
    disks = tuple(pyramid_disk(a, c, (b, len(labels) + i, d))
                  for i, (a, b, c, d) in enumerate(cycles))
    cert = HomeomorphCertificate(target, t, embedding, cycles, disks, 0, 0)
    report = verify_certificate(H, cert)
    assert report.passed and report.target_confirmed

    # swapping the images of two labels moves the recipe's cycles off the
    # certificate's: only the pattern check fails
    swapped = dict(embedding, **{labels[0]: 1, labels[1]: 0})
    report = verify_certificate(H, replace(cert, embedding=swapped))
    assert [c.passed for c in report.checks] == [True, True, True, False]
    assert report.checks[-1] == CheckResult(
        f"pattern-{target}", False,
        "cycle list is not the image of the special 4-cycles")


def test_mutation_fuzz_small():
    H = complete_hypergraph(20)
    cert = find_torus(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    rnd = random.Random(5)
    tris = sorted(H.edges)
    for _ in range(20):
        disks = list(cert.disks)
        i = rnd.randrange(len(disks))
        old = sorted(disks[i].triangles)
        victim = old[rnd.randrange(len(old))]
        new_tri = victim
        while new_tri == victim:
            new_tri = tris[rnd.randrange(len(tris))]
        mutated = (set(disks[i].triangles) - {victim}) | {new_tri}
        disks[i] = TwoComplex(mutated)
        report = verify_certificate(H, replace(cert, disks=tuple(disks)))
        assert not report.passed


def _no_row_table(self, u):
    raise AssertionError("the verifier read a link row")


def test_verifier_never_reads_the_row_table(monkeypatch):
    cert = find_k_t_homeomorph(complete_hypergraph(12),
                               SearchParams(t=3, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate)
    monkeypatch.setattr(Hypergraph3, "row", _no_row_table)
    H = complete_hypergraph(12)
    assert verify_certificate(H, cert).passed

    # drop every triple over one pattern edge: the pattern check fails
    a, b = cert.embedding["v0"], cert.embedding["v0.1"]
    thinned = Hypergraph3(12, [t for t in H.edges if not {a, b} <= set(t)])
    report = verify_certificate(thinned, cert)
    assert not report.passed
    assert report.checks[-1] == CheckResult(
        "pattern-ktt", False, "pattern edge v0-v0.1 missing from skeleton")

    # a pattern vertex sent outside V(H), however far, has no skeleton edge:
    # the first pattern edge at it is reported
    pattern = gamma(3)
    first = min(e for e in pattern.edges if 0 in e)
    names = [pattern.labels[i] for i in first]
    for far in (-1, 12, 10 ** 30):
        moved = replace(cert, embedding={**cert.embedding, "v0": far})
        assert verify_certificate(H, moved).checks[-1] == CheckResult(
            "pattern-ktt", False,
            f"pattern edge {names[0]}-{names[1]} missing from skeleton")

    # swap one disk triangle for another triple: a disk check fails
    disks = list(cert.disks)
    victim = min(disks[0].triangles)
    other = next(t for t in sorted(H.edges) if t not in disks[0].triangles)
    disks[0] = TwoComplex((disks[0].triangles - {victim}) | {other})
    assert not verify_certificate(H, replace(cert, disks=tuple(disks))).passed


def _no_edge_set(self):
    raise AssertionError("the frozenset of triples was built")


def test_sphere_search_and_verify_never_build_the_edge_set(monkeypatch):
    monkeypatch.setattr(Hypergraph3, "edges", property(_no_edge_set))
    H = random_hypergraph(16, 0.4, seed=0)
    cert = find_sphere(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    assert verify_certificate(H, cert).passed

    # swap one disk triangle for another triple of H: a disk check fails
    disks = list(cert.disks)
    victim = min(disks[0].triangles)
    other = next(t for t in map(tuple, H.triples().tolist())
                 if t not in disks[0].triangles)
    disks[0] = TwoComplex((disks[0].triangles - {victim}) | {other})
    assert not verify_certificate(H, replace(cert, disks=tuple(disks))).passed

    rows = threshold_sweep(SPHERE, [16, 24], [1.0, 4.0], 1, seed=2)
    assert any(row.found for row in rows)


def _pattern_check(H, cert):
    report = verify_certificate(H, cert)
    assert report.checks[-1].name == f"pattern-{cert.target}"
    return report.passed, report.checks[-1].passed


def test_surface_certificate_embedding_is_checked():
    H = complete_hypergraph(20)
    cert = find_torus(H, DESK)
    assert isinstance(cert, HomeomorphCertificate)
    assert _pattern_check(H, cert) == (True, True)
    emb = dict(cert.embedding)
    swapped = dict(emb, w1=emb["w2"], w2=emb["w1"])
    bad_embeddings = [
        {"u": 999, "zzz": -4},                 # wrong labels, out of range
        dict(emb, extra=0),                    # a label too many
        dict(emb, w6=H.n),                     # out of range
        dict(emb, w6=emb["w5"]),               # not injective
        swapped,                               # cycles differ from the recipe
    ]
    for bad in bad_embeddings:
        assert _pattern_check(H, replace(cert, embedding=bad)) == (False, False)

    # a sphere's embedding must name its one cycle a b c d
    H, cert = hand_built_sphere()
    assert _pattern_check(H, cert) == (True, True)
    for bad in ({}, {"a": 0, "b": 3, "c": 1, "d": 2},
                {"a": 0, "b": 2, "c": 1, "d": 6}):
        assert _pattern_check(H, replace(cert, embedding=bad)) == (False, False)


@pytest.mark.parametrize("far", [-1, -2 ** 70, 2 ** 63, 2 ** 70])
def test_vertices_far_outside_the_host_fail_their_checks(far):
    """An embedding or triangle vertex below 0, or too large for an int64
    triple code, fails its own check and raises nothing."""
    H, cert = hand_built_sphere()
    report = verify_certificate(
        H, replace(cert, embedding=dict(cert.embedding, a=far)))
    assert [c.passed for c in report.checks] == [True, True, True, False]
    assert report.checks[-1].detail == "pattern edge a-b missing from skeleton"
    d1, d2 = cert.disks
    stray = TwoComplex(list(d1.triangles) + [(2, 4, far)])
    check = verify_certificate(H, replace(cert, disks=(stray, d2))).checks[0]
    assert check == CheckResult(
        "disk-triangles-in-hypergraph", False,
        f"1 disk triangle(s) not edges of H, first {tuple(sorted((2, 4, far)))}")
