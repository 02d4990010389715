import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from diskcover import complexes
from diskcover.complexes import (CLOSED_SURFACE, DISK, OTHER,
                                 SURFACE_WITH_BOUNDARY, TwoComplex, boundary,
                                 classify, cycle_edges, disk_defect,
                                 euler_characteristic, is_boundary_inducing,
                                 orientability)
from diskcover.certificates import SPHERE, HomeomorphCertificate
from diskcover.coverability import pyramid_disk
from diskcover.hypergraph import Hypergraph3
from diskcover.verify import CertificateError, verify_certificate

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
OCTA = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
# minimal projective plane: 6 vertices, 10 triangles, all edges doubled
RP2_6 = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
         (2, 3, 6), (2, 3, 5), (2, 4, 5), (3, 4, 6), (4, 5, 6)]
# 7-vertex torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + \
    [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
MOBIUS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
PYRAMID4 = [(0, 2, 3), (1, 2, 3), (0, 3, 4), (1, 3, 4)]  # apexes 0,1 over 2-3-4


def cyclic_equal(seq, expected):
    seq, expected = tuple(seq), tuple(expected)
    if len(seq) != len(expected):
        return False
    doubled = expected + expected
    rev = tuple(reversed(expected)) * 2
    for i in range(len(expected)):
        if seq == doubled[i:i + len(seq)] or seq == rev[i:i + len(seq)]:
            return True
    return False


def test_two_complex_derives_and_dedups():
    X = TwoComplex([(2, 1, 0), (0, 1, 2), (1, 2, 3)])
    assert len(X) == 2
    assert X.vertices == frozenset(range(4))
    assert X.edge_incidence[(1, 2)] == 2
    with pytest.raises(ValueError):
        TwoComplex([(0, 0, 1)])


def test_two_complex_stores_only_its_triangles():
    assert TwoComplex.__slots__ == ("triangles",)
    X = TwoComplex(RP2_6)
    for Y in (pickle.loads(pickle.dumps(X)), copy.copy(X), copy.deepcopy(X)):
        assert Y == X and hash(Y) == hash(X)
        assert Y.edge_incidence == X.edge_incidence


@settings(max_examples=80, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7),
                         st.integers(0, 7)), max_size=12))
def test_edge_incidence_recounts_the_triangles(raw):
    X = TwoComplex(t for t in raw if len(set(t)) == 3)
    recount = {}
    for t in X.triangles:
        for e in combinations(t, 2):
            recount[e] = recount.get(e, 0) + 1
    assert X.edge_incidence == recount
    assert X.edges == frozenset(recount)


def test_boundary_single_triangle():
    bd = boundary(TwoComplex([(0, 1, 2)]))
    assert bd.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert bd.is_single_cycle
    assert cyclic_equal(bd.cycle, (0, 1, 2))


def test_boundary_tetrahedron_closed():
    bd = boundary(TwoComplex(TETRA))
    assert not bd.edges and not bd.is_single_cycle and bd.cycle is None


def test_boundary_two_triangles_shared_edge():
    # triangles {a,b,c}, {a,b,d} with a=0 b=1 c=2 d=3: boundary c a d b
    bd = boundary(TwoComplex([(0, 1, 2), (0, 1, 3)]))
    assert len(bd.edges) == 4
    assert bd.is_single_cycle
    assert cyclic_equal(bd.cycle, (2, 0, 3, 1))


def test_euler_examples():
    assert euler_characteristic(TwoComplex([(0, 1, 2)])) == 1
    assert euler_characteristic(TwoComplex(TETRA)) == 2
    assert euler_characteristic(TwoComplex(OCTA)) == 2
    assert euler_characteristic(TwoComplex(RP2_6)) == 1


def test_classify_tetrahedron_sphere():
    c = classify(TwoComplex(TETRA))
    assert (c.kind, c.euler, c.orientable, c.boundary_components) == \
        (CLOSED_SURFACE, 2, True, 0)


def test_classify_octahedron_sphere():
    c = classify(TwoComplex(OCTA))
    assert (c.kind, c.euler, c.orientable) == (CLOSED_SURFACE, 2, True)


def test_classify_projective_plane():
    c = classify(TwoComplex(RP2_6))
    assert (c.kind, c.euler, c.orientable) == (CLOSED_SURFACE, 1, False)
    assert not bf.orientable_by_enumeration(RP2_6)


def test_classify_pyramid_disk():
    c = classify(TwoComplex(PYRAMID4))
    assert (c.kind, c.euler, c.boundary_components) == (DISK, 1, 1)


def test_classify_two_triangles_sharing_vertex():
    c = classify(TwoComplex([(0, 1, 2), (0, 3, 4)]))
    assert c.kind == OTHER


def test_classify_mobius_strip():
    c = classify(TwoComplex(MOBIUS))
    assert c.kind == SURFACE_WITH_BOUNDARY
    assert c.euler == 0
    assert c.boundary_components == 1


def test_classify_overfull_edge_is_other():
    # three triangles on one edge ("book")
    c = classify(TwoComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)]))
    assert c.kind == OTHER


def test_classify_empty_complex_raises():
    with pytest.raises(ValueError):
        classify(TwoComplex([]))


def test_orientability_guard():
    assert orientability(TwoComplex(TETRA)) is True
    assert orientability(TwoComplex(RP2_6)) is False
    with pytest.raises(ValueError):
        orientability(TwoComplex(PYRAMID4))


def test_orientability_builds_the_double_cover_once(monkeypatch):
    calls = []
    real = complexes._orientable
    monkeypatch.setattr(complexes, "_orientable",
                        lambda X: calls.append(X) or real(X))
    for tris, want in ((TORUS7, True), (RP2_6, False)):
        calls.clear()
        assert orientability(TwoComplex(tris)) is want
        assert len(calls) == 1
    with pytest.raises(ValueError, match="only for closed surfaces"):
        orientability(TwoComplex(PYRAMID4))


def test_orientability_matches_enumeration_oracle():
    # the double cover reads each triangle in sorted order, so relabel too
    rng = random.Random(13)
    for tris in (TETRA, OCTA, RP2_6, TORUS7):
        verts = sorted({v for t in tris for v in t})
        relabelled = [tris]
        for _ in range(50):
            names = dict(zip(verts, rng.sample(range(40), len(verts))))
            relabelled.append([tuple(names[v] for v in t) for t in tris])
        for tr in relabelled:
            assert orientability(TwoComplex(tr)) == bf.orientable_by_enumeration(tr)


def test_boundary_inducing_cases():
    assert is_boundary_inducing(TwoComplex(PYRAMID4)) is True
    assert is_boundary_inducing(TwoComplex([(0, 1, 2)])) is False
    # k = 1 pyramid: chord between boundary vertices 2 and 3
    assert is_boundary_inducing(TwoComplex([(0, 2, 3), (1, 2, 3)])) is False
    with pytest.raises(ValueError):
        is_boundary_inducing(TwoComplex(TETRA))


def test_interior_vertices():
    X = pyramid_disk(0, 1, (2, 3, 4, 5))
    assert X.interior_vertices() == frozenset({3, 4})


def _two_pyramid_sphere(cycles):
    """Pyramids over 0 2 1 3 with interiors {4} and {5}, and the given cycles."""
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 1, (2, 5, 3))
    H = Hypergraph3(6, list(d1.triangles | d2.triangles))
    cert = HomeomorphCertificate(SPHERE, None, {}, tuple(cycles), (d1, d2),
                                 0, 0)
    return H, cert


def test_complex_intersection_shared_boundary_cycle():
    # two pyramid disks over the same 4-cycle 0 2 1 3 with disjoint interiors
    # meet in exactly that cycle, and the verifier's check c accepts them
    cycle = (0, 2, 1, 3)
    H, cert = _two_pyramid_sphere((cycle, cycle))
    d1, d2 = cert.disks
    assert d1.vertices & d2.vertices == frozenset(cycle)
    assert d1.edges & d2.edges == cycle_edges(cycle)
    assert not d1.triangles & d2.triangles
    by_name = {c.name: c.passed for c in verify_certificate(H, cert).checks}
    assert by_name["pairwise-intersections"] is True


def test_cycle_complex_validation():
    assert cycle_edges((0, 1, 2, 3)) == \
        frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    good = (0, 2, 1, 3)
    for bad in ((0, 1), (0, 1, 1, 2)):
        H, cert = _two_pyramid_sphere((good, bad))
        with pytest.raises(CertificateError):
            verify_certificate(H, cert)


def test_classify_invariant_under_relabeling():
    import random
    rnd = random.Random(11)
    for tris in (TETRA, OCTA, RP2_6, PYRAMID4, MOBIUS):
        base = classify(TwoComplex(tris))
        verts = sorted({v for t in tris for v in t})
        for _ in range(5):
            perm = dict(zip(verts, rnd.sample(verts, len(verts))))
            relabeled = [(perm[a], perm[b], perm[c]) for a, b, c in tris]
            got = classify(TwoComplex(relabeled))
            assert (got.kind, got.euler, got.orientable) == \
                (base.kind, base.euler, base.orientable)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(), TETRA, OCTA, RP2_6, TORUS7, MOBIUS, PYRAMID4]),
       st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6),
                         st.integers(0, 6)), max_size=5),
       st.sampled_from([(0, 2, 1, 4), (0, 1, 2, 3), (2, 3, 4, 5)]))
def test_classify_and_disk_defect_take_the_callers_incidence(base, extra, cycle):
    """Handed X's edge incidence, `classify` and `disk_defect` answer as
    they do when they count it, on surfaces, the PYRAMID4 disk (boundary
    0 2 1 4), and these with stray triangles added, most of them not
    manifolds."""
    X = TwoComplex([*base, *(t for t in extra if len(set(t)) == 3)])
    if not X.triangles:
        return
    inc = X.edge_incidence
    assert classify(X, inc) == classify(X)
    assert classify(X, inc).euler == euler_characteristic(X)
    assert disk_defect(X, cycle, inc) == disk_defect(X, cycle)


def test_closed_surface_incidence_double_count():
    for tris in (TETRA, OCTA, RP2_6):
        X = TwoComplex(tris)
        assert sum(X.edge_incidence.values()) == 3 * len(X.triangles)


@settings(max_examples=80, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6),
                         st.integers(0, 6)), min_size=1, max_size=9))
def test_classify_against_brute_force(raw):
    tris = [t for t in raw if len(set(t)) == 3]
    if not tris:
        return
    X = TwoComplex(tris)
    cond = bf.surface_conditions(X.triangles)
    c = classify(X)
    assert c.euler == cond["euler"]
    surface_like = (cond["connected"] and cond["max_incidence"] <= 2
                    and cond["links_ok"])
    assert (c.kind != OTHER) == surface_like
    assert c.boundary_components == cond["boundary_components"]
    assert (c.kind == DISK) == (surface_like and cond["euler"] == 1
                                and cond["boundary_components"] == 1)
    if c.kind == CLOSED_SURFACE:
        assert not cond["boundary_edges"]
        assert c.orientable == bf.orientable_by_enumeration(X.triangles)
    if c.kind == DISK:
        bd = boundary(X)
        assert bd.is_single_cycle and c.euler == 1
