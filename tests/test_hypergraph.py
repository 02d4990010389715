import copy
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
import diskcover.hypergraph as hypergraph
from diskcover.certificates import KTT, SPHERE, TORUS
from diskcover.experiments import audit_corpus, threshold_sweep
from diskcover.generators import (random_graph, random_hypergraph,
                                  random_hypergraphs)
from diskcover.hypergraph import (Hypergraph3, SkeletonGraph, code_dtype,
                                  codegree, common_neighborhood,
                                  complete_hypergraph, iter_p2s, link,
                                  link_intersection, skeleton)
from diskcover.search import SearchParams, find_k_t_homeomorph
from diskcover.verify import verify_certificate


def test_hypergraph_rejects_bad_triples():
    with pytest.raises(ValueError):
        Hypergraph3(4, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph3(3, [(0, 1, 5)])
    with pytest.raises(ValueError):  # a triple code would overflow int64
        Hypergraph3(1 << 21, [])


def test_hypergraph_dedups_triples():
    H = Hypergraph3(4, [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    assert len(H.edges) == 1


_QUERY_VERTEX = st.one_of(st.integers(-2, 9),
                          st.sampled_from([-2 ** 70, 2 ** 63 - 1, 2 ** 63, 2 ** 70]))


@settings(max_examples=200)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(combinations(range(n), 3))))
    if n >= 3 else st.just(set()),
    st.lists(st.lists(_QUERY_VERTEX, min_size=3, max_size=3), max_size=12))))
def test_has_triples_is_set_membership(case):
    """has_triples answers membership of the triple's vertex set, in any
    order, for an array of any leading shape; repeated vertices and ones
    outside 0..n-1, however large, are never in H."""
    n, triples, queries = case
    H = Hypergraph3(n, triples)
    members = set(map(frozenset, triples))
    want = [len(set(q)) == 3 and frozenset(q) in members for q in queries]
    got = H.has_triples(np.array(queries, dtype=object).reshape(-1, 3))
    assert got.dtype == bool and got.tolist() == want
    for q, w in zip(queries, want):
        assert H.has_triples(q) == w
        assert H.has_triples([[q, q]]).tolist() == [[w, w]]


def test_skeleton_single_triple():
    H = Hypergraph3(3, [(0, 1, 2)])
    G = skeleton(H)
    assert set(G.edges) == {(0, 1), (0, 2), (1, 2)}


def test_skeleton_empty_keeps_vertices():
    G = skeleton(Hypergraph3(5, []))
    assert len(list(G.vertices)) == 5
    assert not G.edges


def test_skeleton_complete():
    G = skeleton(complete_hypergraph(5))
    assert len(G.edges) == 10


def test_link_direct():
    H = Hypergraph3(5, [(0, 1, 2), (0, 1, 3)])
    L = link(H, 0)
    assert set(L.edges) == {(1, 2), (1, 3)}
    assert 0 not in set(L.vertices)


def test_link_complete():
    H = complete_hypergraph(5)
    for u in range(5):
        L = link(H, u)
        assert len(L.edges) == 6  # K_4


def test_link_isolated_vertex_and_bad_vertex():
    H = Hypergraph3(5, [(0, 1, 2)])
    assert not link(H, 4).edges
    with pytest.raises(ValueError):
        link(H, 9)


def test_link_intersection_direct():
    H = Hypergraph3(4, [(0, 2, 3), (1, 2, 3)])
    LI = link(H, 0, 1)
    assert set(LI.edges) == {(2, 3)}
    assert set(LI.vertices) == {2, 3}


def test_link_intersection_complete():
    H = complete_hypergraph(6)
    LI = link(H, 0, 1)
    assert len(LI.edges) == 6  # K_4 on the other four
    assert set(LI.vertices) == {2, 3, 4, 5}


def test_link_intersection_empty_and_errors():
    H = Hypergraph3(5, [(0, 1, 2), (3, 1, 2)])
    assert not link(H, 0, 4).edges
    with pytest.raises(ValueError):
        link(H, 2, 2)
    with pytest.raises(ValueError):
        link_intersection(H, 2, 2)


def test_common_neighborhood():
    G = skeleton(complete_hypergraph(5))
    assert common_neighborhood(G, [0, 1, 2]) == {3, 4}
    path = SkeletonGraph(range(3), [(0, 1), (1, 2)])
    assert common_neighborhood(path, [0, 2]) == {1}
    empty = SkeletonGraph(range(4), [])
    assert common_neighborhood(empty, [0, 1]) == set()
    with pytest.raises(ValueError):
        common_neighborhood(G, [0, 0])


def test_codegree_matches_neighborhood():
    G = skeleton(complete_hypergraph(6))
    assert codegree(G, [2, 4]) == 4
    for v in G.vertices:
        assert codegree(G, [v]) == G.degree(v)


def test_iter_p2s_unlabeled_once():
    G = SkeletonGraph(range(3), [(0, 1), (1, 2)])
    assert list(iter_p2s(G)) == [(0, 1, 2)]
    K4 = SkeletonGraph(range(4), combinations(range(4), 2))
    p2s = list(iter_p2s(K4))
    assert len(p2s) == 12  # 4 centers x C(3,2)
    assert all(x < z for x, _, z in p2s)
    assert len(set(p2s)) == 12


@settings(max_examples=60)
@given(st.integers(3, 9), st.sets(st.tuples(st.integers(0, 8),
                                            st.integers(0, 8),
                                            st.integers(0, 8))))
def test_skeleton_brute_force(n, raw):
    triples = [t for t in raw if len(set(t)) == 3 and max(t) < n]
    H = Hypergraph3(n, triples)
    expected = set()
    for t in triples:
        for pair in combinations(sorted(t), 2):
            expected.add(pair)
    assert set(skeleton(H).edges) == expected


@settings(max_examples=40)
@given(st.integers(4, 9), st.sets(st.tuples(st.integers(0, 8),
                                            st.integers(0, 8),
                                            st.integers(0, 8))))
def test_link_intersection_is_link_meet(n, raw):
    triples = [t for t in raw if len(set(t)) == 3 and max(t) < n]
    H = Hypergraph3(n, triples)
    Lv, Lw = link(H, 0), link(H, 1)
    LI = link(H, 0, 1)
    meet = {e for e in Lv.edges if e in set(Lw.edges)
            and 0 not in e and 1 not in e}
    assert set(LI.edges) == meet
    for e in LI.edges:
        assert e in set(skeleton(H).edges)


@settings(max_examples=200)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(combinations(range(n), 3)))),
    st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))))
def test_link_intersection_rows_keep_the_apexes_out(host):
    """The rows of LI(v, v') are the meet of the link rows of v and v'
    from the definition, and those of its graph link(H, v, v') on its
    vertices; they are 0 at v and v' and hold neither bit v nor bit v'
    anywhere. Hosts include ones with no triple, or none through v, whose
    rows are all empty."""
    n, triples, (v, vp) = host
    H = Hypergraph3(n, triples)
    rows = link_intersection(H, v, vp)
    assert rows == [x & y for x, y in zip(bf.link_row(triples, v, n),
                                          bf.link_row(triples, vp, n))]
    masks = link(H, v, vp).adj_mask
    assert {x: rows[x] for x in masks} == masks
    assert rows[v] == rows[vp] == 0
    assert all(not row >> v & 1 and not row >> vp & 1 for row in rows)


@st.composite
def _hypergraph_and_pair(draw):
    """(n, triples, v, v') with n <= 12; v, v' are None when n < 2, and
    some triples may contain both query vertices."""
    n = draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    triples = []
    if n >= 3:
        triples = draw(st.lists(st.tuples(vertex, vertex, vertex).filter(
            lambda t: len(set(t)) == 3), max_size=30))
    if n < 2:
        return n, triples, None, None
    v, vp = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    others = [w for w in range(n) if w not in (v, vp)]
    if others:
        triples += [(v, vp, w) for w in draw(st.lists(st.sampled_from(others)))]
    return n, triples, v, vp


def _assert_graph(G, vertices, pairs):
    """Every view of G equals the one defined by the vertex and pair sets."""
    nbrs = {x: frozenset(y for e in pairs if x in e for y in e if y != x)
            for x in vertices}
    for a in vertices:
        for b in vertices:
            if a != b:
                assert G.has_edge(a, b) == (tuple(sorted((a, b))) in pairs)
    assert G.adj_mask == {x: sum(1 << y for y in nbrs[x]) for x in vertices}
    assert G.vertices == frozenset(vertices)
    assert G.edges == frozenset(pairs)
    assert G.adj == nbrs


@settings(max_examples=150, deadline=None)
@given(_hypergraph_and_pair())
@example((0, [], None, None))
@example((1, [], None, None))
@example((2, [], 0, 1))
@example((6, [], 4, 1))
@example((5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4)], 0, 1))
def test_row_core_matches_definitions(case):
    n, triples, v, vp = case
    edges = list(Hypergraph3(n, triples).edges)
    skel_pairs = bf.skeleton_pairs(edges)
    # the skeleton read alone, on a host that has built no row
    _assert_graph(skeleton(Hypergraph3(n, triples)), range(n), skel_pairs)
    # every row, then the skeleton of the same host
    H = Hypergraph3(n, triples)
    for u in range(n):
        assert H.row(u) == bf.link_row(edges, u, n)
        _assert_graph(link(H, u), [x for x in range(n) if x != u],
                      bf.link_pairs(edges, u))
    _assert_graph(skeleton(H), range(n), skel_pairs)
    if v is not None:
        _assert_graph(link(H, v, vp),
                      [x for x in range(n) if x not in (v, vp)],
                      set(bf._li_pairs(edges, v, vp)))


def _unset(obj, slot):
    """True while a lazily filled slot has not been built."""
    try:
        getattr(type(obj), slot).__get__(obj)
    except AttributeError:
        return True
    return False


def _copies(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


def test_pickling_ships_no_derived_view():
    H = random_hypergraph(12, 0.4, seed=5)
    labelled = Hypergraph3(4, [(0, 1, 2), (1, 2, 3)], labels=("a", "b", "c", "d"))
    G = SkeletonGraph(range(5), [(0, 1), (1, 4)])
    views = ((H, ("_rows", "_last", "edges")),
             (labelled, ("_rows", "_last", "edges")), (G, ("edges", "adj")))
    for x, lazy in views:
        copies = _copies(x)
        for y in [x] + copies:
            assert all(_unset(y, slot) for slot in lazy)
        for y in copies:
            assert y == x and hash(y) == hash(x)
    # once built on the original, a view still does not travel
    H.row(3), labelled.row(1), H.edges, labelled.edges, G.edges, G.adj
    for x, lazy in views:
        assert not any(_unset(x, slot) for slot in lazy)
        assert all(_unset(y, slot) for y in _copies(x) for slot in lazy)
    for y in (pickle.loads(pickle.dumps(labelled)), copy.deepcopy(labelled)):
        assert y.labels == labelled.labels
        assert y.edges == labelled.edges
        assert all(y.row(u) == labelled.row(u) for u in range(4))


def test_vertex_set_is_a_view_of_the_rows():
    # isolated vertices 7 and 2 are kept; ids need not be dense
    G = SkeletonGraph([9, 7, 4, 2, 0], [(0, 4), (4, 9)])
    assert "vertices" not in SkeletonGraph.__slots__
    for H in [G] + _copies(G):
        assert H.vertices == frozenset({0, 2, 4, 7, 9})
        assert list(H.vertices) == [0, 2, 4, 7, 9]
        assert len(H.vertices) == H.n == 5
        assert 7 in H.vertices and 2 in H.vertices and 3 not in H.vertices
        assert H.degree(7) == 0 and H.adj_mask[2] == 0
    LI = link(complete_hypergraph(6), 3, 1)
    assert list(LI.vertices) == [0, 2, 4, 5]
    assert LI.vertices == frozenset(LI.adj_mask)
    with pytest.raises(AttributeError):
        G.vertices = frozenset()


def test_skeleton_builds_no_row():
    H = random_hypergraph(30, 0.3, seed=1)
    skeleton(H)
    assert _unset(H, "_rows") and _unset(H, "_last")
    H.row(7)
    assert list(H._rows) == [7]


def test_host_passes_split_in_halves_match_one_pass(monkeypatch):
    """Above _SPLIT codes the skeleton is built in two halves on two
    threads: the same as in one pass, even with the threads switching
    every microsecond, and the worker thread is gone when the call
    returns. The last-vertex column, built a chunk at a time, is code % n."""
    H = random_hypergraph(130, 0.8, seed=3)
    assert H.codes.size >= hypergraph._SPLIT
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = skeleton(H)
        assert threading.active_count() == threads
        last = H._last
        assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(hypergraph, "_SPLIT", H.codes.size + 1)
    assert skeleton(H).adj_mask == split.adj_mask
    assert np.array_equal(hypergraph._last_vertices(H.n, H.codes), last)
    assert last.tolist() == (H.codes % H.n).tolist()


def _scattered(H):
    """H's skeleton scattered from its codes alone, by a host with no table."""
    return skeleton(Hypergraph3._from_codes(H.n, H.codes))


@pytest.fixture
def table_builds(monkeypatch):
    """The (n, top) of every pair-level table built, and the pair count of
    every lookup, while the test runs."""
    builds, lookups = [], []
    build, look_up = hypergraph._pair_levels, hypergraph._look_up_levels

    def counted_build(n, codes, level, top):
        builds.append((n, top))
        return build(n, codes, level, top)

    def counted_look_up(table, n, codes, level, x, y, unset):
        lookups.append(x.size)
        return look_up(table, n, codes, level, x, y, unset)

    monkeypatch.setattr(hypergraph, "_pair_levels", counted_build)
    monkeypatch.setattr(hypergraph, "_look_up_levels", counted_look_up)
    return builds, lookups


_DENSITIES = st.one_of(st.sampled_from([0.0, 0.005, 0.02, 0.3, 1.0]),
                       st.floats(0, 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), st.lists(_DENSITIES, min_size=1, max_size=5),
       st.integers(0, 2 ** 40), st.integers(0, 4))
# sparse bases, whose unset pairs ask more keys than a level has triples,
# so every denser level is scattered
@example(40, [0.005, 0.9], 1, 0)
@example(40, [0.005, 0.02, 0.3, 1.0], 2, 0)
@example(30, [0.02, 0.3, 0.02, 0.6], 3, 2)
# dense bases, whose few unset pairs are looked up
@example(40, [0.3, 0.5, 1.0], 4, 0)
@example(40, [0.0, 1.0], 5, 1)
@example(2, [0.4, 1.0], 6, 0)
@example(0, [0.0, 0.5], 7, 0)
def test_nested_hosts_read_the_skeleton_of_a_scatter(n, ps, seed, first):
    """Every host of a nested draw has the skeleton a scatter of its own
    codes gives, whichever host is asked first: hosts from the first one
    asked on are asked while the draw holds their arrays, the ones before
    it after the draw has ended."""
    hosts = []
    for i, (_, H) in enumerate(random_hypergraphs(n, ps, seed)):
        hosts.append(H)
        if i >= first:
            assert skeleton(H) == _scattered(H)
    for H in hosts[:first]:
        assert skeleton(H) == _scattered(H)


@pytest.mark.parametrize("ps, lookups", [
    ((0.005, 0.9), []),
    ((0.005, 0.02, 0.3, 1.0), [0]),
    ((0.1, 0.3, 0.5, 1.0), [17]),
], ids=["scatter", "scatter-then-lookup", "lookup"])
def test_table_looks_up_the_pairs_a_dense_level_leaves_unset(ps, lookups,
                                                              table_builds):
    # n = 40, 780 pairs, seed 0: the 0.1 base leaves 17 pairs unset, 646
    # keys against 1,918 triples at 0.3; the 0.005 base leaves 650, 24,700
    # keys against 8,932 triples at 0.9, or 160 at 0.02, and then 351
    # (13,338 keys) against 2,703 at 0.3, which leaves none
    builds, seen = table_builds
    for _, H in random_hypergraphs(40, ps, 0):
        assert skeleton(H) == _scattered(H)
    assert builds == [(40, len(ps) - 1)] and seen == lookups


def test_host_asked_after_the_draw_moved_on_scatters(table_builds):
    builds, _ = table_builds
    draw = random_hypergraphs(30, [0.1, 0.2, 0.4], 1)
    _, top = next(draw)
    _, mid = next(draw)
    # the draw has thinned past the top host: it scatters, builds nothing
    assert skeleton(top) == _scattered(top) and builds == []
    # the middle host builds the table from the arrays the draw holds now,
    # and the bottom host reads it
    assert skeleton(mid) == _scattered(mid) and builds == [(30, 1)]
    _, low = next(draw)
    assert skeleton(low) == _scattered(low) and builds == [(30, 1)]
    # a draw that has ended holds nothing: its hosts scatter
    hosts = [H for _, H in random_hypergraphs(30, [0.1, 0.4], 2)]
    assert [skeleton(H) for H in hosts] == [_scattered(H) for H in hosts]
    assert builds == [(30, 1)]
    # one density: no table at all
    assert random_hypergraph(30, 0.4, 2)._levels is None


@pytest.mark.parametrize("target, tables", [(KTT, 0), (TORUS, 0), (SPHERE, 2)])
def test_only_sweeps_that_read_a_skeleton_build_a_table(target, tables,
                                                       table_builds):
    builds, _ = table_builds
    threshold_sweep(target, [12, 20], [1.0, 4.0], 1, 0,
                    params=SearchParams(p=0.5, epsilon=0.1, trials=16))
    assert len(builds) == tables


def test_table_build_peaks_below_a_scatter_of_the_top_host():
    draw = random_hypergraphs(400, [c / 20 for c in (0.5, 1, 2, 4)], 0)
    _, top = next(draw)
    plain = Hypergraph3._from_codes(top.n, top.codes)
    tracemalloc.start()
    try:
        want = skeleton(plain)
        scatter_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert skeleton(top) == want
        table_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert table_peak < scatter_peak


def test_halves_cut_on_a_step_and_run_the_second_on_a_worker():
    seen = []

    def part(lo, hi):
        seen.append(threading.current_thread() is threading.main_thread())
        return lo, hi

    total = hypergraph._SPLIT + 10
    assert hypergraph._halves(part, total, 4) == [
        (0, total // 8 * 4), (total // 8 * 4, total)]
    assert sorted(seen) == [False, True]
    seen.clear()
    assert hypergraph._halves(part, total - 11) == [(0, total - 11)]
    assert seen == [True]


def test_row_rejects_a_non_vertex_once_rows_are_kept():
    # only a row's first read checks its vertex; a non-vertex is never kept
    H = complete_hypergraph(5)
    for u in range(5):
        H.row(u)
    for u in (-1, 5):
        with pytest.raises(ValueError, match=f"vertex {u} not in hypergraph"):
            H.row(u)
    assert sorted(H._rows) == list(range(5))


def test_last_vertex_column_widens_past_int16():
    # a row or skeleton at these n would scatter into an n x n array (1 GB),
    # so only the compact column that row builds scan is read
    top = 1 << 15
    for n, dtype in ((top, np.int16), (top + 1, np.int32)):
        H = Hypergraph3(n, [(0, 1, n - 1), (2, n - 2, n - 1), (0, 1, 2)])
        assert H._last.dtype == dtype
        assert H._last.tolist() == [2, n - 1, n - 1]


def _row_of(triples, u, n):
    """Entry w is the mask of the w' with uww' one of triples: bf.link_row
    read from the triples through u, not from all n^2 pairs."""
    row = [0] * n
    for t in triples:
        if u in t:
            w, wp = set(t) - {u}
            row[w] |= 1 << wp
            row[wp] |= 1 << w
    return tuple(row)


@pytest.mark.parametrize("n, dtype", ((1290, np.int32), (1291, np.int64)))
def test_code_width_follows_n(n, dtype):
    # every code (a*n + b)*n + c is below n^3, which int32 holds up to
    # n = 1290; the largest triple's code is the largest one
    assert code_dtype(n) is dtype
    top = (n - 3, n - 2, n - 1)
    triples = [(0, 1, 2), (0, 1, n - 1), (5, 600, n - 1), (7, n - 2, n - 1), top]
    H = Hypergraph3(n, triples)
    wide = np.array([(a * n + b) * n + c for a, b, c in triples], np.int64)
    drawn = random_hypergraph(n, 1e-6, seed=0)
    assert drawn.codes.size > 100
    for G, twin in ((H, Hypergraph3._from_codes(n, wide)),
                    (H, pickle.loads(pickle.dumps(H))),
                    (drawn, Hypergraph3(n, drawn.triples().tolist())),
                    (drawn, Hypergraph3._from_codes(n, drawn.codes.astype(np.int64))),
                    (drawn, pickle.loads(pickle.dumps(drawn)))):
        assert G.codes.dtype == twin.codes.dtype == dtype
        assert G == twin and hash(G) == hash(twin)
    assert H.has_triples([top, top[::-1], (n - 4, n - 2, n - 1), (n - 2, n - 1, n),
                          (0, 1, n - 1), (0, 2, n - 1)]).tolist() == [
        True, True, False, False, True, False]
    for G in (H, drawn):
        ts = G.triples()
        assert ts.dtype == np.int64
        edges = [tuple(t) for t in ts.tolist()]
        assert G.has_triples(ts).all()
        assert G.has_triples(ts + [0, 0, 1]).tolist() == [
            (a, b, c + 1) in G.edges for a, b, c in edges]
        for u in (0, edges[-1][0], n - 2, n - 1):
            assert G.row(u) == _row_of(edges, u, n)
            Gu = link(G, u)
            assert Gu.vertices == frozenset(range(n)) - {u}
            assert Gu.edges == frozenset(bf.link_pairs(edges, u))
        Gs = skeleton(G)
        assert Gs.vertices == frozenset(range(n))
        assert Gs.edges == frozenset(bf.skeleton_pairs(edges))
    assert complete_hypergraph(6).codes.dtype == np.int32


def test_no_binary_search_casts_the_host(monkeypatch):
    # a search of int32 codes for int64 keys would cast the whole host to
    # int64 on every call: every key handed to np.searchsorted with the
    # host's codes must already have their dtype
    H = complete_hypergraph(30)
    assert H.codes.dtype == np.int32
    real, searches = np.searchsorted, []

    def guarded(a, v, *args, **kwargs):
        if a is H.codes:
            assert np.asarray(v).dtype == a.dtype
            searches.append(v)
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", guarded)
    H.row(17)
    assert len(searches) == 3
    assert H.has_triples([(0, 1, 2), (2, 1, 0), (0, 0, 1), (0, 1, 30)]).tolist() == [
        True, True, False, False]
    assert len(searches) == 4
    cert = find_k_t_homeomorph(H, SearchParams(t=4, p=0.5, epsilon=0.1))
    assert verify_certificate(H, cert).passed
    assert len(searches) > 4


def test_audit_reads_only_adjacency_masks():
    # the structural and weighted rows both come from adj_mask alone, so
    # auditing a graph builds none of its derived views
    G = random_graph(10, 0.4, seed=7)
    grid = [(Fraction(1, 2), Fraction(1, 10)), (Fraction(3, 10), Fraction(1, 5))]
    lines = list(audit_corpus([("g", G)], grid))
    assert len(lines) == 4
    assert _unset(G, "adj") and _unset(G, "edges")
