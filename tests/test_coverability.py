import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from math import comb

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from diskcover import complexes, coverability, hypergraph
from diskcover.certificates import HomeomorphCertificate
from diskcover.complexes import boundary, classify, is_boundary_inducing
from diskcover.coverability import (EXHAUSTIVE_SMALL, PYRAMID_ONLY,
                                    CoverabilityEstimate, EstimatorParams,
                                    _leaf_counts, _reliability,
                                    admissibility_probabilities, as_fraction,
                                    exact_admissibility,
                                    exact_disk_coverability,
                                    find_boundary_inducing_disk,
                                    inadmissible_p2_audit, least_path,
                                    pair_psi, path_exists,
                                    pyramid_disk,
                                    sample_admissibility,
                                    sample_disk_coverability, triple_phi,
                                    weighted_inadmissibility_audit)
from diskcover.experiments import audit_corpus
from diskcover.generators import random_graph, random_hypergraph
from diskcover.hypergraph import (Hypergraph3, SkeletonGraph,
                                  common_neighborhood, complete_hypergraph,
                                  iter_p2s, link, link_intersection,
                                  skeleton)
from diskcover.rng import trial_masks
from diskcover.search import SearchParams, find_k_t_homeomorph

HALF = Fraction(1, 2)

# LI(v, v') is the path w-x-w'; the only covering disks are the two
# pyramids through x, so the coverability event is exactly {x in U}.
LI_PATH_H = Hypergraph3(5, [(0, 2, 4), (1, 2, 4), (0, 4, 3), (1, 4, 3)])
LI_PATH_CYCLE = (0, 2, 1, 3)

# An 8-triangle disk over the square 0 1 2 3 whose interior is the
# triangle {4, 5, 6}; no triangle pair forms a pyramid, so pyramid-only
# coverability is 0 while the exhaustive strategy sees the disk.
RING_DISK = [(0, 1, 4), (1, 4, 5), (1, 2, 5), (2, 5, 6),
             (2, 3, 6), (3, 6, 4), (3, 0, 4), (4, 5, 6)]
RING_H = Hypergraph3(7, RING_DISK)
RING_CYCLE = (0, 1, 2, 3)


def est_params(**kw) -> EstimatorParams:
    base = dict(p=0.5, epsilon=0.1, trials=400, seed=0)
    base.update(kw)
    return EstimatorParams(**base)


# ---------------------------------------------------------------------------
# fractions and params


def test_as_fraction():
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction("1/18") == Fraction(1, 18)
    assert as_fraction(2) == 2
    assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)
    assert as_fraction(0.5) == HALF
    with pytest.raises(TypeError):
        as_fraction(object())
    for bad in ("1/0", "3/0", float("inf"), "nan"):
        with pytest.raises(ValueError):
            as_fraction(bad)


def test_exact_oracles_reject_p_outside_unit_interval():
    G = four_cycle()
    H = complete_hypergraph(6)
    for p in (Fraction(-1, 10), 2, "11/10"):
        with pytest.raises(ValueError):
            exact_admissibility(G, 0, 1, 2, p)
        with pytest.raises(ValueError):
            admissibility_probabilities(G, p)
        with pytest.raises(ValueError):
            exact_disk_coverability(H, (0, 1, 2, 3), p)
    for p, eps in ((0, HALF), (HALF, 0), (2, HALF), (HALF, 3), ("1/0", HALF)):
        with pytest.raises(ValueError):
            weighted_inadmissibility_audit(G, p, eps)
    assert exact_admissibility(G, 0, 1, 2, 0) == 0
    assert exact_admissibility(G, 0, 1, 2, 1) == 1


def test_estimator_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(p=0.0)
    with pytest.raises(ValueError):
        EstimatorParams(epsilon=1.0)
    with pytest.raises(ValueError):
        EstimatorParams(trials=0)
    with pytest.raises(ValueError):
        EstimatorParams(strategy="everything")


def test_estimate_decision_rule():
    assert CoverabilityEstimate.from_counts(90, 100, 0.1).decided_coverable
    assert not CoverabilityEstimate.from_counts(89, 100, 0.1).decided_coverable


# ---------------------------------------------------------------------------
# pyramid disks


def test_pyramid_disk_k2():
    X = pyramid_disk(0, 1, (2, 3, 4))
    assert X.triangles == frozenset({(0, 2, 3), (1, 2, 3), (0, 3, 4), (1, 3, 4)})
    c = classify(X)
    assert (c.kind, c.euler) == ("Disk", 1)
    assert set(boundary(X).cycle) == {0, 2, 1, 4}
    assert is_boundary_inducing(X)


def test_pyramid_disk_k1_not_inducing():
    X = pyramid_disk(0, 1, (2, 3))
    assert len(X) == 2
    assert classify(X).kind == "Disk"
    assert not is_boundary_inducing(X)


def test_pyramid_disk_k3_counts():
    X = pyramid_disk(8, 9, (0, 1, 2, 3))
    assert len(X) == 6


def _path_case(verts, data):
    """Edges over a vertex set with gaps, as in link intersections, two
    distinct ends and an interior mask that may name non-members and the
    ends themselves."""
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(verts, 2))),
                               max_size=20, unique=True))
    a, b = data.draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2,
                              unique=True))
    interior = data.draw(st.integers(0, (1 << 12) - 1))
    return pairs, a, b, interior


_VERTS = st.lists(st.integers(0, 11), min_size=2, max_size=12, unique=True)


@settings(max_examples=300, deadline=None)
@given(_VERTS, st.data())
def test_path_rule_matches_brute_force(verts, data):
    """path_exists decides the path event; least_path is the least
    shortest path. Two equal ends have no path between them, though a
    closed walk may return to the end."""
    pairs, a, b, interior = _path_case(verts, data)
    adj = SkeletonGraph(verts, pairs).adj_mask
    assert not path_exists(adj, a, a, interior)
    assert least_path(adj, a, a, interior) is None
    allowed = {x for x in verts if (interior >> x) & 1}
    found = next(bf._simple_paths_interior_in(pairs, a, b, allowed), None)
    assert path_exists(adj, a, b, interior) == (found is not None)
    path = least_path(adj, a, b, interior)
    assert (path is None) == (found is None)
    if path is None:
        return
    paths = list(bf.simple_paths(pairs, a, b, allowed))
    shortest = min(len(p) for p in paths)
    assert len(path) == shortest
    assert tuple(path) == min(p for p in paths if len(p) == shortest)


@settings(max_examples=300, deadline=None)
@given(_VERTS, st.data())
def test_layers_are_distance_layers(verts, data):
    """Layer i of the search from either end is the set of interior
    vertices at distance i + 1 from that end, in the graph on the interior
    and that end, and each of them has that distance. Given a goal, the
    layers stop at the first that meets it."""
    pairs, a, b, interior = _path_case(verts, data)
    goal = data.draw(st.integers(0, (1 << 12) - 1))
    allowed = {x for x in verts if (interior >> x) & 1} - {a, b}
    reach = interior & ~((1 << a) | (1 << b))
    adj = SkeletonGraph(verts, pairs).adj_mask
    for end in (a, b):
        g = nx.Graph(pairs).subgraph(allowed | {end})
        dist = nx.single_source_shortest_path_length(g, end) if end in g else {}
        dist.pop(end, None)
        want = [sum(1 << x for x, d in dist.items() if d == i)
                for i in range(1, max(dist.values(), default=0) + 1)]
        assert coverability._layers(adj, end, reach) == (dist, want)
        first = next((i for i, layer in enumerate(want) if layer & goal),
                     len(want) - 1)
        assert coverability._layers(adj, end, reach, goal)[1] == want[:first + 1]


class _CountingAdj(dict):
    """An adjacency dict that counts the rows read through []."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = []

    def __getitem__(self, v):
        self.reads.append(v)
        return super().__getitem__(v)


def test_least_path_distance_two_reads_only_the_ends():
    # in the link of 8 in K_9 (a K_8) every vertex but 0 and 1 joins them
    adj = _CountingAdj(link(complete_hypergraph(9), 8).adj_mask)
    assert least_path(adj, 0, 1, (1 << 9) - 1) == [0, 2, 1]
    assert set(adj.reads) == {0, 1}


def test_least_path_reads_no_dead_end_beside_the_start():
    # 0 has eight interior neighbours 2..9 that lead nowhere, and one path
    # 0-10-11-12-1 of four edges; the layers grow from 1 and the walk from
    # 0 reads only the rows along that path
    dead = range(2, 10)
    pairs = [(0, x) for x in dead] + [(0, 10), (10, 11), (11, 12), (12, 1)]
    adj = _CountingAdj(SkeletonGraph(range(13), pairs).adj_mask)
    assert least_path(adj, 0, 1, (1 << 13) - 1) == [0, 10, 11, 12, 1]
    assert not set(adj.reads) & set(dead)


def test_path_exists_distance_two_reads_only_the_ends():
    # the two frontiers from 0 and 1 in the K_8 link of 8 in K_9 meet at
    # once, before either is expanded
    adj = _CountingAdj(link(complete_hypergraph(9), 8).adj_mask)
    assert path_exists(adj, 0, 1, (1 << 9) - 1)
    assert sorted(adj.reads) == [0, 1]


def test_pyramid_disk_validation():
    with pytest.raises(ValueError):
        pyramid_disk(0, 0, (1, 2))
    with pytest.raises(ValueError):
        pyramid_disk(0, 1, (2,))
    with pytest.raises(ValueError):
        pyramid_disk(0, 1, (2, 2, 3))
    with pytest.raises(ValueError):
        pyramid_disk(0, 1, (0, 2))


# ---------------------------------------------------------------------------
# admissibility


def four_cycle() -> SkeletonGraph:
    # w=0, u=1, w'=2, x=3
    return SkeletonGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_exact_admissibility_four_cycle_is_p():
    G = four_cycle()
    for p in (HALF, Fraction(3, 10), Fraction(9, 10)):
        assert exact_admissibility(G, 0, 1, 2, p) == p


def test_exact_admissibility_no_detour_is_zero():
    # w adjacent to w' with no other connection: only the direct edge
    G = SkeletonGraph(range(4), [(0, 1), (1, 2), (0, 2), (3, 0)])
    assert exact_admissibility(G, 0, 1, 2, HALF) == 0


def test_exact_admissibility_triangle_plus_common_neighbor():
    # triangle w u w' plus x adjacent to both w and w'
    G = SkeletonGraph(range(4), [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])
    assert exact_admissibility(G, 0, 1, 2, HALF) == HALF
    assert exact_admissibility(G, 0, 1, 2, Fraction(3, 10)) == Fraction(3, 10)


def test_exact_admissibility_monotone_in_p():
    G = skeleton(complete_hypergraph(5))
    probs = [exact_admissibility(G, 0, 1, 2, as_fraction(p))
             for p in ("0.2", "0.5", "0.8")]
    assert probs[0] <= probs[1] <= probs[2]


@pytest.mark.parametrize("call", [
    lambda G, H: exact_admissibility(G, 0, 1, 2, HALF),
    lambda G, H: admissibility_probabilities(G, HALF),
    lambda G, H: exact_disk_coverability(H, (0, 1, 2, 3), HALF),
    lambda G, H: weighted_inadmissibility_audit(G, HALF, HALF),
], ids=["exact_admissibility", "admissibility_tables",
        "exact_disk_coverability", "weighted_inadmissibility_audit"])
def test_exact_size_guard(call):
    # 26 vertices, one more than the exact routines walk
    G = SkeletonGraph(range(26), [(0, 1), (1, 2)])
    H = Hypergraph3(26, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
    with pytest.raises(ValueError, match="exact oracle limited to 25 vertices"):
        call(G, H)


def test_exact_admissibility_matches_brute_force():
    for seed in range(6):
        G = random_graph(8, 0.45, seed=seed)
        edges = list(G.edges)
        p2s = list(iter_p2s(G))[:6]
        for x, y, z in p2s:
            for p in (HALF, Fraction(1, 4)):
                got = exact_admissibility(G, x, y, z, p)
                want = bf.exact_admissibility(edges, 8, x, y, z, p)
                assert got == want


def test_admissibility_probabilities_table():
    G = random_graph(7, 0.5, seed=3)
    table = admissibility_probabilities(G, HALF)
    assert set(table) == set(iter_p2s(G))
    for (x, y, z), prob in table.items():
        assert prob == exact_admissibility(G, x, y, z, HALF)


ORACLE_PS = (Fraction(0), Fraction(1, 4), Fraction(2, 7), HALF, Fraction(1))


# a graph on 3..8 vertices, as n and one keep flag per vertex pair
SMALL_GRAPHS = st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=comb(n, 2),
                         max_size=comb(n, 2))))


def _graph_and_p2(graph, data):
    """The graph, its edge pairs and one drawn length-2 path."""
    n, keep = graph
    edges = [e for e, k in zip(combinations(range(n), 2), keep) if k]
    G = SkeletonGraph(range(n), edges)
    p2s = list(iter_p2s(G))
    assume(p2s)
    return G, edges, data.draw(st.sampled_from(p2s))


@settings(max_examples=60, deadline=None)
@given(SMALL_GRAPHS, st.data())
def test_count_polynomial_matches_brute_force(graph, data):
    G, edges, (x, y, z) = _graph_and_p2(graph, data)
    n = G.n
    for p in ORACLE_PS:
        want = bf.exact_admissibility(edges, n, x, y, z, p)
        assert exact_admissibility(G, x, y, z, p) == want
        assert admissibility_probabilities(G, p)[x, y, z] == want


def _pruned_nodes(order, event) -> int:
    """Nodes of the lattice walk that branches while a node's included
    set fails and its included plus undecided set holds."""
    def rec(idx, inc, rest):
        if event(inc) or not event(inc | rest):
            return 1
        bit = 1 << order[idx]
        return 1 + rec(idx + 1, inc | bit, rest ^ bit) + rec(idx + 1, inc, rest ^ bit)
    return rec(0, 0, sum(1 << v for v in order))


def test_lattice_walk_asks_each_node_once():
    walks = 0
    for seed in range(4):
        G = random_graph(9, 0.4, seed=seed)
        for x, y, z in iter_p2s(G):
            universe = [v for v in range(9) if v not in (x, y, z)]

            def event(mask, x=x, z=z):
                return path_exists(G.adj_mask, x, z, mask)

            asked = []
            _leaf_counts(universe, lambda m: asked.append(m) or event(m))
            assert len(asked) == len(set(asked))
            assert len(asked) <= _pruned_nodes(universe, event)
            walks += 1
    assert walks > 50


def _ascending_walk(G, x, y, z):
    """The admissibility walk over the universe in ascending vertex order."""
    universe = [v for v in G.vertices if v not in (x, y, z)]
    return _leaf_counts(universe,
                        lambda m: coverability.path_exists(G.adj_mask, x, z, m))


def _ascending_cover_walk(H, cyc, strategy, max_interior):
    """The coverability walk over V(H) minus the cycle in ascending order."""
    universe = [v for v in H.vertices if v not in cyc]
    return _leaf_counts(universe, partial(
        coverability._holds,
        *coverability._coverability_event(H, cyc, strategy, max_interior)))


def _valid_cycles(n, triples):
    """The 4-cycles v w v' w' whose four edges lie in triples."""
    pairs = bf.skeleton_pairs(triples)
    return [c for c in permutations(range(n), 4)
            if all(tuple(sorted(e)) in pairs for e in zip(c, c[1:] + c[:1]))]


@settings(max_examples=60, deadline=None)
@given(SMALL_GRAPHS, st.data())
def test_ordered_walk_matches_ascending_walk(graph, data):
    """Both walks, ordered and ascending, give the brute-force probability:
    of admissibility, and of coverability on a host drawn alongside, with
    n <= 9 under PYRAMID_ONLY and n <= 8 under EXHAUSTIVE_SMALL, where the
    brute force enumerates every disk of up to three interior vertices,
    the default budget."""
    G, edges, (x, y, z) = _graph_and_p2(graph, data)
    ordered = coverability._admissibility_leaves(G, x, y, z)
    ascending = _ascending_walk(G, x, y, z)
    for p in ORACLE_PS:
        want = bf.exact_admissibility(edges, G.n, x, y, z, p)
        assert _reliability(ordered, G.n - 3, p) == want
        assert _reliability(ascending, G.n - 3, p) == want

    strategy = data.draw(st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]))
    n = data.draw(st.integers(5, 9 if strategy == PYRAMID_ONLY else 8))
    # triples kept with odds 3:1, so that 4-cycles and disks are common
    keep = data.draw(st.lists(st.integers(0, 3), min_size=comb(n, 3),
                              max_size=comb(n, 3)))
    triples = [t for t, k in zip(combinations(range(n), 3), keep) if k]
    cycles = _valid_cycles(n, triples)
    if not cycles:
        return
    cyc = data.draw(st.sampled_from(cycles))
    H = Hypergraph3(n, triples)
    sets = bf.coverable_sets(triples, n, cyc,
                             0 if strategy == PYRAMID_ONLY else 3)
    ascending = _ascending_cover_walk(H, cyc, strategy, 3)
    for p in ORACLE_PS:
        want = sum(p ** len(U) * (1 - p) ** (n - len(U)) for U in sets)
        assert exact_disk_coverability(H, cyc, p, strategy, 3) == want
        assert _reliability(ascending, n - 4, p) == want


def test_ordered_walk_asks_a_third_of_the_ascending_walk(monkeypatch):
    # one `_holds` call per node of a walk
    asked = []
    holds = coverability._holds
    monkeypatch.setattr(coverability, "_holds",
                        lambda *args: asked.append(args) or holds(*args))
    ordered = ascending = 0
    for n, q, seed in product(range(9, 13), (0.25, 0.4), range(4)):
        G = random_graph(n, q, seed=seed)
        for x, y, z in iter_p2s(G):
            asked.clear()
            walk = coverability._admissibility_leaves(G, x, y, z)
            ordered += len(asked)
            asked.clear()
            base = _ascending_walk(G, x, y, z)
            ascending += len(asked)
            assert _reliability(walk, n - 3, HALF) == _reliability(base, n - 3, HALF)
    assert 3 * ordered <= ascending, (ordered, ascending)
    # the exact count pins the walk order, key and tie-break included
    assert ordered == 24_247

    # the coverability walk, on the first eight 4-cycles of a pinned host
    H = random_hypergraph(18, 0.4, 2)
    cycles = [c for c in combinations(range(18), 4)
              if all(H.row(a)[b] for a, b in zip(c, c[1:] + c[:1]))][:8]
    ordered = ascending = 0
    for cyc in cycles:
        asked.clear()
        prob = exact_disk_coverability(H, cyc, HALF)
        ordered += len(asked)
        asked.clear()
        base = _ascending_cover_walk(H, cyc, PYRAMID_ONLY, 3)
        ascending += len(asked)
        assert prob == _reliability(base, 14, HALF)
    assert 10 * ordered <= ascending, (ordered, ascending)


def test_lattice_walk_degenerate_events():
    for p in ORACLE_PS:
        for universe in ([], [3], [0, 2, 5, 9]):
            k = len(universe)
            assert _reliability(_leaf_counts(universe, lambda m: True), k, p) == 1
            assert _reliability(_leaf_counts(universe, lambda m: False), k, p) == 0
        # the events {2 in U} and {2, 5 in U}
        assert _reliability(_leaf_counts([0, 2, 5], lambda m: m >> 2 & 1), 3, p) == p
        both = _leaf_counts([0, 2, 5], lambda m: m & 0b100100 == 0b100100)
        assert _reliability(both, 3, p) == p * p


def test_sample_admissibility_four_cycle():
    G = four_cycle()
    est = sample_admissibility(G, 0, 1, 2, est_params(trials=4000))
    assert abs(est.estimate - 0.5) < 0.05


def test_sample_admissibility_disconnected_is_zero():
    G = SkeletonGraph(range(5), [(0, 1), (1, 2), (3, 4)])
    est = sample_admissibility(G, 0, 1, 2, est_params())
    assert est.estimate == 0.0
    assert not est.decided_coverable


def test_sample_admissibility_k5_matches_exact():
    G = skeleton(complete_hypergraph(5))
    exact = exact_admissibility(G, 0, 1, 2, HALF)
    est = sample_admissibility(G, 0, 1, 2, est_params(trials=4000))
    assert abs(est.estimate - float(exact)) < 0.05


def test_sample_admissibility_requires_path():
    G = SkeletonGraph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        sample_admissibility(G, 0, 1, 2, est_params())
    with pytest.raises(ValueError):
        sample_admissibility(four_cycle(), 0, 1, 0, est_params())


def test_sample_admissibility_deterministic():
    G = skeleton(complete_hypergraph(6))
    a = sample_admissibility(G, 0, 1, 2, est_params(seed=42))
    b = sample_admissibility(G, 0, 1, 2, est_params(seed=42))
    assert a == b


# ---------------------------------------------------------------------------
# disk coverability


def test_coverability_no_disk_estimate_zero():
    H = Hypergraph3(6, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 5)])
    est = sample_disk_coverability(H, (0, 1, 2, 3), est_params())
    assert est.estimate == 0.0
    assert exact_disk_coverability(H, (0, 1, 2, 3), HALF) == 0


def test_coverability_li_path_instance_exact_p():
    for p in (HALF, Fraction(3, 10)):
        assert exact_disk_coverability(LI_PATH_H, LI_PATH_CYCLE, p) == p
    est = sample_disk_coverability(LI_PATH_H, LI_PATH_CYCLE,
                                   est_params(trials=4000))
    assert abs(est.estimate - 0.5) < 0.05


def test_coverability_complete_frozen_values():
    # K_8: either apex pair needs one of the four free vertices in U
    assert exact_disk_coverability(complete_hypergraph(8), (0, 1, 2, 3),
                                   HALF) == Fraction(15, 16)
    # K_10: six free vertices
    assert exact_disk_coverability(complete_hypergraph(10), (0, 1, 2, 3),
                                   HALF) == Fraction(63, 64)
    est = sample_disk_coverability(complete_hypergraph(10), (0, 1, 2, 3),
                                   est_params())
    assert est.decided_coverable  # 63/64 > 0.9


def test_coverability_matches_brute_force():
    from diskcover.generators import random_hypergraph
    checked = 0
    for seed in range(10):
        H = random_hypergraph(7, 0.35, seed=seed)
        skel = skeleton(H)
        cycles = [c for c in combinations(range(7), 4)]
        for a, b, c, d in cycles:
            cyc = (a, b, c, d)
            edges = set(skel.edges)
            if not all(tuple(sorted(e)) in edges
                       for e in ((a, b), (b, c), (c, d), (d, a))):
                continue
            got = exact_disk_coverability(H, cyc, HALF)
            want = bf.exact_pyramid_coverability(H.edges, 7, cyc, HALF)
            assert got == want
            checked += 1
            break  # one valid cycle per hypergraph keeps this quick
    assert checked >= 4


def test_coverability_invalid_cycle():
    H = complete_hypergraph(6)
    with pytest.raises(ValueError):
        sample_disk_coverability(H, (0, 1, 2), est_params())
    with pytest.raises(ValueError):
        sample_disk_coverability(H, (0, 1, 1, 2), est_params())
    sparse = Hypergraph3(6, [(0, 1, 2)])
    with pytest.raises(ValueError):
        sample_disk_coverability(sparse, (0, 1, 2, 3), est_params())


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=comb(n, 3),
                         max_size=comb(n, 3)))), st.data())
def test_coverability_rejects_exactly_the_invalid_cycles(host, data):
    """The cycle check raises, with its message, exactly when the cycle
    repeats a vertex, leaves V(H) or misses a skeleton edge."""
    n, keep = host
    triples = [t for t, k in zip(combinations(range(n), 3), keep) if k]
    vertex = st.integers(0, n - 1) | st.integers(-2, n + 1)
    cycle = tuple(data.draw(st.lists(vertex, min_size=4, max_size=4)))
    pairs = bf.skeleton_pairs(triples)
    if len(set(cycle)) != 4:
        want = "boundary cycle must list four distinct vertices"
    elif any(not 0 <= x < n for x in cycle):
        want = f"vertex {next(x for x in cycle if not 0 <= x < n)} not in the skeleton"
    else:
        want = next((f"cycle edge {a}-{b} missing from the skeleton"
                     for a, b in zip(cycle, cycle[1:] + cycle[:1])
                     if tuple(sorted((a, b))) not in pairs), None)
    H = Hypergraph3(n, triples)
    if want is None:
        sample_disk_coverability(H, cycle, est_params(trials=4))
    else:
        with pytest.raises(ValueError) as err:
            sample_disk_coverability(H, cycle, est_params(trials=4))
        assert str(err.value) == want


@pytest.mark.parametrize("trials, epsilon, need", [
    (10, 0.1, 9), (10, 0.7, 4), (1, 0.9, 1), (7, 0.5, 4), (64, 0.1, 58),
    (65, 0.1, 59), (3, 1 / 3, 3)])
def test_least_hits_float_edges(trials, epsilon, need):
    # in floats 1 - 0.7 is 0.30000000000000004, above 3 / 10, and 1 - 1/3
    # is 0.6666666666666667, above 2 / 3
    assert coverability._least_hits(trials, epsilon) == need
    est = CoverabilityEstimate.from_counts
    assert est(need, trials, epsilon).decided_coverable
    assert not est(need - 1, trials, epsilon).decided_coverable


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.floats(0, 1, exclude_min=True,
                                     exclude_max=True))
def test_least_hits_is_the_decision_rule(trials, epsilon):
    need = coverability._least_hits(trials, epsilon)
    assert need == min(h for h in range(trials + 1)
                       if h / trials >= 1 - epsilon)


def _members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def _kernel(search, disk, masks, need=None):
    """`_hits(search, disk, masks, need)` and what it asked, in order: the
    (front_a, front_b, interior) of each `_meets` call and ("disk", m) for
    each disk searcher call."""
    asked = []
    meets = coverability._meets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_meets", lambda adj, fa, fb, inner:
                   asked.append((fa, fb, inner)) or meets(adj, fa, fb, inner))
        if disk is not None:
            find = disk.find
            mp.setattr(disk, "find",
                       lambda m: asked.append(("disk", m)) or find(m))
        hits = coverability._hits(search, disk, masks, need)
    return hits, asked


def _sure(search, disk, m):
    """True for a mask the screens settle as a hit, False for one they
    settle as a miss, None for an open mask: the screens' rule, read off
    the search's ends."""
    a, b = _ends(search)
    if m & a & b:
        return True
    if disk is None and not (m & a and m & b):
        return False
    return None


def _tried(search, disk, masks, asked):
    """The open masks the kernel asked, in order, and all the open masks:
    the asked ones are the prefix of the open ones whose calls, each
    asked alone, make up `asked`."""
    open_ = [m for m in masks if _sure(search, disk, m) is None]
    tried, calls = [], []
    while calls != asked:
        tried.append(open_[len(tried)])
        calls += _kernel(search, disk, tried[-1:])[1]
    return tried, open_


def _check_decision_path(search, disk, masks, need, outcomes) -> None:
    """The kernel counts the reference outcomes over all masks. Given need,
    it gives the full count's decision after exactly the masks it takes
    to fix it: the screened masks first, then the open ones in mask order,
    asking nothing of a screened mask and of each open one what it asks
    of that mask alone."""
    spare = len(masks) - need
    sure = [_sure(search, disk, m) for m in masks]
    hits, misses = sure.count(True), sure.count(False)
    asked_masks = []
    if hits < need and misses <= spare:
        for m, known, hit in zip(masks, sure, outcomes):
            if known is None:
                asked_masks.append(m)
                hits += hit
                misses += not hit
                if hits >= need or misses > spare:
                    break
    got, asked = _kernel(search, disk, masks, need)
    assert (got >= need) == (sum(outcomes) >= need)
    alone = [_kernel(search, disk, [m])[1] for m in asked_masks]
    assert all(alone)
    assert asked == [call for calls in alone for call in calls]
    assert _kernel(search, disk, masks)[0] == sum(outcomes)


def _side_two(H, cyc, params):
    """The trial masks of a checked cycle, the masks among them on which
    the first pyramid side misses, and the second side's search and disk
    searcher: what the lane pass hands `_hits` for a cycle short on the
    first side."""
    v, w, vp, wp = cyc
    masks = trial_masks(params.seed, (coverability._STREAM_COVER, *cyc),
                        params.trials, max(H.n, 1), params.p)
    li = link_intersection(H, v, vp)
    misses = [m for m in masks if not path_exists(li, w, wp, m)]
    searches, disk = coverability._coverability_event(
        H, cyc, params.strategy, params.max_interior)
    return masks, misses, searches[1], disk


def _lane_pass(H, cyc, params, need=None):
    """`_cycle_hits` of one cycle, and the (masks, need) of each `_hits`
    call it made."""
    calls = []
    real = coverability._hits
    v, w, vp, wp = cyc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverability, "_hits", lambda search, disk, masks, left, pair:
                   calls.append((masks, left))
                   or real(search, disk, masks, left, pair))
        [hits] = coverability._cycle_hits(H, v, vp, [(w, wp)], params, need)
    return hits, calls


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 8), st.sampled_from([0.5, 0.8, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 7, 10, 64, 65]),
       st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.9]),
       st.sampled_from([0.2, 0.5, 0.8]),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]),
       st.sampled_from([1, 2, 3]), st.data())
def test_decision_path_matches_samplers(n, density, host_seed, trials,
                                        epsilon, p, strategy, max_interior,
                                        data):
    """Both samplers count, over their trial masks, what brute force counts:
    `bf.pyramid_event`, or a disk of `bf.lexicographic_disks` under
    EXHAUSTIVE_SMALL (budgets up to the default of three interior
    vertices), and `bf.admissibility_event`. The lane pass counts a cycle
    by handing `_hits` its first side's misses, all of them without need
    and with need less the first side's hits once that is positive; the
    stopping decisions agree with the full counts, and the kernel stops
    where the count fixes them."""
    rng = random.Random(host_seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    H = Hypergraph3(n, triples)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        seed=host_seed % 97, strategy=strategy,
                        max_interior=max_interior)
    need = min(h for h in range(trials + 1) if h / trials >= 1 - epsilon)
    assert need == coverability._least_hits(trials, epsilon)
    cycles = _valid_cycles(n, triples)
    assume(cycles)
    cyc = data.draw(st.sampled_from(cycles))
    interiors = [] if strategy == PYRAMID_ONLY else [
        frozenset(v for t in disk for v in t) - set(cyc) for disk in
        bf.lexicographic_disks(triples, cyc, range(n), max_interior)]
    masks, misses, search, disk = _side_two(H, cyc, params)
    held = {m: bf.pyramid_event(triples, cyc, U)
            or any(inner <= U for inner in interiors)
            for m, U in zip(masks, map(_members, masks))}
    outcomes = [held[m] for m in masks]
    full = sample_disk_coverability(H, cyc, params)
    assert full.successes == sum(outcomes)
    assert _lane_pass(H, cyc, params) == (full.successes, [(misses, None)]
                                          if misses else [])
    hits, calls = _lane_pass(H, cyc, params, need)
    assert (hits >= need) == full.decided_coverable
    left = need - (trials - len(misses))
    assert calls == ([(misses, left)] if left > 0 else [])
    if left > 0:
        _check_decision_path(search, disk, misses, left,
                             [held[m] for m in misses])

    G = skeleton(H)
    w, u, wp = data.draw(st.sampled_from(list(iter_p2s(G))))
    search, disk, masks = coverability._sampled_admissibility(G, w, u, wp,
                                                              params)
    edges = bf.skeleton_pairs(triples)
    outcomes = [bf.admissibility_event(edges, w, u, wp, U)
                for U in map(_members, masks)]
    full = sample_admissibility(G, w, u, wp, params)
    assert full.successes == sum(outcomes)
    assert coverability._admissible(G, w, u, wp, params) == full.decided_coverable
    _check_decision_path(search, disk, masks, need, outcomes)


def test_decision_path_stops_once_fixed(monkeypatch):
    # at 1 - 0.1 over 64 trials the decision is fixed at the 58th hit or
    # at the 7th miss. On K_10 the numpy screen settles every trial, and
    # on the LI path instance the first side holds exactly when the mask
    # holds x while the second side has no ends: no path search runs
    # there. On SIDE_TWO_H at p = 0.9 the first side never holds and the
    # second holds exactly when the mask holds 6 and 7, the masks its
    # screen leaves open: at 1 - 0.5 the count stops at the 32nd hit,
    # after 32 searches, and at 1 - 0.1 the screen's misses alone fix it
    searched = []
    real = coverability._meets
    monkeypatch.setattr(coverability, "_meets",
                        lambda *a: searched.append(a) or real(*a))
    assert coverability._least_hits(64, 0.1) == 58
    for H, cyc, p, epsilon, coverable, searches in (
            (complete_hypergraph(10), (0, 1, 2, 3), 0.5, 0.1, True, 0),
            (LI_PATH_H, LI_PATH_CYCLE, 0.5, 0.1, False, 0),
            (SIDE_TWO_H, (0, 1, 2, 3), 0.9, 0.5, True, 32),
            (SIDE_TWO_H, (0, 1, 2, 3), 0.9, 0.1, False, 0)):
        params = est_params(p=p, epsilon=epsilon, trials=64)
        need = coverability._least_hits(64, epsilon)
        del searched[:]
        hits, _ = _lane_pass(H, cyc, params, need)
        assert (hits >= need) == coverable
        assert len(searched) == searches
        full = sample_disk_coverability(H, cyc, params)
        assert full.decided_coverable == coverable
        if searches:
            assert hits == need < full.successes


def _screen_case(n, density, host_seed, data):
    """A random host on n vertices, one of its 4-cycles and one of the
    length-2 paths of its skeleton."""
    rng = random.Random(host_seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    cycles = _valid_cycles(n, triples)
    assume(cycles)
    H = Hypergraph3(n, triples)
    G = skeleton(H)
    return (H, data.draw(st.sampled_from(cycles)), G,
            data.draw(st.sampled_from(list(iter_p2s(G)))))


def _ends(search):
    """A search's ends: the neighbours of a and of b in its interior,
    other than a and b, read off its rows. They are the ends the event
    description carries, which the screens read."""
    carried, rows, a, b, interior = search
    assert not interior >> a & 1 and not interior >> b & 1
    ends = (rows[a] & interior, rows[b] & interior)
    assert ends == carried
    return ends


def _kernel_cases(H, cyc, strategy, G, w, u, wp):
    """Each pyramid side of the cycle with its disk searcher, and the
    admissibility search of w u w' with none: every (search, disk) the
    kernel may be given."""
    searches, disk = coverability._coverability_event(H, cyc, strategy, 3)
    [path], none = coverability._admissibility_event(G, w, u, wp)
    assert (disk is None) == (strategy == PYRAMID_ONLY) and none is None
    return [(search, disk) for search in searches] + [(path, None)]


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 8), st.sampled_from([0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_screens_settle_only_sure_masks(n, density, host_seed, strategy, data):
    """A mask meeting a vertex joined to both ends of the search is a hit;
    one that misses an end neighbourhood is a miss, which the screen
    concludes only without a disk searcher, under PYRAMID_ONLY and for
    admissibility. The kernel asks nothing of those masks, and asks
    something of every other mask."""
    H, cyc, G, (w, u, wp) = _screen_case(n, density, host_seed, data)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    for search, disk in _kernel_cases(H, cyc, strategy, G, w, u, wp):
        event = partial(coverability._holds, (search,), disk)
        a, b = _ends(search)
        for m in masks:
            screened = _kernel(search, disk, [m])
            if m & a & b:
                assert event(m)
                assert screened == (1, [])
            elif disk is None and not (m & a and m & b):
                assert not event(m)
                assert screened == (0, [])
            else:
                assert screened[0] == event(m)
                assert screened[1] != []


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 8), st.sampled_from([0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([8, 16, 64]),
       st.sampled_from([0.1, 0.5, 0.9]), st.sampled_from([0.2, 0.5, 0.8]),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_decisions_ask_only_the_open_masks(n, density, host_seed, trials,
                                           epsilon, p, strategy, data):
    """A coverability decision, whose second side the lane pass asks of the
    first side's misses with the hits still needed, and `_admissible` ask
    the kernel of the masks the screen leaves open, in order, and of none
    when the screened ones decide; with a disk searcher (EXHAUSTIVE_SMALL)
    only the hit screen applies."""
    H, cyc, G, (w, u, wp) = _screen_case(n, density, host_seed, data)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        seed=host_seed % 97, strategy=strategy)
    need = coverability._least_hits(trials, epsilon)
    _, misses, side_two, disk = _side_two(H, cyc, params)
    for decide, (search, disk, masks), want in (
            (lambda: _lane_pass(H, cyc, params, need)[0] >= need,
             (side_two, disk, misses), need - (trials - len(misses))),
            (lambda: coverability._admissible(G, w, u, wp, params),
             coverability._sampled_admissibility(G, w, u, wp, params),
             need)):
        if want <= 0:  # the first side alone reaches need
            assert decide()
            continue
        a, b = _ends(search)
        hit = [m for m in masks if m & a & b]
        open_ = [m for m in masks if m not in hit and (
            disk is not None or m & a and m & b)]
        assert [m for m in masks if _sure(search, disk, m) is None] == open_
        left = want - len(hit)
        hits, asked = _kernel(search, disk, masks, want)
        if not 0 < left <= len(open_):
            assert asked == []
        else:
            tried, _ = _tried(search, disk, masks, asked)
            held = [_kernel(search, disk, [m])[0] for m in tried]

            def fixed(k):
                return (sum(held[:k]) >= left
                        or k - sum(held[:k]) > len(open_) - left)

            # up to the one that fixes the decision, open before it
            assert fixed(len(tried))
            assert not any(fixed(k) for k in range(len(tried)))
        assert (hits >= want) == decide()


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 7), st.sampled_from([0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_kernel_counts_the_event_over_every_mask(n, density, host_seed,
                                                 strategy, data):
    """Over all 2^n masks the kernel counts the masks on which `_holds`, the
    walks' per-mask test, holds for its one search: the search from the
    ends never passes through an end, as the search leaves both out of
    the interior."""
    H, cyc, G, (w, u, wp) = _screen_case(n, density, host_seed, data)
    masks = list(range(1 << n))
    for search, disk in _kernel_cases(H, cyc, strategy, G, w, u, wp):
        event = partial(coverability._holds, (search,), disk)
        assert coverability._hits(search, disk, masks) == sum(
            map(event, masks))


def test_kernel_never_passes_through_an_end():
    # the ends 0 and 1 of the path 0 2 1 are joined, and their other
    # neighbours 3 and 4 lead nowhere: no path avoids 2, but a search whose
    # interior kept the ends could walk 3 0 1 4 and meet on the mask of all
    # four
    G = SkeletonGraph(range(5), [(0, 2), (2, 1), (0, 1), (0, 3), (1, 4)])
    [search], disk = coverability._admissibility_event(G, 0, 2, 1)
    assert coverability._hits(search, disk, list(range(32))) == 0
    assert exact_admissibility(G, 0, 2, 1, HALF) == 0


def test_screens_decide_complete_host_without_a_path_search(monkeypatch):
    # on K_10 every vertex off the cycle joins both ends of each side: a
    # decision is settled by the numpy screen of the one-vertex pyramids,
    # and in a full count the masks the first side misses hold no vertex
    # off the cycle, which the second side's miss screen settles
    calls = []
    real = coverability._meets
    monkeypatch.setattr(coverability, "_meets",
                        lambda *a: calls.append(a) or real(*a))
    H = complete_hypergraph(10)
    params = est_params(trials=64)
    need = coverability._least_hits(64, params.epsilon)
    assert coverability._cycle_hits(H, 0, 2, [(1, 3)], params, need)[0] >= need
    assert sample_disk_coverability(H, (0, 1, 2, 3), params).decided_coverable
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 9), st.sampled_from([0.3, 0.6, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_second_side_ends_read_off_the_rows(n, density, host_seed, data):
    """The second pyramid search's ends, read off its rows
    row(w)[x] & row(w')[x], are the ends LI(w, w') gives, for any four
    distinct vertices, and its rows are LI(w, w')'s, with 0 at w and w'."""
    rng = random.Random(host_seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    H = Hypergraph3(n, triples)
    v, w, vp, wp = data.draw(st.permutations(range(n)))[:4]
    searches, _ = coverability._coverability_event(H, (v, w, vp, wp),
                                                   PYRAMID_ONLY, 3)
    ends, rows, a, b, interior = searches[1]
    li = link(H, w, wp).adj_mask
    assert (a, b, interior) == (v, vp, ~(1 << v | 1 << vp))
    assert ends == (li[v] & ~(1 << vp), li[vp] & ~(1 << v))
    assert {x: rows[x] for x in li} == li and rows[w] == rows[wp] == 0


def _count_link_intersections(monkeypatch):
    """The (v, v') of every link intersection coverability builds the
    rows of."""
    built = []
    real = coverability.link_intersection
    monkeypatch.setattr(coverability, "link_intersection",
                        lambda H, v, vp: built.append((v, vp)) or real(H, v, vp))
    return built


# On SIDE_TWO_H the 4-cycle 0 1 2 3 has a first pyramid side 1-4 ... 5-3 cut
# between 4 and 5, and a second side 0-6-7-2: the screens leave a mask
# holding 4 and 5 open, its first search fails, and the second holds
# exactly when the mask holds 6 and 7.
SIDE_TWO_H = Hypergraph3(8, [(0, 1, 4), (1, 2, 4), (0, 3, 5), (2, 3, 5),
                             (0, 1, 6), (0, 3, 6), (1, 6, 7), (3, 6, 7),
                             (1, 2, 7), (2, 3, 7)])


def test_lane_pass_builds_each_sides_rows_once(monkeypatch):
    built = _count_link_intersections(monkeypatch)
    params = est_params(trials=64)
    need = coverability._least_hits(64, params.epsilon)
    # on K_12 some trial's mask holds none of the 8 vertices off the
    # cycle, so a full count finds the cycle short on the first side; the
    # second side's screens, read off rows 1 and 3, settle those masks
    # (they miss both ends), so LI(w, w') is never built
    for n in (12, 30):
        H = complete_hypergraph(n)
        # the numpy screen settles a decision: LI(v, v') only
        assert coverability._cycle_hits(H, 0, 2, [(1, 3)], params,
                                         need)[0] >= need
        assert built == [(0, 2)]
        del built[:]
        # a full count: LI(v, v') once, and LI(w, w') only for a mask
        # the second side's screens leave open
        assert sample_disk_coverability(H, (0, 1, 2, 3),
                                        params).decided_coverable
        assert built == [(0, 2)]
        del built[:]
    # the first side never holds, and the second side's screen leaves
    # enough masks open to reach need: LI(w, w') once per decision
    params = est_params(p=0.9, epsilon=0.5, trials=64)
    need = coverability._least_hits(64, 0.5)
    masks, misses, search, disk = _side_two(SIDE_TWO_H, (0, 1, 2, 3), params)
    assert misses == masks
    assert [_sure(search, disk, m) for m in masks].count(None) >= need
    del built[:]
    assert coverability._cycle_hits(SIDE_TWO_H, 0, 2, [(1, 3)], params,
                                     need)[0] >= need
    assert built == [(0, 2), (1, 3)]
    del built[:]
    full = sample_disk_coverability(SIDE_TWO_H, (0, 1, 2, 3), params)
    assert full.successes == sum(m >> 6 & 3 == 3 for m in masks)
    assert built == [(0, 2), (1, 3)]
    # the exact walk orders by both sides: it builds LI(w, w') once too
    del built[:]
    assert exact_disk_coverability(SIDE_TWO_H, (0, 1, 2, 3), HALF) == HALF ** 2
    assert built == [(0, 2), (1, 3)]


# On TWO_SIDES_H the 4-cycle 0 1 2 3 has a first pyramid side 1-4-5-3 and
# a second side 0-6-7-2: a trial holds when the mask holds 4 and 5, or 6
# and 7.
TWO_SIDES_H = Hypergraph3(8, [(0, 1, 4), (1, 2, 4), (0, 4, 5), (2, 4, 5),
                              (0, 3, 5), (2, 3, 5), (0, 1, 6), (0, 3, 6),
                              (1, 6, 7), (3, 6, 7), (1, 2, 7), (2, 3, 7)])


@pytest.mark.parametrize("strategy", [PYRAMID_ONLY, EXHAUSTIVE_SMALL])
@pytest.mark.parametrize("H, p, epsilon, trials", [
    (TWO_SIDES_H, 0.9, 0.5, coverability._BLOCK_LANES + 100),
    (SIDE_TWO_H, 0.9, 0.5, 64),
], ids=["wider-than-lane-cap", "past-need"])
def test_full_count_at_the_edges(H, p, epsilon, trials, strategy):
    """`sample_disk_coverability` counts every trial brute force counts
    (`bf.pyramid_event`, or a disk of `bf.lexicographic_disks` under
    EXHAUSTIVE_SMALL), past the hits a decision needs: over more trials
    than a lane pass holds lanes, so that one cycle's block is wider than
    the lane cap, where the first side alone reaches need and the second
    still adds hits on its misses, and on SIDE_TWO_H at p = 0.9, where the
    first side never holds and the second keeps counting past need."""
    cyc = (0, 1, 2, 3)
    triples = sorted(H.edges)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        strategy=strategy)
    interiors = [] if strategy == PYRAMID_ONLY else [
        frozenset(v for t in disk for v in t) - set(cyc) for disk in
        bf.lexicographic_disks(triples, cyc, range(H.n), 3)]
    masks, misses, _, _ = _side_two(H, cyc, params)
    held = [bf.pyramid_event(triples, cyc, U)
            or any(inner <= U for inner in interiors)
            for U in map(_members, masks)]
    full = sample_disk_coverability(H, cyc, params)
    assert full.successes == sum(held)
    assert full.trials == trials
    need = coverability._least_hits(trials, epsilon)
    assert full.successes > need
    if trials > coverability._BLOCK_LANES:
        assert 0 < len(misses) <= trials - need
        assert any(m >> 6 & 3 == 3 for m in misses)
    else:
        assert len(misses) == trials
    [hits] = coverability._cycle_hits(H, 0, 2, [(1, 3)], params, need)
    assert (hits >= need) == full.decided_coverable


@pytest.mark.parametrize("cycle, message", [
    ((0, 1, 0, 2), "boundary cycle must list four distinct vertices"),
    ((0, 1, 2, 9), "vertex 9 not in the skeleton"),
    ((1, 4, 5, 3), "cycle edge 4-5 missing from the skeleton"),
], ids=["repeat", "outside", "edge"])
def test_four_cycle_check_errors(cycle, message, monkeypatch):
    # rows already kept or not, the messages are the same; a host with
    # none kept reads its edge masks from the codes and builds no row
    kept = Hypergraph3(8, SIDE_TWO_H.edges)
    for u in range(8):
        kept.row(u)
    monkeypatch.setattr(hypergraph, "_link_row", lambda *a: pytest.fail(
        "a link row was built"))
    for H in (kept, Hypergraph3(8, SIDE_TWO_H.edges)):
        with pytest.raises(ValueError) as err:
            coverability._check_four_cycle(H, cycle)
        assert str(err.value) == message
        assert coverability._check_four_cycle(H, [0, 1, 2, 3])[0] == (0, 1, 2, 3)


def test_coverability_deterministic_and_seeded():
    H = complete_hypergraph(8)
    a = sample_disk_coverability(H, (0, 1, 2, 3), est_params(seed=5))
    b = sample_disk_coverability(H, (0, 1, 2, 3), est_params(seed=5))
    assert a == b


# ---------------------------------------------------------------------------
# the ring disk: exhaustive strategy vs pyramid-only


def test_ring_disk_is_boundary_inducing_non_pyramid():
    from diskcover.complexes import TwoComplex
    X = TwoComplex(RING_DISK)
    c = classify(X)
    assert (c.kind, c.euler) == ("Disk", 1)
    assert is_boundary_inducing(X)
    assert X.interior_vertices() == frozenset({4, 5, 6})
    # not a pyramid: the interior triangle contains no boundary vertex
    assert (4, 5, 6) in X.triangles


def test_ring_disk_pyramid_only_zero():
    assert exact_disk_coverability(RING_H, RING_CYCLE, HALF,
                                   strategy=PYRAMID_ONLY) == 0
    est = sample_disk_coverability(RING_H, RING_CYCLE, est_params())
    assert est.estimate == 0.0


def test_ring_disk_exhaustive_sees_it():
    # the unique covering disk needs all of {4, 5, 6} in U: probability p^3
    got = exact_disk_coverability(RING_H, RING_CYCLE, HALF,
                                  strategy=EXHAUSTIVE_SMALL, max_interior=3)
    assert got == Fraction(1, 8)
    got = exact_disk_coverability(RING_H, RING_CYCLE, Fraction(3, 10),
                                  strategy=EXHAUSTIVE_SMALL, max_interior=3)
    assert got == Fraction(27, 1000)
    est = sample_disk_coverability(
        RING_H, RING_CYCLE,
        est_params(strategy=EXHAUSTIVE_SMALL, trials=4000, epsilon=0.9))
    assert abs(est.estimate - 0.125) < 0.05


def test_find_boundary_inducing_disk_budget():
    found = find_boundary_inducing_disk(RING_H, RING_CYCLE, max_interior=3)
    assert found is not None
    assert found.triangles == frozenset(tuple(sorted(t)) for t in RING_DISK)
    assert find_boundary_inducing_disk(RING_H, RING_CYCLE,
                                       max_interior=2) is None
    for budget in (0, -2):
        with pytest.raises(ValueError, match="max_interior"):
            find_boundary_inducing_disk(RING_H, RING_CYCLE,
                                        max_interior=budget)


@pytest.mark.parametrize("strategy", [PYRAMID_ONLY, EXHAUSTIVE_SMALL])
@pytest.mark.parametrize("budget", [0, -2])
def test_exact_coverability_rejects_empty_interior_budget(strategy, budget):
    # the pyramid-only walk builds no disk searcher, so it checks the budget
    # itself, before the walk
    with pytest.raises(ValueError, match="max_interior must be at least 1"):
        exact_disk_coverability(complete_hypergraph(8), (0, 2, 1, 3), HALF,
                                strategy=strategy, max_interior=budget)


def test_disk_search_classifies_each_accepted_leaf_once(monkeypatch):
    calls = []

    def counting(X, *args):
        calls.append(X)
        return classify(X, *args)

    monkeypatch.setattr(complexes, "classify", counting)
    disk = find_boundary_inducing_disk(complete_hypergraph(8), (0, 1, 2, 3),
                                       max_interior=3)
    assert disk is not None and calls == [disk]


def test_find_boundary_inducing_disk_on_complete():
    H = complete_hypergraph(8)
    disk = find_boundary_inducing_disk(H, (0, 1, 2, 3))
    assert disk is not None
    c = classify(disk)
    assert c.kind == "Disk"
    assert is_boundary_inducing(disk)
    assert set(boundary(disk).cycle) == {0, 1, 2, 3}


def _disk_inside(H, cycle, allowed, max_interior):
    """The disk search with its interior confined to the `allowed` pool, as
    the EXHAUSTIVE_SMALL sampler runs it on each trial mask."""
    searcher = coverability._DiskSearcher(H, cycle, max_interior)
    return searcher.find(sum(1 << v for v in allowed))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 3), min_size=comb(n, 3),
                         max_size=comb(n, 3)))), st.data())
def test_disk_search_matches_brute_force(host, data):
    """A disk is found iff one exists, and the one found is one of them.

    Triples are kept with odds 3:1, so that disks are common, and the
    budget runs up to the default of three interior vertices.
    """
    n, keep = host
    triples = [t for t, k in zip(combinations(range(n), 3), keep) if k]
    cycle = tuple(data.draw(st.permutations(range(n)))[:4])
    allowed = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
    max_interior = data.draw(st.integers(1, 3))
    H = Hypergraph3(n, triples)
    found = (find_boundary_inducing_disk(H, cycle, max_interior)
             if allowed is None else _disk_inside(H, cycle, allowed, max_interior))
    pool = range(n) if allowed is None else allowed
    disks = set(bf.lexicographic_disks(triples, cycle, pool, max_interior))
    assert (found is not None) == bool(disks)
    if found is not None:
        # so it is made of triples of H, bounds the cycle, is chord-free and
        # keeps its interior inside the pool and the budget
        assert found.triangles in disks


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 4), min_size=comb(n, 3),
                         max_size=comb(n, 3)))), st.data())
def test_exhaustive_small_at_its_default_budget(host, data):
    """At three interior vertices, the disk search finds a disk inside each
    allowed-interior set iff `bf.lexicographic_disks` has one there, and
    the EXHAUSTIVE_SMALL probability is the brute-force sum over the sets
    that hold a pyramid or one of those interiors.

    Triples are kept with odds 3:2: denser hosts cover nearly every
    three-vertex interior with a pyramid, so the budget would not matter.
    """
    n, keep = host
    triples = [t for t, k in zip(combinations(range(n), 3), keep) if k >= 2]
    cycles = _valid_cycles(n, triples)
    assume(cycles)
    cyc = data.draw(st.sampled_from(cycles))
    H = Hypergraph3(n, triples)
    disks = set(bf.lexicographic_disks(triples, cyc, range(n), 3))
    interiors = {frozenset(v for t in disk for v in t) - set(cyc)
                 for disk in disks}
    for allowed in bf.subsets(set(range(n)) - set(cyc)):
        found = _disk_inside(H, cyc, allowed, 3)
        assert (found is not None) == any(inner <= allowed for inner in interiors)
        assert found is None or found.triangles in disks
    sets = [U for U in bf.subsets(range(n)) if bf.pyramid_event(triples, cyc, U)
            or any(inner <= U for inner in interiors)]
    for p in ORACLE_PS:
        want = sum(p ** len(U) * (1 - p) ** (n - len(U)) for U in sets)
        assert exact_disk_coverability(H, cyc, p, EXHAUSTIVE_SMALL, 3) == want


# On TWO_SIDES_H the 4-cycle 0 1 2 3 has a first pyramid side 1-4-5-3 and
# a second side 0-6-7-2: a trial holds when the mask holds 4 and 5, or 6
# and 7.
TWO_SIDES_H = Hypergraph3(8, [(0, 1, 4), (1, 2, 4), (0, 4, 5), (2, 4, 5),
                              (0, 3, 5), (2, 3, 5), (0, 1, 6), (0, 3, 6),
                              (1, 6, 7), (3, 6, 7), (1, 2, 7), (2, 3, 7)])


@pytest.mark.parametrize("strategy", [PYRAMID_ONLY, EXHAUSTIVE_SMALL])
@pytest.mark.parametrize("H, p, epsilon, trials", [
    (TWO_SIDES_H, 0.9, 0.5, coverability._BLOCK_LANES + 100),
    (SIDE_TWO_H, 0.9, 0.5, 64),
], ids=["wider-than-lane-cap", "past-need"])
def test_full_count_at_the_edges(H, p, epsilon, trials, strategy):
    """`sample_disk_coverability` counts every trial brute force counts
    (`bf.pyramid_event`, or a disk of `bf.lexicographic_disks` under
    EXHAUSTIVE_SMALL), past the hits a decision needs: over more trials
    than a lane pass holds lanes, so that one cycle's block is wider than
    the lane cap, where the first side alone reaches need and the second
    still adds hits on its misses, and on SIDE_TWO_H at p = 0.9, where the
    first side never holds and the second keeps counting past need."""
    cyc = (0, 1, 2, 3)
    triples = sorted(H.edges)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        strategy=strategy)
    interiors = [] if strategy == PYRAMID_ONLY else [
        frozenset(v for t in disk for v in t) - set(cyc) for disk in
        bf.lexicographic_disks(triples, cyc, range(H.n), 3)]
    masks, misses, _, _ = _side_two(H, cyc, params)
    held = [bf.pyramid_event(triples, cyc, U)
            or any(inner <= U for inner in interiors)
            for U in map(_members, masks)]
    full = sample_disk_coverability(H, cyc, params)
    assert full.successes == sum(held)
    assert full.trials == trials
    need = coverability._least_hits(trials, epsilon)
    assert full.successes > need
    if trials > coverability._BLOCK_LANES:
        assert 0 < len(misses) <= trials - need
        assert any(m >> 6 & 3 == 3 for m in misses)
    else:
        assert len(misses) == trials
    [hits] = coverability._cycle_hits(H, 0, 2, [(1, 3)], params, need)
    assert (hits >= need) == full.decided_coverable


@pytest.mark.parametrize("cycle, message", [
    ((0, 1, 0, 2), "boundary cycle must list four distinct vertices"),
    ((0, 1, 2), "boundary cycle must list four distinct vertices"),
    ((0, 1, 2, 99), "vertex 99 not in the skeleton"),
], ids=["repeat", "three", "outside"])
def test_disk_search_rejects_a_cycle_not_of_four_vertices(cycle, message):
    with pytest.raises(ValueError) as err:
        find_boundary_inducing_disk(complete_hypergraph(6), cycle)
    assert str(err.value) == message


def test_positive_probability_implies_disk_exists():
    for H, cyc in ((LI_PATH_H, LI_PATH_CYCLE), (complete_hypergraph(7),
                                                (0, 1, 2, 3))):
        assert exact_disk_coverability(H, cyc, HALF) > 0
        assert find_boundary_inducing_disk(H, cyc) is not None


# ---------------------------------------------------------------------------
# audits


def test_unweighted_audit_five_cycle_empty():
    G = SkeletonGraph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    audit = inadmissible_p2_audit(G)
    assert audit.weighted_sum == 0
    assert audit.inadmissible == ()
    assert audit.holds


def test_unweighted_audit_star():
    G = SkeletonGraph(range(6), [(0, i) for i in range(1, 6)])
    audit = inadmissible_p2_audit(G)
    assert audit.weighted_sum == Fraction(comb(5, 2), 5)  # = 2
    assert audit.bound == Fraction(9)
    assert audit.holds


def test_unweighted_audit_matches_brute_force():
    for seed in range(8):
        G = random_graph(9, 0.35, seed=seed)
        audit = inadmissible_p2_audit(G)
        edges = list(G.edges)
        assert audit.weighted_sum == bf.unweighted_audit_sum(edges, 9)
        brute_bad = {(x, y, z) for x, y, z in iter_p2s(G)
                     if bf.p2_inadmissible(edges, x, y, z)}
        assert set(audit.inadmissible) == brute_bad


def test_weighted_audit_five_cycle_lenient():
    G = SkeletonGraph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    audit = weighted_inadmissibility_audit(G, Fraction(9, 10), HALF)
    assert audit.weighted_sum == 0
    assert audit.holds


def test_weighted_audit_tree_counts_everything():
    # a tree has no cycles: every P2 is inadmissible at every (p, epsilon)
    G = SkeletonGraph(range(6), [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    structural = inadmissible_p2_audit(G)
    for p in (Fraction(3, 10), Fraction(7, 10)):
        w = weighted_inadmissibility_audit(G, p, Fraction(2, 10))
        assert w.weighted_sum == structural.weighted_sum
        assert set(w.inadmissible) == set(structural.inadmissible)
        assert w.holds


def test_weighted_audit_random_instance_holds():
    G = random_graph(12, 0.4, seed=1)
    audit = weighted_inadmissibility_audit(G, HALF, Fraction(3, 10))
    assert audit.holds
    assert audit.bound == Fraction(3 * 12) / (2 * HALF * HALF * Fraction(3, 10))


def test_weighted_audit_matches_audit_corpus_rows():
    # the corpus groups its grid by p, in the order each p first appears:
    # (1/2, 1/5) twice, then (1/2, 2/5), then 3/10, which came between
    G = random_graph(10, 0.4, seed=2)
    half, fifth = HALF, Fraction(1, 5)
    grid = [(half, fifth), (Fraction(3, 10), fifth), (half, 2 * fifth),
            (half, fifth)]
    rows = list(audit_corpus([("g", G)], grid))[2:]
    grouped = [grid[0], grid[2], grid[3], grid[1]]
    assert len(rows) == len(grouped)
    for row, (p, eps) in zip(rows, grouped):
        w = weighted_inadmissibility_audit(G, p, eps)
        assert row == ",".join((
            "g", "10", f"{p.numerator}/{p.denominator}",
            f"{eps.numerator}/{eps.denominator}",
            f"{w.weighted_sum.numerator}/{w.weighted_sum.denominator}",
            f"{w.bound.numerator}/{w.bound.denominator}",
            "true" if w.holds else "false"))
    assert rows[-1].split(",")[4] == "17/2"


# ---------------------------------------------------------------------------
# pair and triple statistics


def test_pair_psi_zero_codegree():
    H = Hypergraph3(4, [(0, 1, 2)])
    G = SkeletonGraph(range(4), [(0, 1)])
    stats = pair_psi(H, G, 2, 3, est_params())
    assert (stats.xi, stats.codeg, stats.psi) == (0, 0, Fraction(0))


def test_pair_psi_all_coverable():
    H = complete_hypergraph(8)
    G = skeleton(H)
    stats = pair_psi(H, G, 0, 1, est_params(trials=600))
    assert stats.codeg == 6
    assert stats.psi == 0


def test_pair_psi_one_of_three():
    # v=0 v'=1 w1=2 w2=3 w3=4 x=5; the pair {w2, w3} admits no disk
    H = Hypergraph3(6, [(0, 2, 5), (1, 2, 5), (0, 3, 5), (1, 3, 5),
                        (0, 3, 4), (1, 3, 4)])
    G = SkeletonGraph(range(6), [(0, 2), (0, 3), (0, 4),
                                 (1, 2), (1, 3), (1, 4)])
    stats = pair_psi(H, G, 0, 1, est_params(p=0.95, epsilon=0.15, trials=2000))
    assert stats.codeg == 3
    assert stats.xi == 1
    assert stats.psi == Fraction(1, 3)


def test_pair_psi_missing_skeleton_edge_counts():
    # common neighborhood in G promises cycles the hypergraph lacks
    H = Hypergraph3(5, [(0, 2, 4), (1, 2, 4)])
    G = SkeletonGraph(range(5), [(0, 2), (0, 3), (1, 2), (1, 3)])
    stats = pair_psi(H, G, 0, 1, est_params())
    assert stats.codeg == 2
    assert stats.xi == 1  # only the pair {2, 3} exists; cycle edges missing
    assert stats.psi == Fraction(1, 2)
    # a common neighbour outside V(H) closes no 4-cycle of H either
    G = SkeletonGraph(range(6), [(0, 2), (1, 2), (0, 5), (1, 5)])
    assert pair_psi(H, G, 0, 1, est_params()).xi == 1


def test_pair_psi_rejects_exactly_the_invalid_cycles(monkeypatch):
    """pair_psi counts as non-coverable outright exactly the cycles
    `_check_four_cycle` rejects, and decides every other one, in order:
    with G the link graph of a denser host on V(H) rather than S(H), and
    with G reaching past V(H), so that apexes and common neighbours lie
    outside it. The valid cycles reach the lane pass, which is patched to
    record them and call each one coverable."""
    decided = []

    def record(H, v, vp, pairs, params, need=None):
        decided.extend((v, w, vp, wp) for w, wp in pairs)
        return [params.trials] * len(pairs)

    monkeypatch.setattr(coverability, "_cycle_hits", record)
    H = random_hypergraph(12, 0.15, 0)
    totals = Counter()
    for G in (link(random_hypergraph(12, 0.5, 0), 0),
              random_graph(15, 0.6, seed=1)):
        for v, vp in combinations(G.vertices, 2):
            rejected, valid = 0, []
            for w, wp in combinations(sorted(G.adj[v] & G.adj[vp]), 2):
                try:
                    valid.append(coverability._check_four_cycle(
                        H, (v, w, vp, wp))[0])
                except ValueError:
                    rejected += 1
            del decided[:]
            assert pair_psi(H, G, v, vp, est_params()).xi == rejected
            assert decided == valid
            outside = max(v, vp) >= H.n
            totals[G.n, outside, "rejected"] += rejected
            totals[G.n, outside, "valid"] += len(valid)
    # each case meets both kinds of cycle; an apex outside V(H) only bad ones
    assert all(totals[n, False, kind] for n in (11, 15)
               for kind in ("rejected", "valid"))
    assert totals[15, True, "rejected"] and not totals[15, True, "valid"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([12, 70]), st.sampled_from([0.02, 0.2, 0.3, 0.5, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([PYRAMID_ONLY,
                                                     EXHAUSTIVE_SMALL]),
       st.integers(1, 70), st.sampled_from([0.1, 0.5, 0.999999]),
       st.sampled_from([0.05, 0.3, 0.7]))
def test_lane_pass_matches_per_cycle_loop(n, density, host_seed, strategy,
                                          trials, p, epsilon):
    """The lane pass counts each cycle's hits as the per-cycle reference
    does, asking every mask alone (`bf.cycle_hits`), and decides each
    cycle as that count does, so its count of non-coverable cycles is
    the reference's: at 70 vertices, where a trial
    mask spans two words, with up to 150 pairs, more than one block of
    64 (or of 4096 // trials) cycles, and with apexes and pairs drawn past
    V(H), so that repeated vertices and missing edges occur. At densities
    0.2 and 0.3 many cycles fall short on the first side and turn on
    second-side searches, as on the `psi_random` host. On the complete
    host (density 1) every cycle has one-vertex pyramids, so the numpy
    screen settles whole blocks, except at low p on 12 vertices, where
    it leaves some to the lanes."""
    H = random_hypergraph(n, density, host_seed)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        seed=host_seed % 97, strategy=strategy,
                        max_interior=1)
    rng = random.Random(host_seed)
    v, vp = rng.randrange(n + 2), rng.randrange(n + 2)
    # the disk searcher runs on every open trial, so fewer pairs there
    count = rng.randrange(151 if strategy == PYRAMID_ONLY else 13)
    pairs = [(rng.randrange(n + 2), rng.randrange(n + 2))
             for _ in range(count)]
    assert (coverability._count_uncoverable(H, v, vp, pairs, params)
            == bf.count_uncoverable(H, v, vp, pairs, params))
    if v != vp and max(v, vp) < n:
        valid = [(w, wp) for w, wp in pairs if w != wp and _cycle_ok(
            H, (v, w, vp, wp))]
        need = coverability._least_hits(trials, epsilon)
        counts = [bf.cycle_hits(H, (v, w, vp, wp), params)
                  for w, wp in valid]
        assert coverability._cycle_hits(H, v, vp, valid, params) == counts
        assert [h >= need for h in coverability._cycle_hits(
            H, v, vp, valid, params, need)] == [h >= need for h in counts]


def test_screen_settles_complete_hosts_without_lanes(monkeypatch):
    """On K_n every 4-cycle has one-vertex pyramids and every block of an
    apex pair reaches need on them alone, so no lane set is packed and no
    lane search runs, in `pair_psi` and in the K_4 finder on K_30."""
    def forbidden(*args):
        raise AssertionError("a screened block built lanes")

    monkeypatch.setattr(coverability, "_lane_paths", forbidden)
    monkeypatch.setattr(coverability, "row_masks", forbidden)
    H = complete_hypergraph(30)
    stats = pair_psi(H, skeleton(H), 0, 1, est_params(trials=64))
    assert (stats.xi, stats.codeg) == (0, 28)
    cert = find_k_t_homeomorph(H, SearchParams(t=4, p=0.5, epsilon=0.1))
    assert isinstance(cert, HomeomorphCertificate)


# K_12 without the triples 0 2 x but 0 2 1 and 0 2 3, so LI(0, 1)[2] is {3}
# and the cycle 0 2 1 3 alone has no one-vertex pyramid
PYRAMIDLESS_H = Hypergraph3(12, [t for t in complete_hypergraph(12).edges
                                 if not (0 in t and 2 in t) or t[2] <= 3])
# triples {v, a, b}, v in {0, 1}, a in 2..7, b in 8..10: a cycle 0 w 1 w'
# over w, w' in 2..7 is covered exactly when U meets {8, 9, 10}
BIPARTITE_H = Hypergraph3(11, [(v, a, b) for v in (0, 1)
                               for a in range(2, 8) for b in (8, 9, 10)])


@pytest.mark.parametrize("H, pairs, epsilon, pyramidless", [
    (PYRAMIDLESS_H, list(combinations(range(2, 12), 2)), 0.1, [(2, 3)]),
    (BIPARTITE_H, list(combinations(range(2, 8), 2)), 0.05, []),
])
def test_dense_blocks_the_screen_leaves_run_the_lanes(monkeypatch, H, pairs,
                                                       epsilon, pyramidless):
    """A block is left to the lane pass when one of its cycles has no
    one-vertex pyramid, or when the screen's sure hits fall short of need:
    on BIPARTITE_H seven trials in eight meet {8, 9, 10} at p = 1/2, short
    of the 61 in 64 that epsilon = 1/20 needs, and a trial holding three
    pyramids is still one sure hit. The lane pass then decides each cycle
    as its full count does alone, and the count is the per-cycle
    reference's."""
    calls = []
    real = coverability._lane_paths
    monkeypatch.setattr(coverability, "_lane_paths",
                        lambda *args: calls.append(1) or real(*args))
    li = link_intersection(H, 0, 1)
    assert [(w, wp) for w, wp in pairs if not li[w] & li[wp]] == pyramidless
    params = est_params(trials=64, epsilon=epsilon)
    need = coverability._least_hits(64, epsilon)
    decided = [h >= need for h in coverability._cycle_hits(
        H, 0, 1, pairs, params, need)]
    assert calls == [1]
    assert decided == [
        sample_disk_coverability(H, (0, w, 1, wp), params).decided_coverable
        for w, wp in pairs]
    assert not all(decided)
    assert (coverability._count_uncoverable(H, 0, 1, pairs, params)
            == bf.count_uncoverable(H, 0, 1, pairs, params))


def _cycle_ok(H, cyc) -> bool:
    try:
        coverability._check_four_cycle(H, cyc)
    except ValueError:
        return False
    return True


def test_pair_psi_on_the_benchmark_host():
    """One pair_psi over the 1,035 cycles of a G(48, 0.3) pair at 64 trials,
    where most cycles fall short on the first side, gives the per-cycle
    reference's xi, and holds the trial bits of one block of 64 cycles
    at a time, not of all of them: the bits of all 1,035 take 3.2 MB,
    two copies of one block 0.4 MB."""
    H = random_hypergraph(48, 0.3, 0)
    G = skeleton(H)
    params = est_params(trials=64)
    pair_psi(H, G, 0, 1, params)  # warm the host's link rows
    tracemalloc.start()
    try:
        stats = pair_psi(H, G, 2, 3, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20
    assert stats.codeg == 46
    pairs = combinations(sorted(common_neighborhood(G, (2, 3))), 2)
    assert stats.xi == bf.count_uncoverable(H, 2, 3, pairs, params)


def test_triple_phi():
    half, zero = HALF, Fraction(0)
    assert triple_phi(half, zero, zero, 2) == Fraction(1, 4)
    assert triple_phi(zero, zero, zero, 5) == 0
    assert triple_phi(half, half, half, 0) == 0
    with pytest.raises(ValueError):
        triple_phi(half, zero, zero, -1)
