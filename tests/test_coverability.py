import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from diskcover import complexes, coverability
from diskcover.complexes import boundary, classify, is_boundary_inducing
from diskcover.coverability import (EXHAUSTIVE_SMALL, PYRAMID_ONLY,
                                    CoverabilityEstimate, EstimatorParams,
                                    _leaf_counts, _reliability,
                                    admissibility_probabilities,
                                    admissibility_tables, as_fraction,
                                    exact_admissibility,
                                    exact_disk_coverability,
                                    find_boundary_inducing_disk,
                                    inadmissible_p2_audit, least_path,
                                    pair_psi, path_exists,
                                    pyramid_disk,
                                    sample_admissibility,
                                    sample_disk_coverability, triple_phi,
                                    weighted_inadmissibility_audit)
from diskcover.generators import random_graph
from diskcover.hypergraph import (Hypergraph3, SkeletonGraph,
                                  complete_hypergraph, iter_p2s, link,
                                  skeleton)

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
    shortest path."""
    pairs, a, b, interior = _path_case(verts, data)
    adj = SkeletonGraph(verts, pairs).adj_mask
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
def test_path_exists_layers_are_distance_layers(verts, data):
    """Each recorded layer i is the set of interior vertices at distance
    i + 1 from its own end, in the graph on the interior and that end."""
    pairs, a, b, interior = _path_case(verts, data)
    allowed = {x for x in verts if (interior >> x) & 1} - {a, b}
    from_a, from_b = [], []
    path_exists(SkeletonGraph(verts, pairs).adj_mask, a, b, interior,
                [from_a, from_b])
    for end, recorded in ((a, from_a), (b, from_b)):
        g = nx.Graph(pairs).subgraph(allowed | {end})
        dist = nx.single_source_shortest_path_length(g, end) if end in g else {}
        assert recorded
        for i, layer in enumerate(recorded):
            assert layer == sum(1 << x for x, d in dist.items() if d == i + 1)


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
    lambda G, H: admissibility_tables(G, [HALF]),
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
    tables = admissibility_tables(G, ORACLE_PS)
    for p in ORACLE_PS:
        want = bf.exact_admissibility(edges, n, x, y, z, p)
        assert exact_admissibility(G, x, y, z, p) == want
        assert tables[p][x, y, z] == want


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


@settings(max_examples=60, deadline=None)
@given(SMALL_GRAPHS, st.data())
def test_ordered_walk_matches_ascending_walk(graph, data):
    G, edges, (x, y, z) = _graph_and_p2(graph, data)
    ordered = coverability._admissibility_leaves(G, x, y, z)
    ascending = _ascending_walk(G, x, y, z)
    for p in ORACLE_PS:
        want = bf.exact_admissibility(edges, G.n, x, y, z, p)
        assert _reliability(ordered, G.n - 3, p) == want
        assert _reliability(ascending, G.n - 3, p) == want


def test_ordered_walk_asks_a_third_of_the_ascending_walk(monkeypatch):
    asked = []
    monkeypatch.setattr(coverability, "path_exists",
                        lambda *args: asked.append(args) or path_exists(*args))
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


def _check_decision_path(event, masks, epsilon, decided) -> None:
    """The stopping loop gives the full count's decision after exactly the
    trials it takes to fix it, asking the event once per trial."""
    trials = len(masks)
    outcomes = [event(m) for m in masks]
    need = min(h for h in range(trials + 1) if h / trials >= 1 - epsilon)
    assert (sum(outcomes) >= need) == decided
    hits = 0
    for fixed_at, hit in enumerate(outcomes, 1):
        hits += hit
        if hits >= need or hits + trials - fixed_at < need:
            break
    asked = []

    def counting(m):
        asked.append(m)
        return event(m)

    assert coverability._decided(counting, masks, epsilon) == decided
    assert asked == masks[:fixed_at]
    assert coverability._trial_hits(event, masks) == sum(outcomes)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 8), st.sampled_from([0.5, 0.8, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 7, 10, 64, 65]),
       st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.9]),
       st.sampled_from([0.2, 0.5, 0.8]),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_decision_path_matches_samplers(n, density, host_seed, trials,
                                        epsilon, p, strategy, data):
    """The stopping decision equals `.decided_coverable` of both samplers."""
    rng = random.Random(host_seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    H = Hypergraph3(n, triples)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        seed=host_seed % 97, strategy=strategy)
    pairs = bf.skeleton_pairs(triples)
    cycles = [c for c in permutations(range(n), 4)
              if all(tuple(sorted(e)) in pairs
                     for e in zip(c, c[1:] + c[:1]))]
    assume(cycles)
    cyc = data.draw(st.sampled_from(cycles))
    full = sample_disk_coverability(H, cyc, params)
    assert coverability._coverable(H, cyc, params) == full.decided_coverable
    _check_decision_path(*coverability._coverability_trials(H, cyc, params),
                         epsilon, full.decided_coverable)

    G = skeleton(H)
    w, u, wp = data.draw(st.sampled_from(list(iter_p2s(G))))
    full = sample_admissibility(G, w, u, wp, params)
    assert coverability._admissible(G, w, u, wp, params) == full.decided_coverable
    _check_decision_path(
        *coverability._admissibility_trials(G, w, u, wp, params), epsilon,
        full.decided_coverable)


def test_decision_path_stops_once_fixed():
    # at 1 - 0.1 over 64 trials the decision is fixed at the 58th hit or
    # at the 7th miss; on K_10 a trial misses with probability 1/64, on
    # the LI path instance with probability 1/2
    params = est_params(trials=64)
    for H, cyc, coverable, stop in (
            (complete_hypergraph(10), (0, 1, 2, 3), True, (58, True)),
            (LI_PATH_H, LI_PATH_CYCLE, False, (7, False))):
        event, masks = coverability._coverability_trials(H, cyc, params)
        asked = []
        assert coverability._decided(
            lambda m: asked.append(m) or event(m), masks,
            params.epsilon) == coverable
        count, outcome = stop
        assert [event(m) for m in asked].count(outcome) == count
        assert event(asked[-1]) == outcome
        assert len(asked) < 64


def _screen_case(n, density, host_seed, data):
    """A random host on n vertices, one of its 4-cycles and one of the
    length-2 paths of its skeleton."""
    rng = random.Random(host_seed)
    triples = [t for t in combinations(range(n), 3) if rng.random() < density]
    pairs = bf.skeleton_pairs(triples)
    cycles = [c for c in permutations(range(n), 4)
              if all(tuple(sorted(e)) in pairs
                     for e in zip(c, c[1:] + c[:1]))]
    assume(cycles)
    H = Hypergraph3(n, triples)
    G = skeleton(H)
    return (H, data.draw(st.sampled_from(cycles)), G,
            data.draw(st.sampled_from(list(iter_p2s(G)))))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 8), st.sampled_from([0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_screens_settle_only_sure_masks(n, density, host_seed, strategy, data):
    """A mask meeting a vertex joined to both ends of a search is a hit; one
    that misses an end neighbourhood of every search is a miss, which only
    PYRAMID_ONLY may conclude from the pyramid searches alone."""
    H, cyc, G, (w, u, wp) = _screen_case(n, density, host_seed, data)
    sides = coverability._pyramid_sides(H, cyc)
    params = est_params(trials=8, strategy=strategy)
    cases = [
        (coverability._coverability_event(H, cyc, strategy, 3, sides),
         [coverability._ends(*side) for side in sides],
         strategy == PYRAMID_ONLY),
        (coverability._admissibility_trials(G, w, u, wp, params)[0],
         [coverability._ends(G.adj_mask, w, wp, ~(1 << u))], True)]
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    for event, ends, misses in cases:
        for m in masks:
            if any(m & a & b for a, b in ends):
                assert event(m)
            if misses and not any(m & a and m & b for a, b in ends):
                assert not event(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 8), st.sampled_from([0.4, 0.7, 1.0]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([8, 16, 64]),
       st.sampled_from([0.1, 0.5, 0.9]), st.sampled_from([0.2, 0.5, 0.8]),
       st.sampled_from([PYRAMID_ONLY, EXHAUSTIVE_SMALL]), st.data())
def test_decisions_ask_only_the_open_masks(n, density, host_seed, trials,
                                           epsilon, p, strategy, data):
    """`_coverable` and `_admissible` ask the event of the masks the screens
    leave open, in order, and of none when the screened ones decide; under
    EXHAUSTIVE_SMALL only the hit screen applies."""
    H, cyc, G, (w, u, wp) = _screen_case(n, density, host_seed, data)
    params = est_params(p=p, epsilon=epsilon, trials=trials,
                        seed=host_seed % 97, strategy=strategy)
    sides = coverability._pyramid_sides(H, cyc)
    need = coverability._least_hits(trials, epsilon)
    for decide, masks, ends, misses in (
            (lambda: coverability._coverable(H, cyc, params),
             coverability._coverability_trials(H, cyc, params)[1],
             [coverability._ends(*side) for side in sides],
             strategy == PYRAMID_ONLY),
            (lambda: coverability._admissible(G, w, u, wp, params),
             coverability._admissibility_trials(G, w, u, wp, params)[1],
             [coverability._ends(G.adj_mask, w, wp, ~(1 << u))], True)):
        hit = [m for m in masks if any(m & a & b for a, b in ends)]
        open_ = [m for m in masks if m not in hit and (
            not misses or any(m & a and m & b for a, b in ends))]
        asked = []
        real = coverability._trial_hits
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coverability, "_trial_hits",
                       lambda event, ms, k=None: asked.append(ms)
                       or real(event, ms, k))
            decide()
        left = need - len(hit)
        assert asked == ([open_] if 0 < left <= len(open_) else [])


def test_screens_decide_complete_host_without_a_path_search(monkeypatch):
    # on K_10 every vertex off the cycle joins both ends of each search, so
    # a mask holding one is a sure hit and a mask holding none a sure miss
    calls = []
    real = coverability.path_exists
    monkeypatch.setattr(coverability, "path_exists",
                        lambda *a: calls.append(a) or real(*a))
    assert coverability._coverable(complete_hypergraph(10), (0, 1, 2, 3),
                                   est_params(trials=64))
    assert calls == []


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

    def counting(X):
        calls.append(X)
        return classify(X)

    monkeypatch.setattr(coverability, "classify", counting)
    monkeypatch.setattr(complexes, "classify", counting)
    disk = find_boundary_inducing_disk(complete_hypergraph(8), (0, 1, 2, 3),
                                       range(4, 8), 3)
    assert disk is not None and calls == [disk]


def test_find_boundary_inducing_disk_on_complete():
    H = complete_hypergraph(8)
    disk = find_boundary_inducing_disk(H, (0, 1, 2, 3))
    assert disk is not None
    c = classify(disk)
    assert c.kind == "Disk"
    assert is_boundary_inducing(disk)
    assert set(boundary(disk).cycle) == {0, 1, 2, 3}


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 3), min_size=comb(n, 3),
                         max_size=comb(n, 3)))), st.data())
def test_disk_search_matches_brute_force(host, data):
    """A disk is found iff one exists, and the one found is one of them.

    Triples are kept with odds 3:1, so that disks are common. The budget
    stays at most 2: with three interior vertices at n = 7 the brute force
    would try up to C(25, 8) triangle sets.
    """
    n, keep = host
    triples = [t for t, k in zip(combinations(range(n), 3), keep) if k]
    cycle = tuple(data.draw(st.permutations(range(n)))[:4])
    allowed = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
    max_interior = data.draw(st.integers(1, 2))
    found = find_boundary_inducing_disk(Hypergraph3(n, triples), cycle,
                                        allowed, max_interior)
    pool = range(n) if allowed is None else allowed
    disks = set(bf.boundary_inducing_disks(triples, cycle, pool, max_interior))
    assert (found is not None) == bool(disks)
    if found is not None:
        # so it is made of triples of H, bounds the cycle, is chord-free and
        # keeps its interior inside the pool and the budget
        assert found.triangles in disks


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


def test_weighted_audit_reuses_probability_table():
    G = random_graph(10, 0.4, seed=2)
    table = admissibility_probabilities(G, HALF)
    a = weighted_inadmissibility_audit(G, HALF, Fraction(2, 10),
                                       probabilities=table)
    b = weighted_inadmissibility_audit(G, HALF, Fraction(2, 10))
    assert a == b


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


def test_triple_phi():
    half, zero = HALF, Fraction(0)
    assert triple_phi(half, zero, zero, 2) == Fraction(1, 4)
    assert triple_phi(zero, zero, zero, 5) == 0
    assert triple_phi(half, half, half, 0) == 0
    with pytest.raises(ValueError):
        triple_phi(half, zero, zero, -1)
