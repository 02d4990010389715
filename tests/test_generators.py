from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
import diskcover.generators as generators
import diskcover.hypergraph as hypergraph
from diskcover.generators import (_S_GNP2, _S_GNP3, clique_pendant_graph,
                                  random_graph, random_graph_corpus,
                                  random_hypergraph, random_hypergraphs)
from diskcover.hypergraph import Hypergraph3, complete_hypergraph
from diskcover.rng import generator


def test_random_hypergraph_deterministic():
    a = random_hypergraph(12, 0.3, seed=7)
    b = random_hypergraph(12, 0.3, seed=7)
    assert a.edges == b.edges
    c = random_hypergraph(12, 0.3, seed=8)
    assert a.edges != c.edges


def test_random_hypergraph_nested_in_p():
    """At a fixed seed the edge sets grow monotonically with p."""
    low = set(random_hypergraph(14, 0.2, seed=3).edges)
    mid = set(random_hypergraph(14, 0.5, seed=3).edges)
    high = set(random_hypergraph(14, 0.8, seed=3).edges)
    assert low <= mid <= high
    assert len(low) < len(high)


def test_random_hypergraph_extremes():
    empty = random_hypergraph(10, 0.0, seed=1)
    assert len(empty.edges) == 0
    full = random_hypergraph(10, 1.0, seed=1)
    assert len(full.edges) == comb(10, 3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 14),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       st.integers(0, 2 ** 40))
@example(0, 0.5, 1)
@example(1, 0.5, 1)
@example(2, 1.0, 1)
@example(3, 1.0, 1)
@example(3, 0.0, 1)
@example(14, 0.3, 7)
def test_random_hypergraph_matches_one_shot_definition(n, p, seed):
    want = bf.random_triples(generator(seed, _S_GNP3, n).random, n, p)
    H = random_hypergraph(n, p, seed)
    assert H.triples().tolist() == [list(t) for t in want]
    assert H.edges == frozenset(want)
    for t in combinations(range(n), 3):
        assert (t in H) == (t in H.edges)
    built = Hypergraph3(n, want)
    assert built == H and hash(built) == hash(H)
    if p == 1:
        assert complete_hypergraph(n) == H


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14),
       st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
                min_size=1, max_size=5),
       st.integers(0, 2 ** 40), st.booleans(), st.booleans(), st.booleans())
@example(0, [0.5, 0.0], 1, False, False, False)
@example(1, [1.0], 1, False, False, True)
@example(2, [0.3, 1.0], 1, False, False, False)
@example(3, [0.5, 1.0, 0.5, 0.0], 1, False, False, True)
@example(14, [0.2, 0.9, 0.2, 0.6], 7, False, True, False)
@example(14, [0.4, 0.1], 3, True, True, False)
@example(14, [0.4, 0.1], 3, True, True, True)
@example(14, [1.0, 0.3], 3, False, True, True)
@example(8, [0.5], 2, True, False, True)
# C(75, 3) = 67525 floats cross the first 2^16-float chunk boundary
@example(75, [0.02, 0.3, 0.02], 5, False, False, False)
def test_random_hypergraphs_yield_the_one_density_hosts(n, ps, seed, tiny_chunks,
                                                        overflow, halves):
    """Every host the nested draw yields is the one-density host at its p,
    highest p first, whatever the chunking, the starting buffer size, or
    whether the draw runs in two halves on two threads."""
    with pytest.MonkeyPatch.context() as mp:
        if tiny_chunks:
            mp.setattr(generators, "_DRAW_CHUNK", 7)
        if overflow:
            # a buffer far below the kept count: every chunk may regrow it
            mp.setattr(generators, "_SIGMAS", -1e6)
        if halves:
            # any host of 8 triples or more is drawn in two halves, the
            # second from word 4 * (C(n, 3) // 8) on
            mp.setattr(hypergraph, "_SPLIT", 8)
        hosts = list(random_hypergraphs(n, ps, seed))
    assert [p for p, _ in hosts] == sorted(set(ps), reverse=True)
    for p, H in hosts:
        want = bf.random_triples(generator(seed, _S_GNP3, n).random, n, p)
        assert H.triples().tolist() == [list(t) for t in want]
        assert H == random_hypergraph(n, p, seed)


def test_random_hypergraph_validation():
    with pytest.raises(ValueError):
        random_hypergraph(10, -0.1, seed=0)
    with pytest.raises(ValueError):
        random_hypergraph(10, 1.5, seed=0)


@pytest.mark.parametrize("build", [
    lambda: random_hypergraph(-1, 0.1, seed=0),
    lambda: random_hypergraph(-1, 0, seed=0),
    lambda: list(random_hypergraphs(-1, [0.1, 0.5], seed=0)),
    lambda: complete_hypergraph(-4),
], ids=["gnp3", "gnp3-empty", "gnp3-nested", "complete"])
def test_negative_vertex_count_raises(build):
    with pytest.raises(ValueError, match="vertex count"):
        build()


def test_hosts_past_physical_memory_are_refused_before_allocating(monkeypatch):
    # with 1 MiB of memory, K_100 (two copies of 161,700 int32 codes) and
    # the full draw of 120 vertices (280,840 codes and levels, 5 bytes
    # each) are refused before any pair table or buffer exists; the
    # smaller builds still fit
    monkeypatch.setattr(hypergraph, "_physical_memory", lambda: 1 << 20)
    assert complete_hypergraph(80).codes.size == comb(80, 3)
    assert random_hypergraph(120, 0.3, 0).codes.size > 0
    with monkeypatch.context() as mp:
        for name in ("empty", "triu_indices"):
            mp.setattr(np, name, lambda *a, **k: pytest.fail("allocated"))
        for build in (lambda: complete_hypergraph(100),
                      lambda: random_hypergraph(120, 1.0, 0),
                      lambda: list(random_hypergraphs(120, [0.3, 1.0], 0))):
            with pytest.raises(ValueError, match="physical memory"):
                build()


def test_random_graph_basic():
    G = random_graph(20, 0.4, seed=11)
    assert G.n == 20
    assert G.edges == random_graph(20, 0.4, seed=11).edges
    assert set(random_graph(20, 0.1, seed=11).edges) <= set(G.edges)
    assert len(random_graph(8, 1.0, seed=0).edges) == comb(8, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40),
       st.one_of(st.sampled_from([0.0, 1.0, 1e-9, 1 - 2.0 ** -53]),
                 st.floats(0, 1)),
       st.integers(0, 2 ** 40))
@example(0, 0.5, 1)
@example(1, 1.0, 1)
@example(2, 1.0, 1)
@example(30, 0.0, 3)
@example(30, 1 - 2.0 ** -53, 3)
def test_random_graph_matches_one_shot_definition(n, p, seed):
    """The graph keeps pair i when the i-th double of its stream is below
    p: the word-compare draw gives the float draw's graph."""
    want = bf.random_pairs(generator(seed, _S_GNP2, n).random, n, p)
    G = random_graph(n, p, seed)
    assert sorted(G.vertices) == list(range(n))
    assert sorted(G.edges) == want


def test_clique_pendant_structure():
    G = clique_pendant_graph(16)
    assert G.n == 16
    # K_4 on {0..3} plus 12 pendants on vertex 0
    assert len(G.edges) == comb(4, 2) + 12
    assert G.degree(0) == 3 + 12
    for v in (1, 2, 3):
        assert G.degree(v) == 3
    for v in range(4, 16):
        assert G.degree(v) == 1
        assert G.has_edge(0, v)


def test_clique_pendant_degenerate_and_invalid():
    G = clique_pendant_graph(4)  # s = 2: a single edge plus two pendants
    assert G.n == 4
    assert len(G.edges) == comb(2, 2) + 2
    with pytest.raises(ValueError):
        clique_pendant_graph(15)
    with pytest.raises(ValueError):
        clique_pendant_graph(1)


def test_corpus_shape_and_determinism():
    items = list(random_graph_corpus(12, seed=9))
    assert len(items) == 12
    ids = [gid for gid, _ in items]
    assert ids[0].startswith("gnp-0000-n")
    assert len(set(ids)) == 12
    for gid, G in items:
        n = int(gid.rsplit("n", 1)[1])
        assert G.n == n
        assert 10 <= n <= 200
    again = list(random_graph_corpus(12, seed=9))
    assert [g.edges for _, g in items] == [g.edges for _, g in again]
