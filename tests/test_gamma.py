from itertools import combinations
from math import comb

import pytest

from diskcover.gamma import gamma, role_name, roles
from diskcover.hypergraph import SkeletonGraph


def test_role_name():
    assert role_name((0,)) == "v0"
    assert role_name((0, 1)) == "v0.1"
    assert role_name((0, 1, 2)) == "v0.1.2"


def test_gamma_requires_t_at_least_3():
    for build in (gamma, roles):
        with pytest.raises(ValueError):
            build(2)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_gamma_counts(t):
    g = gamma(t)
    assert len(g.labels) == t + comb(t, 2) + comb(t, 3)
    assert len(g.edges) == 2 * comb(t, 2) + 3 * comb(t, 3)
    assert len(g.cycles) == 3 * comb(t, 3)
    assert g.surface is None


def test_gamma_labels_name_the_roles():
    t = 4
    rs = roles(t)
    assert gamma(t).labels == tuple(role_name(r) for r in rs)
    assert rs[:t] == [(i,) for i in range(t)]
    assert rs[t:] == sorted(rs[t:], key=lambda r: (len(r), r))


def test_gamma_is_bipartite_on_singletons():
    g = gamma(4)
    singles = {g.labels.index(role_name((i,))) for i in range(4)}
    for a, b in g.edges:
        assert (a in singles) != (b in singles)


def test_gamma_special_cycle_structure():
    t = 4
    g = gamma(t)
    rs = roles(t)
    seen = set()
    for (a, b, c, d) in g.cycles:
        ra, rb, rc, rd = rs[a], rs[b], rs[c], rs[d]
        assert len(ra) == 1 and len(rc) == 1 and len(rb) == 2 and len(rd) == 3
        assert set(rb) == {ra[0], rc[0]}
        assert set(rb) <= set(rd)
        # all four edges of the cycle exist in the pattern
        for e in ((a, b), (b, c), (c, d), (d, a)):
            assert tuple(sorted(e)) in g.edges
        seen.add((a, b, c, d))
    assert len(seen) == len(g.cycles)
    # every (pair, triple) combination with pair inside triple appears once
    pair_triple = {(rs[b], rs[d]) for _, b, _, d in g.cycles}
    want = {(p, tr) for tr in combinations(range(t), 3)
            for p in combinations(tr, 2)}
    assert pair_triple == want


def test_gamma_cycles_of_an_embedding():
    g = gamma(3)
    embedding = {lab: 10 + k for k, lab in enumerate(g.labels)}
    assert g.cycles_of(embedding) == tuple(
        tuple(10 + k for k in c) for c in g.cycles)


def test_gamma_degrees():
    t = 5
    g = gamma(t)
    G = SkeletonGraph(range(len(g.labels)), g.edges)
    index = {r: k for k, r in enumerate(roles(t))}
    for i in range(t):
        # singleton: one pair edge per other element + one per triple through i
        assert G.degree(index[(i,)]) == (t - 1) + comb(t - 1, 2)
    for p in combinations(range(t), 2):
        assert G.degree(index[p]) == 2
    for tr in combinations(range(t), 3):
        assert G.degree(index[tr]) == 3
