from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
import diskcover.generators as generators
from diskcover.certificates import SPHERE
from diskcover.experiments import (AUDIT_HEADER, SWEEP_HEADER, audit_corpus,
                                   sweep_csv, threshold_sweep)
from diskcover.generators import _S_GNP3, clique_pendant_graph, random_graph
from diskcover.hypergraph import SkeletonGraph
from diskcover.search import SearchParams

FAST = SearchParams(p=0.5, epsilon=0.1, trials=64)


def test_sweep_rows_sorted_and_shaped():
    rows = threshold_sweep(SPHERE, [12, 8], [1.0, 0.5], trials=2, seed=4,
                           params=FAST)
    assert len(rows) == 8
    keys = [(r.n, r.c, r.trial) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.p == min(1.0, r.c / r.n ** 0.5)
        assert r.target == SPHERE
        assert r.stage == "done" if r.found else r.stage != "done"
        assert r.seconds == 0.0


def test_sweep_p_clamped():
    rows = threshold_sweep(SPHERE, [9], [30.0], trials=1, seed=0, params=FAST)
    assert rows[0].p == 1.0


def test_sweep_file_format():
    rows = threshold_sweep(SPHERE, [10], [2.0], trials=2, seed=1, params=FAST)
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    fields = lines[1].split(",")
    assert fields[0] == "10"
    assert fields[5] in ("true", "false")
    assert fields[7] == "0.000"


def test_sweep_parallel_matches_serial():
    serial = threshold_sweep(SPHERE, [10, 12], [0.5, 2.0], trials=3, seed=9,
                             params=FAST, jobs=1)
    parallel = threshold_sweep(SPHERE, [10, 12], [0.5, 2.0], trials=3, seed=9,
                               params=FAST, jobs=2)
    assert sweep_csv(serial) == sweep_csv(parallel)


def test_sweep_of_split_hosts_matches_across_jobs():
    """At n = 200 every host is drawn in two halves (C(200, 3) words) and
    the c = 4 host (about 371 K triples) has its skeleton split too: the
    rows are the same from one process and from two."""
    serial = threshold_sweep(SPHERE, [200], [1.0, 4.0], trials=1, seed=3,
                             params=FAST, jobs=1)
    parallel = threshold_sweep(SPHERE, [200], [1.0, 4.0], trials=1, seed=3,
                               params=FAST, jobs=2)
    assert sweep_csv(serial) == sweep_csv(parallel)


def test_sweep_draws_each_host_stream_once(monkeypatch):
    """One host stream per (n, trial), shared by its c cells, at any jobs."""
    streams = []
    real = generators.generator

    def counting(seed, *stream):
        streams.append(stream)
        return real(seed, *stream)

    monkeypatch.setattr(generators, "generator", counting)
    serial = threshold_sweep(SPHERE, [10, 12], [0.5, 1, 2], trials=2, seed=5,
                             params=FAST)
    assert [s[0] == _S_GNP3 for s in streams].count(True) == 4
    assert [(r.n, r.c, r.trial) for r in serial] == [
        (n, c, t) for n in (10, 12) for c in (0.5, 1, 2) for t in (0, 1)]
    parallel = threshold_sweep(SPHERE, [10, 12], [0.5, 1, 2], trials=2,
                               seed=5, params=FAST, jobs=2)
    assert sweep_csv(parallel) == sweep_csv(serial)


def test_sweep_unknown_target():
    with pytest.raises(ValueError):
        threshold_sweep("klein-bottle", [10], [1.0], trials=1, seed=0)


@pytest.mark.parametrize("n_values, c_values", [
    ([0], [1.0]),
    ([12], [float("nan")]),
    ([12], [1.0, float("inf")]),
], ids=["n-zero", "c-nan", "c-inf"])
def test_sweep_rejects_bad_grid(n_values, c_values):
    with pytest.raises(ValueError):
        threshold_sweep(SPHERE, n_values, c_values, trials=1, seed=0,
                        params=FAST)


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        threshold_sweep(SPHERE, [12], [1.0], trials=1, seed=0, params=FAST,
                        jobs=jobs)


def test_sweep_hypergraphs_nested_across_c():
    """The cell seed ignores c, so found never flips off as c grows."""
    rows = threshold_sweep(SPHERE, [20], [0.5, 1.5, 3.0], trials=6, seed=2,
                           params=FAST)
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r.trial, []).append((r.c, r.found))
    for seq in by_trial.values():
        flags = [f for _, f in sorted(seq)]
        assert flags == sorted(flags)


def test_audit_corpus_structural_and_weighted():
    graphs = [("path4", random_graph(4, 0.0, seed=0)), ("cp16", clique_pendant_graph(16))]
    lines = list(audit_corpus(graphs))
    assert lines[0] == AUDIT_HEADER
    body = lines[1:]
    # structural rows for both, weighted row only at n <= 14 for path4
    assert any(line.startswith("cp16,16,1/1,1/1,") for line in body)
    assert all(line.endswith(",true") for line in body)
    cp_rows = [l for l in body if l.startswith("cp16,")]
    assert len(cp_rows) == 1  # n = 16 skips the weighted grid
    p4_rows = [l for l in body if l.startswith("path4,")]
    assert len(p4_rows) == 2  # structural + one default grid cell
    assert p4_rows[1].split(",")[2] == "1/2"
    assert p4_rows[1].split(",")[3] == "1/10"


def test_audit_corpus_known_value():
    lines = list(audit_corpus([("cp16", clique_pendant_graph(16))]))
    gid, n, p, eps, ws, bound, holds = lines[1].split(",")
    assert (gid, n, p, eps) == ("cp16", "16", "1/1", "1/1")
    assert Fraction(ws) == Fraction(102, 15)
    assert Fraction(bound) == Fraction(3 * 16, 2)
    assert holds == "true"


def test_audit_corpus_error_row():
    lines = list(audit_corpus([("broken", None)]))
    assert lines[1] == "broken,,,,,,error"


def test_audit_corpus_custom_grid():
    G = random_graph(8, 0.5, seed=3)
    grid = ((Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 3), Fraction(1, 7)))
    lines = list(audit_corpus([("g", G)], grid=grid))
    body = lines[1:]
    assert len(body) == 3  # structural + two grid cells sharing one p table
    assert body[1].split(",")[2:4] == ["1/3", "1/5"]
    assert body[2].split(",")[2:4] == ["1/3", "1/7"]


# (p, epsilon) grid points in (0, 1], from a few values so that a path's
# probability often equals 1 - epsilon exactly
_GRID_POINT = st.tuples(
    st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=comb(n, 2),
                         max_size=comb(n, 2)))),
    st.lists(_GRID_POINT, min_size=1, max_size=3))
@example((0, []), [(Fraction(1, 2), Fraction(1, 4))])
@example((2, [True]), [(Fraction(1, 2), Fraction(1, 4))])
def test_audit_corpus_weighted_rows_match_brute_force(graph, grid):
    """Every weighted row is the sum of 1/deg(y) over the length-2 paths
    x y z whose brute-force admissibility probability is below 1 - epsilon,
    against the bound 3n/(2 p^2 epsilon), also on graphs too small to
    hold a path. Rows come grouped by p, in the order each p first
    appears in the grid."""
    n, keep = graph
    edges = [e for e, k in zip(combinations(range(n), 2), keep) if k]
    nbrs = {y: sorted({a for e in edges if y in e for a in e} - {y})
            for y in range(n)}
    p2s = [(x, y, z) for y in range(n) for x, z in combinations(nbrs[y], 2)]
    lines = list(audit_corpus([("g", SkeletonGraph(range(n), edges))], grid))
    assert len(lines) == 2 + len(grid)
    probs = {}
    ps = [p for p, _ in grid]
    grouped = sorted(grid, key=lambda point: ps.index(point[0]))
    for line, (p, eps) in zip(lines[2:], grouped):
        for path in p2s:
            if (path, p) not in probs:
                probs[path, p] = bf.exact_admissibility(edges, n, *path, p)
        want = sum((Fraction(1, len(nbrs[y])) for x, y, z in p2s
                    if probs[(x, y, z), p] < 1 - eps), Fraction(0))
        bound = Fraction(3 * n) / (2 * p * p * eps)
        assert line == ",".join((
            "g", str(n), f"{p.numerator}/{p.denominator}",
            f"{eps.numerator}/{eps.denominator}",
            f"{want.numerator}/{want.denominator}",
            f"{bound.numerator}/{bound.denominator}",
            # no inadmissible path holds the bound, even 0 at n = 0
            "true" if want < bound or not want else "false"))


def test_audit_corpus_does_not_count_a_path_at_one_minus_epsilon():
    # on the 4-cycle 0 1 2 3 each length-2 path x y z is admissible exactly
    # when the fourth vertex is in U: probability p = 1/2 = 1 - epsilon at
    # epsilon = 1/2, which the strict inequality does not count; at
    # epsilon = 2/5 all four paths count, 1/2 each
    G = SkeletonGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    half = Fraction(1, 2)
    lines = list(audit_corpus([("c4", G)], [(half, half),
                                            (half, Fraction(2, 5))]))
    assert lines[2:] == ["c4,4,1/2,1/2,0/1,48/1,true",
                         "c4,4,1/2,2/5,2/1,60/1,true"]

