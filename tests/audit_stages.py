"""Per-stage cost of the weighted rows of `audit_corpus` on the graphs of
the `audit_exact` benchmark workload: the walk order, the lattice walk,
the reliability numerators at the grid's three p's, and the nine
(p, epsilon) cuts.

    PYTHONPATH=src:perfbench python tests/audit_stages.py [batches] [repeats]

Each stage runs on its own over every length-2 path (or graph) of
`batches` batches of eight graphs (default 40, seed 0), and its time is
the best of `repeats` runs (default 7). Not collected by pytest.
"""

import sys
import time

import workloads
from diskcover import coverability as cv
from diskcover.hypergraph import iter_p2s


def best(repeats, f):
    """The least wall time of `repeats` calls of f, and f's last result."""
    least = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = f()
        least = min(least, time.perf_counter() - t0)
    return least, out


def main(batches: int = 40, repeats: int = 7) -> None:
    wl = workloads.AuditExact()
    graphs = [G for r in range(batches) for _, G in wl.round(None, 0, r)[0]]
    by_p: dict = {}
    for p, eps in workloads._AUDIT_GRID:
        by_p.setdefault(p, []).append(eps)
    paths = []
    for G in graphs:
        for x, y, z in iter_p2s(G):
            searches, disk = cv._admissibility_event(G, x, y, z)
            paths.append((searches, disk,
                          [v for v in G.vertices if v not in (x, y, z)]))
    t_order, orders = best(repeats, lambda: [
        cv._order(searches, universe) for searches, _, universe in paths])
    t_walk, _ = best(repeats, lambda: [
        cv._leaf_counts(order, cv._event(searches, disk))
        for (searches, disk, _), order in zip(paths, orders)])
    walks = [cv._admissibility_walks(G) for G in graphs]
    t_rel, rows = best(repeats, lambda: [
        {p: cv._admissibility_rows(G, w, p) for p in by_p}
        for G, w in zip(graphs, walks)])
    t_cut, _ = best(repeats, lambda: [
        cv._weighted_audit(G.n, r[p], p, eps)
        for G, r in zip(graphs, rows) for p in by_p for eps in by_p[p]])
    print(f"{len(graphs)} graphs, {len(paths)} paths: order {t_order:.3f} s, "
          f"walk {t_walk:.3f} s, reliability {t_rel:.3f} s, "
          f"cuts {t_cut:.3f} s")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
