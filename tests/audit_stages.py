"""Per-stage cost of the weighted rows of `audit_corpus` on the graphs of
the `audit_exact` benchmark workload: the walk order, the lattice walk,
the rows (every path walked once, then its reliability numerator at the
grid's three p's), and the nine (p, epsilon) audits built on those rows.

    PYTHONPATH=src:perfbench python tests/audit_stages.py [batches] [repeats]

The order and the walk run on their own over every length-2 path of
`batches` batches of eight graphs (default 40, seed 0). The rows and the
audits run per graph, each including the stages before it, so the
reliability (with the per-path setup) and the cuts are read as
differences. Each time is the best of `repeats` runs (default 7). Not
collected by pytest; `tests/test_stage_scripts.py` runs it once at `1 1`.
"""

import sys
import time
from functools import partial

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
        cv._leaf_counts(order, partial(cv._holds, searches, disk))
        for (searches, disk, _), order in zip(paths, orders)])
    t_rows, _ = best(repeats, lambda: [
        list(cv._admissibility_rows(G, by_p)) for G in graphs])
    t_audits, _ = best(repeats, lambda: [
        list(cv._weighted_audits(G, by_p)) for G in graphs])
    print(f"{len(graphs)} graphs, {len(paths)} paths: order {t_order:.3f} s, "
          f"walk {t_walk:.3f} s, rows {t_rows:.3f} s "
          f"(reliability and setup ~{t_rows - t_order - t_walk:.3f} s), "
          f"audits {t_audits:.3f} s (cuts ~{t_audits - t_rows:.3f} s)")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
