"""Per-stage cost of the sampled coverability decisions of two benchmark
workloads: `ktt_complete` (the K_4 finder on K_30) and `psi_random`
(`pair_psi` on G(48, 0.3)).

    PYTHONPATH=src:perfbench python tests/decision_stages.py [ops] [repeats]

The decisions of `ops` ops of each workload (default 3, seed 0) are
recorded, then replayed stage by stage: the trial masks, the cycle check,
the event description and the kernel's screen pass (with LI(v, v') when
the decision builds it), LI(w, w') on the decisions whose path searches
reach the second pyramid side, and the whole kernel, screen pass and path
searches, with LI(w, w') already built. The last column is the whole
decision, cycle check included. It prints one markdown table row per
workload, times in µs per decision averaged over all of them, each the
best of `repeats` runs (default 5). Not collected by pytest.
"""

import sys
import time

import workloads
from diskcover import coverability as cv
from diskcover import search
from diskcover.hypergraph import link_intersection
from diskcover.rng import trial_masks


def best(repeats, f):
    """The least wall time of `repeats` calls of f."""
    least = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        least = min(least, time.perf_counter() - t0)
    return least


def record(wl, ops):
    """The (H, cycle, params, li_apex) of every sampled coverability
    decision of the first `ops` ops of a workload at seed 0."""
    calls = []
    real = cv._coverable

    def recording(H, cyc, params, li_apex=None):
        calls.append((H, cyc, params, li_apex))
        return real(H, cyc, params, li_apex)

    state = wl.setup(0)
    cv._coverable = search._coverable = recording
    try:
        for r in range(ops):
            for op in wl.round(state, 0, r):
                wl.run(state, op)
    finally:
        cv._coverable = search._coverable = real
    return calls


def stages(calls, repeats):
    """Seconds per stage over all decisions, how many search, and how many
    of those reach side 2."""
    def masks(H, cyc, params):
        return trial_masks(params.seed, (cv._STREAM_COVER, *cyc),
                           params.trials, max(H.n, 1), params.p)

    def event(H, cyc, params, li_apex):
        return cv._coverability_event(H, cyc, params.strategy,
                                      params.max_interior, li_apex)

    drawn = [masks(H, cyc, params) for H, cyc, params, _ in calls]
    # each decision's kernel arguments; a probe run records which rows the
    # kernel fetches: the first side's once the screens leave the decision
    # open, the second side's, LI(w, w'), once a search reaches it, which
    # builds and keeps it for the timed runs
    decisions, searched, side_two = [], 0, []
    for (H, cyc, params, li_apex), ms in zip(calls, drawn):
        searches, disk = event(H, cyc, params, li_apex)
        need = cv._least_hits(len(ms), params.epsilon)
        fetched = []
        probe = tuple((ends, lambda adj=adj, i=i: fetched.append(i) or adj(),
                       *rest)
                      for i, (ends, adj, *rest) in enumerate(searches))
        cv._hits(probe, disk, ms, need)
        searched += 0 in fetched
        if 1 in fetched:
            side_two.append((H, cyc[1], cyc[3]))
        decisions.append((searches, disk, ms, need))
    times = {
        "masks": best(repeats, lambda: [masks(H, cyc, params)
                                        for H, cyc, params, _ in calls]),
        "check": best(repeats, lambda: [cv._check_four_cycle(H, cyc)
                                        for H, cyc, _, _ in calls]),
        # need = 0 is fixed by the screen pass alone
        "screens": best(repeats, lambda: [
            cv._hits(*event(H, cyc, params, li_apex), ms, 0)
            for (H, cyc, params, li_apex), ms in zip(calls, drawn)]),
        "LI(w, w')": best(repeats, lambda: [
            link_intersection(H, w, wp) for H, w, wp in side_two]),
        "kernel": best(repeats, lambda: [cv._hits(*d) for d in decisions]),
        "whole": best(repeats, lambda: [
            cv._coverable(H, cv._check_four_cycle(H, cyc), params, li_apex)
            for H, cyc, params, li_apex in calls]),
    }
    return times, searched, len(side_two)


def main(ops: int = 3, repeats: int = 5) -> None:
    print("| workload | decisions | searched | reach LI(w, w') | masks | "
          "check | screens | LI(w, w') | kernel | whole |")
    print("|---" * 10 + "|")
    for wl in (workloads.KttComplete(), workloads.PsiRandom()):
        calls = record(wl, ops)
        times, searched, side_two = stages(calls, repeats)
        cells = " | ".join(f"{t / len(calls) * 1e6:.1f}"
                           for t in times.values())
        print(f"| `{wl.name}` | {len(calls)} | {searched} | {side_two} | "
              f"{cells} |")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
