"""Per-stage cost of the sampled coverability decisions of two benchmark
workloads: `ktt_complete` (the K_4 finder on K_30) and `psi_random`
(`pair_psi` on G(48, 0.3)).

    PYTHONPATH=src:perfbench python tests/decision_stages.py [ops] [repeats]

The decisions of `ops` ops of each workload (default 3, seed 0) are
recorded, then replayed stage by stage: the trial masks, the cycle check,
the event description and its screens (with LI(v, v') when the decision
builds it), LI(w, w') on the decisions whose path searches reach the
second pyramid side, and the path searches over the open masks with
LI(w, w') already built. The last column is the whole decision, cycle
check included. It prints one markdown table row per workload, times in
µs per decision averaged over all of them, each the best of `repeats`
runs (default 5). Not collected by pytest.
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
    """Seconds per stage over all decisions, and how many reach side 2."""
    def masks(H, cyc, params):
        return trial_masks(params.seed, (cv._STREAM_COVER, *cyc),
                           params.trials, max(H.n, 1), params.p)

    def event(H, cyc, params, li_apex):
        return cv._coverability_event(H, cyc, params.strategy,
                                      params.max_interior, li_apex)

    drawn = [masks(H, cyc, params) for H, cyc, params, _ in calls]
    # the decisions that ask the event, and those of them whose path
    # searches fetch the second side's rows, LI(w, w')
    searched, side_two = [], []
    for (H, cyc, params, li_apex), ms in zip(calls, drawn):
        searches, disk = event(H, cyc, params, li_apex)
        hits, open_ = cv._screen(searches, disk, ms)
        need = cv._least_hits(len(ms), params.epsilon) - hits
        if not 0 < need <= len(open_):
            continue
        fetched = []
        ends, adj2, *rest = searches[1]
        probe = (searches[0],
                 (ends, lambda: fetched.append(1) or adj2(), *rest))
        cv._trial_hits(cv._event(probe, disk), open_, need)
        searched.append((searches, disk, open_, need))
        if fetched:
            side_two.append((H, cyc[1], cyc[3]))
    times = {
        "masks": best(repeats, lambda: [masks(H, cyc, params)
                                        for H, cyc, params, _ in calls]),
        "check": best(repeats, lambda: [cv._check_four_cycle(H, cyc)
                                        for H, cyc, _, _ in calls]),
        "screens": best(repeats, lambda: [
            cv._screen(*event(H, cyc, params, li_apex), ms)
            for (H, cyc, params, li_apex), ms in zip(calls, drawn)]),
        "LI(w, w')": best(repeats, lambda: [
            link_intersection(H, w, wp) for H, w, wp in side_two]),
        # the probe built each LI(w, w') these searches ask for
        "paths": best(repeats, lambda: [
            cv._trial_hits(cv._event(searches, disk), open_, need)
            for searches, disk, open_, need in searched]),
        "whole": best(repeats, lambda: [
            cv._coverable(H, cv._check_four_cycle(H, cyc), params, li_apex)
            for H, cyc, params, li_apex in calls]),
    }
    return times, len(searched), len(side_two)


def main(ops: int = 3, repeats: int = 5) -> None:
    print("| workload | decisions | searched | reach LI(w, w') | masks | "
          "check | screens | LI(w, w') | paths | whole |")
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
