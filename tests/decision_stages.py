"""Per-stage cost of the lane pass that decides the sampled 4-cycles of
two benchmark workloads: `ktt_complete` (the K_4 finder on K_30, whose
core stage estimates psi from sampled pairs and whose pattern stage
decides the special cycles of each apex pair of a draw) and `psi_random`
(`pair_psi` on G(48, 0.3)).

    PYTHONPATH=src:perfbench python tests/decision_stages.py [ops] [repeats]

The lane passes (`coverability._cycle_hits`, with the least hit count
each decision passes as `need`) of `ops` ops of each workload (default 3,
seed 0) are recorded, so the `ktt_complete` row holds the core and the
pattern stages' passes, then replayed `repeats` times (default 5) with
each stage's functions timed: the trial bits of every cycle
(`keyed_bits`, one call per block of cycles), the screen of the blocks
whose cycles all have one-vertex pyramids (`_sure_hits`), the transpose
of the other blocks' bits into lane sets (`row_masks`), the first
pyramid side over all lanes (`_lane_paths`), the rows of the link
intersections (`link_intersection`: LI(v, v') once per pass, LI(w, w')
once per cycle whose second side the screen leaves undecided), and the
second side of the cycles short of need (`_second_sides`: the packing
of a block's side-1 misses into words, its numpy screen of them, and
the path searches of the cycles it leaves). A stage is charged its
calls' own time, less that of the timed calls inside them; `other` is
the rest of the pass. It prints one markdown table row per workload:
the blocks, how many the screen
settled (those that ran no lane search), the cycles short of need after
the first side, how many of those the second side's screen settled
(those that ran no path search), and times in µs per decision from the
fastest replay. It exits non-zero when a workload records no
decisions, since its row would then measure nothing. Not collected by
pytest; `tests/test_stage_scripts.py` runs it once at `1 1`.
"""

import sys
import time
from collections import Counter

import workloads
from diskcover import coverability as cv

STAGES = {"draws": "keyed_bits", "screen": "_sure_hits",
          "lane sets": "row_masks",
          "side 1": "_lane_paths", "LI": "link_intersection",
          "side 2": "_second_sides"}


def record(wl, ops):
    """The (H, v, vp, pairs, params, need) of every lane pass of the
    first `ops` ops of a workload at seed 0."""
    calls = []
    real = cv._cycle_hits

    def recording(H, v, vp, pairs, params, need=None):
        calls.append((H, v, vp, pairs, params, need))
        return real(H, v, vp, pairs, params, need)

    state = wl.setup(0)
    cv._cycle_hits = recording
    try:
        for r in range(ops):
            for op in wl.round(state, 0, r):
                wl.run(state, op)
    finally:
        cv._cycle_hits = real
    return calls


def replay(calls):
    """The whole time of one replay of the passes, the own time of each
    stage in it, and how many calls each stage made, with the cycles
    short of need ("short") and the second-side searches ("searched")."""
    own, count, inner = Counter(), Counter(), []

    def timed(stage, f):
        def run(*args):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return f(*args)
            finally:
                dt = time.perf_counter() - t0
                own[stage] += dt - inner.pop()
                count[stage] += 1
                if inner:
                    inner[-1] += dt
        return run

    real = {name: getattr(cv, name) for name in (*STAGES.values(), "_ask")}

    def second_sides(H, v, vp, block, bits, hits, params, need):
        short = params.trials if need is None else need
        count["short"] += int((hits.sum(axis=1) < short).sum())
        return real["_second_sides"](H, v, vp, block, bits, hits, params,
                                     need)

    def ask(*args):
        count["searched"] += 1
        return real["_ask"](*args)

    cv._second_sides, cv._ask = second_sides, ask
    for stage, name in STAGES.items():
        setattr(cv, name, timed(stage, getattr(cv, name)))
    try:
        t0 = time.perf_counter()
        for call in calls:
            cv._cycle_hits(*call)
        whole = time.perf_counter() - t0
    finally:
        for name, f in real.items():
            setattr(cv, name, f)
    return whole, own, count


def main(ops: int = 3, repeats: int = 5) -> None:
    print("| workload | decisions | blocks | settled | short of need | "
          "settled by screen | " + " | ".join(STAGES) + " | other | whole |")
    print("|---" * (len(STAGES) + 8) + "|")
    for wl in (workloads.KttComplete(), workloads.PsiRandom()):
        calls = record(wl, ops)
        decisions = sum(len(pairs) for _, _, _, pairs, _, _ in calls)
        blocks = sum(-(-len(pairs) // max(1, min(
            cv._BLOCK, cv._BLOCK_LANES // params.trials)))
            for _, _, _, pairs, params, _ in calls)
        if not decisions:
            sys.exit(f"error: {wl.name} recorded no lane-pass decisions "
                     f"in {ops} ops")
        whole, own, count = min((replay(calls) for _ in range(repeats)),
                                key=lambda run: run[0])
        times = [own[stage] for stage in STAGES]
        times += [whole - sum(times), whole]
        cells = " | ".join(f"{t / decisions * 1e6:.1f}" for t in times)
        settled = blocks - count["side 1"]
        print(f"| `{wl.name}` | {decisions} | {blocks} | {settled} | "
              f"{count['short']} | {count['short'] - count['searched']} | "
              f"{cells} |")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
