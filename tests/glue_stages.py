"""Per-outcome cost of the gluer on the `sphere_sweep` benchmark workload
(a sphere threshold sweep over n 100-400 and c 0.5-4, whose low-c cells
fail at glue).

    PYTHONPATH=src:perfbench python tests/glue_stages.py [ops] [repeats]

The `search.glue_disks` calls of `ops` sweeps (default 1, seed 0) are
recorded, then replayed `repeats` times (default 5) on fresh copies of
their hosts, which share the stored codes but no link row: the calls on
one host share one copy, in call order, as a sweep cell's retries share
its host, so each replay builds the rows the sweep built. It prints one
markdown table row per outcome: screened hopeless (a hopeless call that
built no link intersection, every cycle settled by the edge-mask
screen), hopeless after rows, too few free vertices, budget exhausted
and glued. Each row gives the calls, the link rows
(`hypergraph._link_row`) and link intersections built per call, and µs
per call, each call timed by its fastest replay. It exits non-zero when
no call was recorded. Not collected by pytest;
`tests/test_stage_scripts.py` runs it once at `1 1`.
"""

import sys
import time
from collections import Counter

import workloads
from diskcover import hypergraph, search
from diskcover.hypergraph import Hypergraph3

OUTCOMES = ("screened hopeless", "hopeless after rows", "too few free",
            "budget exhausted", "glued")


def record(ops):
    """The (H, cycles, params) of every gluer call of the first `ops` ops
    of the sphere sweep workload at seed 0."""
    calls = []
    real = search.glue_disks

    def recording(H, cycles, params):
        calls.append((H, cycles, params))
        return real(H, cycles, params)

    wl = workloads.SphereSweep()
    state = wl.setup(0)
    search.glue_disks = recording
    try:
        for r in range(ops):
            for op in wl.round(state, 0, r):
                wl.run(state, op)
    finally:
        search.glue_disks = real
    return calls


def outcome(result, intersections):
    if not isinstance(result, search.GlueFailure):
        return "glued"
    if result.retries:
        return "budget exhausted"
    if "free vertices cannot give" in result.detail:
        return "too few free"
    return "hopeless after rows" if intersections else "screened hopeless"


def replay(calls):
    """Per call: its outcome, the link rows and link intersections it
    built, and its wall time, on fresh copies of the hosts."""
    built = Counter()
    real_row, real_li = hypergraph._link_row, search.link_intersection

    def counted(name, f):
        def run(*args):
            built[name] += 1
            return f(*args)
        return run

    hypergraph._link_row = counted("rows", real_row)
    search.link_intersection = counted("LI", real_li)
    fresh, out = {}, []
    try:
        for H, cycles, params in calls:
            if id(H) not in fresh:
                fresh[id(H)] = Hypergraph3._from_codes(H.n, H.codes, H.labels)
            built.clear()
            t0 = time.perf_counter()
            result = search.glue_disks(fresh[id(H)], cycles, params)
            dt = time.perf_counter() - t0
            out.append((outcome(result, built["LI"]), built["rows"],
                        built["LI"], dt))
    finally:
        hypergraph._link_row, search.link_intersection = real_row, real_li
    return out


def main(ops: int = 1, repeats: int = 5) -> None:
    calls = record(ops)
    if not calls:
        sys.exit(f"error: the sphere sweep made no gluer call in {ops} ops")
    runs = [replay(calls) for _ in range(repeats)]
    calls_of, rows, lis, secs = Counter(), Counter(), Counter(), Counter()
    for each in zip(*runs):
        name, row_count, li_count, _ = each[0]
        calls_of[name] += 1
        rows[name] += row_count
        lis[name] += li_count
        secs[name] += min(dt for *_, dt in each)
    print("| workload | outcome | calls | rows per call | LI per call | "
          "µs per call |")
    print("|---" * 6 + "|")
    for name in OUTCOMES:
        k = calls_of[name]
        cells = ([f"{rows[name] / k:.2f}", f"{lis[name] / k:.2f}",
                  f"{secs[name] / k * 1e6:.0f}"] if k else ["-"] * 3)
        print(f"| `sphere_sweep` | {name} | {k} | {' | '.join(cells)} |")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
