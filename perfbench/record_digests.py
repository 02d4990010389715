"""Record the reference digests that every benchmark run checks against.

    python3 perfbench/record_digests.py 0 1000

For each seed given, runs a fixed number of rounds of every workload
(untimed, untraced), checks each output, and stores the per-op digests
in perfbench/digests.json, replacing what was stored for that seed.
Record only on a commit whose outputs are the reference: a later run
whose output differs from a recorded digest counts as a failed op.
"""

from __future__ import annotations

import json
import sys

import time

from run import DIGESTS, check, load_workloads, run_rounds

# Rounds recorded per workload: a little more than a run completes today.
ROUNDS = {"ktt_complete": 64, "psi_random": 8, "sphere_sweep": 1,
          "audit_exact": 48}


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv]
    if not seeds:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workloads = load_workloads()
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            state = wl.setup(seed)
            res = run_rounds(wl, state, seed, time.perf_counter,
                             rounds=ROUNDS[name])
            digests, problems = check(wl, state, res, [])
            if problems:
                print(f"{name} seed {seed}: {problems[:3]}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
