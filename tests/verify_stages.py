"""Per-check cost of the certificate verifier on two benchmark workloads:
`ktt_complete` (K_4 finds on K_30, 12 disks per certificate) and
`sphere_sweep` (a sphere threshold sweep over n 100-400 and c 0.5-4,
2 disks per certificate).

    PYTHONPATH=src:perfbench python tests/verify_stages.py [ops] [repeats]

The `verify_certificate` calls the finders make in `ops` ops of each
workload (default 3, seed 0) are recorded, then replayed `repeats` times
(default 5) with each check timed: the disk triangles are triples of H
(`_check_triangles`), each disk bounds its cycle (`_check_disks`), the
disks meet only in their cycles (`_check_intersections`) and the
pattern (`_check_pattern`). `classify`, which the disk and pattern
checks call, is timed on its own and not charged to them. A stage is
charged its calls' own time; `other` is the rest of a call: the
structural checks and the edge incidences. It prints one markdown table
row per workload: the certificates, their disks, and times in µs per
certificate from the fastest replay. It exits non-zero when a workload
records no certificate, since its row would then measure nothing. Not
collected by pytest; `tests/test_stage_scripts.py` runs it once at
`1 1`.
"""

import sys
import time
from collections import Counter

import workloads
from diskcover import complexes, search, verify

STAGES = {"triangles": "_check_triangles", "disks": "_check_disks",
          "intersections": "_check_intersections",
          "pattern": "_check_pattern"}


def record(wl, ops):
    """The (H, certificate) of every verifier call the finders make in
    the first `ops` ops of a workload at seed 0."""
    calls = []
    real = search.verify_certificate

    def recording(H, cert):
        calls.append((H, cert))
        return real(H, cert)

    state = wl.setup(0)
    search.verify_certificate = recording
    try:
        for r in range(ops):
            for op in wl.round(state, 0, r):
                wl.run(state, op)
    finally:
        search.verify_certificate = real
    return calls


def replay(calls):
    """The whole time of one replay of the calls and the own time of each
    stage in it."""
    own, inner = Counter(), []

    def timed(stage, f):
        def run(*args):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return f(*args)
            finally:
                dt = time.perf_counter() - t0
                own[stage] += dt - inner.pop()
                if inner:
                    inner[-1] += dt
        return run

    # the disk check reaches classify through complexes, the pattern
    # check through the name verify imported
    patched = [(verify, name, stage) for stage, name in STAGES.items()]
    patched += [(complexes, "classify", "classify"),
                (verify, "classify", "classify")]
    real = [(module, name, getattr(module, name))
            for module, name, _ in patched]
    for module, name, stage in patched:
        setattr(module, name, timed(stage, getattr(module, name)))
    try:
        t0 = time.perf_counter()
        for H, cert in calls:
            if not verify.verify_certificate(H, cert).passed:
                sys.exit("error: a recorded certificate fails on replay")
        whole = time.perf_counter() - t0
    finally:
        for module, name, f in real:
            setattr(module, name, f)
    return whole, own


def main(ops: int = 3, repeats: int = 5) -> None:
    columns = [*STAGES, "classify"]
    print("| workload | certificates | disks | " + " | ".join(columns)
          + " | other | whole |")
    print("|---" * (len(columns) + 5) + "|")
    for wl in (workloads.KttComplete(), workloads.SphereSweep()):
        calls = record(wl, ops)
        if not calls:
            sys.exit(f"error: {wl.name} verified no certificate in {ops} ops")
        disks = sum(len(cert.disks) for _, cert in calls)
        whole, own = min((replay(calls) for _ in range(repeats)),
                         key=lambda run: run[0])
        times = [own[stage] for stage in columns]
        times += [whole - sum(times), whole]
        cells = " | ".join(f"{t / len(calls) * 1e6:.1f}" for t in times)
        print(f"| `{wl.name}` | {len(calls)} | {disks} | {cells} |")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
