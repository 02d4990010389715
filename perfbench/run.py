"""Benchmark of the diskcover engine: four seeded workloads, end to end
and (with --trace 1) layer by layer.

    python3 perfbench/run.py --workload ktt_complete --seed 0 --seconds 15
    python3 perfbench/run.py --workload psi_random --trace 1

Run from the root of a checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A full record of the run (run
metadata, every metric, per-op digests) goes to
perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with no tracing. With --trace 1 the per-layer ones: the tracer
is installed, setup and the op loop run traced, then the same ops run
again untraced to give the tracing overhead and to check that tracing
changed no output.

Exit status: 0 when every output checked out, 1 when any op raised or
failed its check (the result line is still printed), 2 on a usage or
set-up error (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5


def fail_setup(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# host speed
#
# A shared host's speed drifts with its other tenants' load: on the
# 2-core host the baseline was measured on, by 20-30 % over seconds to
# minutes, far more than the bounds a regression gate can afford. So while a pass runs, a timer signal interrupts it every
# SAMPLE_EVERY_S to time one short, fixed pure-Python loop (a "slice").
# The pass's clock leaves the slices out, and its times are reported in
# reference seconds: raw seconds divided by the pass's slowdown, the
# median slice over REF_SLICE_S. The median keeps single slow slices
# from moving the result. Raw times are kept in the result file.

REF_SLICE_S = 0.007
SLICE_LOOPS = 100_000
SAMPLE_EVERY_S = 0.25


def host_slice() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(SLICE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostMeter:
    """Samples host speed during a pass (a context manager).

    clock() reads perf_counter minus the time spent in samples, so every
    interval timed with it excludes the sampling.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrived during a slice
            return
        self._busy = True
        t0 = time.perf_counter()
        self.slices.append(host_slice())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "HostMeter":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def slowdown(self) -> float:
        return statistics.median(self.slices) / REF_SLICE_S


def _calibrate() -> float:
    """Median of nine slices: host speed, recorded as run metadata."""
    return statistics.median(host_slice() for _ in range(9))


def _git(*args: str) -> str | None:
    # git reads nothing outside the checkout: no repository above it and
    # no system or user configuration
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(seed: int) -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "diskcover").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": None if sha is None or dirty is None else bool(dirty),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "calibration_s": _calibrate(),
    }


# ---------------------------------------------------------------------------
# measurement


class Pass:
    """The ops of one pass over a workload, their outputs and op times."""

    def __init__(self):
        self.ops: list = []
        self.outs: list = []
        self.times: list[float] = []  # seconds per op
        self.rounds = 0
        self.wall = 0.0


def run_rounds(wl, state, seed: int, clock, seconds: float | None = None,
               rounds: int | None = None, between=None) -> Pass:
    """Run whole rounds until `seconds` have passed, or exactly `rounds`.

    `between`, when given, is called after every round, off the clock.
    """
    res = Pass()
    start = clock()

    def more() -> bool:
        if rounds is not None:
            return res.rounds < rounds
        return res.rounds == 0 or clock() - start < seconds

    while more():
        for op in wl.round(state, seed, res.rounds):
            t0 = clock()
            try:
                out = wl.run(state, op)
            except Exception as exc:  # counted as a failed op, run goes on
                out = exc
            res.times.append(clock() - t0)
            res.ops.append(op)
            res.outs.append(out)
        res.rounds += 1
        if between is not None:
            paused = clock()
            between()
            start += clock() - paused
    res.wall = clock() - start
    return res


def check(wl, state, res: Pass, reference: list[str]):
    """Per-op digests, and (op index, problem) for every bad output."""
    digests, problems = [], []
    for i, (op, out) in enumerate(zip(res.ops, res.outs)):
        if isinstance(out, Exception):
            digests.append(None)
            problems.append((i, f"raised {out!r}"))
            continue
        try:
            digest = wl.digest(op, out)
            msg = wl.check(state, op, out)
        except Exception as exc:  # an output of the wrong shape
            digest, msg = None, f"check raised {exc!r}"
        digests.append(digest)
        if msg is None and i < len(reference) and reference[i] != digest:
            msg = f"digest {digest} differs from the reference {reference[i]}"
        if msg is not None:
            problems.append((i, msg))
    return digests, problems


def end_to_end(wl, seed: int, seconds: float, reference: list[str]):
    setup_times = []
    with HostMeter() as host:
        def build():
            t0 = host.clock()
            built = wl.setup(seed)
            setup_times.append(host.clock() - t0)
            return built

        # set up several times before the loop and once more after every
        # round, so that setup_s sees the same host as the ops do
        for _ in range(SETUP_REPEATS):
            state = build()
        res = run_rounds(wl, state, seed, host.clock, seconds=seconds,
                         between=build)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digests, problems = check(wl, state, res, reference)
    slowdown = host.slowdown()
    metrics = {
        "setup_s": (statistics.median(setup_times) / slowdown, "s"),
        "ops_per_s": (len(res.ops) / res.wall * slowdown, "1/s"),
        "op_s_p50": (statistics.median(res.times) / slowdown, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    # printed and recorded, but not bounded: p90 needs ten ops beyond it,
    # found_rate exists only for finder workloads and error_rate is 0
    extra = {
        "ops": (len(res.ops), "count"), "rounds": (res.rounds, "count"),
        "error_rate": (len(problems) / len(res.ops), "ratio"),
        "raw_setup_s": (statistics.median(setup_times), "s"),
        "raw_ops_per_s": (len(res.ops) / res.wall, "1/s"),
        "raw_op_s_p50": (statistics.median(res.times), "s"),
        "host_slowdown": (slowdown, "ratio"),
        "host_samples": (len(host.slices), "count"),
        "setup_samples": (len(setup_times), "count"),
    }
    if len(res.times) >= 100:
        p90 = statistics.quantiles(res.times, n=10)[8]
        extra["op_s_p90"] = (p90 / slowdown, "s")
    found = [wl.found(o) for o in res.outs if not isinstance(o, Exception)]
    if found and found[0] is not None:
        extra["found_rate"] = (sum(f for f, _ in found)
                               / sum(n for _, n in found), "ratio")
    return res, digests, problems, metrics, extra, []


def traced(wl, seed: int, seconds: float, reference: list[str]):
    import diskcover
    from tracer import Tracer, catalogue

    with HostMeter() as host:
        tracer = Tracer(diskcover, host.clock)
        tracer.install()
        fatal = [f"unwrapped alias of a traced function: {where}"
                 for where in tracer.stray_aliases()]
        t0 = host.clock()
        state = wl.setup(seed)
        res = run_rounds(wl, state, seed, host.clock, seconds=seconds)
        traced_wall = host.clock() - t0
        tracer.uninstall()
    fatal += [f"wrapper left after uninstall: {where}"
              for where in tracer.wrappers_left()]
    digests, problems = check(wl, state, res, reference)

    with HostMeter() as replay_host:
        state = wl.setup(seed)
        replay = run_rounds(wl, state, seed, replay_host.clock,
                            rounds=res.rounds)
    replay_digests, _ = check(wl, state, replay, [])
    if replay_digests != digests:
        fatal.append("traced and untraced runs gave different outputs")

    units = {name: unit for name, unit, _ in catalogue()}
    # the overhead compares op time in reference seconds, so that host
    # drift between the two passes does not show up as overhead
    values = tracer.metrics(traced_wall, (res.wall / host.slowdown())
                            / (replay.wall / replay_host.slowdown()))
    metrics = {name: (values[name], units[name]) for name in units}
    extra = {"ops": (len(res.ops), "count"), "rounds": (res.rounds, "count"),
             "traced_wall_s": (traced_wall, "s"),
             "untraced_wall_s": (replay.wall, "s")}
    for name in tracer.missing:
        print(f"warning: traced function {name} not found; its span stays 0")
    return res, digests, problems, metrics, extra, fatal


def load_workloads():
    """Import the workloads against the package sources of this checkout."""
    if not (SRC / "diskcover" / "__init__.py").is_file():
        fail_setup(f"no package sources at {SRC / 'diskcover'}; run from "
                   "the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def expected_names(trace: int) -> list[str] | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")
    workloads = load_workloads()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail_setup(f"unknown workload {args.workload!r}; choose from "
                   f"{', '.join(workloads.WORKLOADS)}")
    names = expected_names(args.trace)
    if names is None:
        fail_setup("BENCHMARK.json is missing or unreadable")

    try:
        recorded = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        fail_setup(f"cannot read the reference digests {DIGESTS}")
    reference = recorded.get(wl.name, {}).get(str(args.seed), [])

    meta = metadata(args.seed)
    measure = traced if args.trace else end_to_end
    res, digests, problems, metrics, extra, fatal = measure(
        wl, args.seed, args.seconds, reference)
    meta["calibration_end_s"] = _calibrate()
    if sorted(metrics) != sorted(names):
        fatal.append("metric names differ from BENCHMARK.json")

    for i, msg in problems[:20]:
        print(f"op {i} ({res.ops[i]!r:.60}): {msg}", file=sys.stderr)
    for msg in fatal:
        print(f"error: {msg}", file=sys.stderr)
    checked = min(len(reference), len(digests))
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"ops={len(res.ops)} digests checked={checked}")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<52} {value:>14.6g} {unit}")

    correct = not problems and not fatal
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": wl.name, "why": wl.why, "trace": args.trace,
        "seconds": args.seconds, "metadata": meta, "correct": correct,
        "metrics": as_json,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "digests": digests, "digests_checked": checked,
        "problems": [f"op {i}: {msg}" for i, msg in problems] + fatal,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": len(res.ops),
        "failed": len(res.ops) if fatal else len(problems),
        "metrics": as_json,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
