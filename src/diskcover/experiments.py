"""Threshold sweeps and corpus-scale inadmissibility audits.

Both entry points emit CSV with fixed headers so downstream tooling can
concatenate runs. All randomness is derived from the caller's seed via
the counter-based scheme in :mod:`diskcover.rng`, so a sweep produces
byte-identical output no matter how many worker processes it uses.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isfinite, sqrt
from typing import Iterable, Iterator

from .certificates import HomeomorphCertificate
from .coverability import (WeightedAudit, _weighted_audits,
                           inadmissible_p2_audit, unit_fraction)
from .generators import random_hypergraphs
from .hypergraph import SkeletonGraph
from .rng import mix64
from .search import FINDERS, SearchParams

__all__ = [
    "SweepRow",
    "SWEEP_HEADER",
    "AUDIT_HEADER",
    "threshold_sweep",
    "sweep_csv",
    "audit_corpus",
]

SWEEP_HEADER = "n,c,p,trial,target,found,stage,seconds"
AUDIT_HEADER = "graph_id,n,p,epsilon,weighted_sum,bound,holds"


@dataclass(frozen=True)
class SweepRow:
    """One finder run on one random hypergraph.

    p is the triple density c/sqrt(n) clamped to 1. stage is "done"
    when the finder produced a verified certificate, otherwise the
    stage it gave up in. seconds is 0.0 unless timing was requested
    (wall-clock noise would break reproducible output).
    """

    n: int
    c: float
    p: float
    trial: int
    target: str
    found: bool
    stage: str
    seconds: float


def _sweep_group(args) -> list[SweepRow]:
    """The rows of every c cell at one (n, trial), from one host draw.

    The host seed deliberately ignores c: at a fixed (n, trial) the random
    hypergraphs are then nested across the c grid (a triple kept at one
    density stays kept at every higher density), which keeps empirical
    found-rates monotone up to search noise. So the stream is drawn once,
    and the cells run from the densest host down, each host thinned from
    the one before.
    """
    target, n, cs, trial, seed, timing, params = args
    hseed = mix64(seed, n, trial)
    p_of = {c: min(1.0, c / sqrt(n)) for c in cs}
    rows = []
    for p, H in random_hypergraphs(n, p_of.values(), hseed):
        for c in cs:
            if p_of[c] != p:
                continue
            t0 = time.perf_counter() if timing else 0.0
            result = FINDERS[target](H, replace(params, seed=hseed))
            secs = time.perf_counter() - t0 if timing else 0.0
            found = isinstance(result, HomeomorphCertificate)
            stage = "done" if found else result.stage
            rows.append(SweepRow(n, c, p, trial, target, found, stage, secs))
        # keep one host alive at a time: the next is cut from the codes alone
        del H
    return rows


def threshold_sweep(target: str, n_values: Iterable[int],
                    c_values: Iterable[float], trials: int, seed: int, *,
                    params: SearchParams | None = None, jobs: int = 1,
                    timing: bool = False) -> list[SweepRow]:
    """Run a target finder over a (n, c) grid of random hypergraphs.

    Each cell draws `trials` independent hypergraphs at density
    c/sqrt(n) and records whether the finder succeeded. The hosts of one
    (n, trial) are nested in c and come from one draw, so the unit of work
    is the (n, trial) group of cells: with jobs > 1 groups run in worker
    processes. Rows come back sorted by (n, c, trial) regardless of
    execution order. Raises ValueError for an unknown target, trials < 1,
    jobs < 1, any n < 1 or any non-finite c.
    """
    if target not in FINDERS:
        raise ValueError(f"unknown sweep target {target!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    ns, cs = sorted(set(n_values)), sorted(set(c_values))
    if any(n < 1 for n in ns):
        raise ValueError("sweep vertex counts must be positive")
    if not all(isfinite(c) for c in cs):
        raise ValueError("sweep density coefficients must be finite")
    if params is None:
        params = SearchParams()
    tasks = [(target, n, cs, trial, seed, timing, params)
             for n in ns for trial in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            groups = list(ex.map(_sweep_group, tasks, chunksize=1))
    else:
        groups = [_sweep_group(t) for t in tasks]
    return sorted((row for rows in groups for row in rows),
                  key=lambda r: (r.n, r.c, r.trial))


def _fmt_float(x: float) -> str:
    return format(x, ".6g")


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join((
            str(r.n), _fmt_float(r.c), _fmt_float(r.p), str(r.trial),
            r.target, "true" if r.found else "false", r.stage,
            f"{r.seconds:.3f}",
        )))
    return "\n".join(lines) + "\n"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_WEIGHTED_LIMIT = 14


def _audit_row(gid: str, n: int, p: Fraction, eps: Fraction,
               w: WeightedAudit) -> str:
    return ",".join((gid, str(n), _frac_str(p), _frac_str(eps),
                     _frac_str(w.weighted_sum), _frac_str(w.bound),
                     "true" if w.holds else "false"))


def audit_corpus(graphs: Iterable[tuple[str, SkeletonGraph | None]],
                 grid: Iterable[tuple[object, object]] | None = None,
                 ) -> Iterator[str]:
    """Audit a corpus of graphs; yields CSV lines (header first).

    Every readable graph gets a structural row: the unweighted bound
    3n/2 for the sum of 1/deg(y) over inadmissible P2s, reported as the
    (p, epsilon) = (1, 1) edge of the general bound. Graphs with
    n <= 14 additionally get one weighted row per (p, epsilon) grid
    point, computed with exact rational arithmetic: each length-2 path
    is walked once and its probability evaluated at every grid p. A
    graph paired with None (e.g. an unreadable file) yields an error
    row. Raises ValueError unless every grid p and epsilon is in (0, 1];
    the grid is checked and grouped by p once per corpus, not per graph.
    """
    if grid is None:
        grid = ((Fraction(1, 2), Fraction(1, 10)),)
    by_p: dict[Fraction, list[Fraction]] = {}
    for p, e in grid:
        by_p.setdefault(unit_fraction(p, "p", zero=False), []).append(
            unit_fraction(e, "epsilon", zero=False))

    yield AUDIT_HEADER
    for gid, G in graphs:
        if G is None:
            yield f"{gid},,,,,,error"
            continue
        yield _audit_row(gid, G.n, Fraction(1), Fraction(1),
                         inadmissible_p2_audit(G))
        if G.n <= _WEIGHTED_LIMIT:
            for p, eps, w in _weighted_audits(G, by_p):
                yield _audit_row(gid, G.n, p, eps, w)
