"""The four benchmark workloads.

Each workload builds its inputs from the run seed, hands the program only
those inputs through the public API, and checks every output. Ops run in
rounds; a run repeats whole rounds until its time is up, so every run
covers the same mix. Functions are looked up on their modules at call
time, so that a traced run reaches the tracer's wrappers.

Why these four (see README.md for the layer table):

* ktt_complete - one fixed dense host, queried many times; runs every
  stage of the K_t finder and the verifier.
* psi_random - the Monte Carlo estimator on a host where the path event
  really misses, so the bitmask path search does work.
* sphere_sweep - build-heavy: every cell draws a fresh host (up to 2.1 M
  triples) and queries it a few times. Sets the memory peak.
* audit_exact - exact lattice walks in Fraction arithmetic; no
  hypergraph, search or verify code runs, so it is the control for
  hypergraph-core changes.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import diskcover.certificates as certificates
import diskcover.coverability as coverability
import diskcover.experiments as experiments
import diskcover.generators as generators
import diskcover.hypergraph as hypergraph
import diskcover.search as search
import diskcover.verify as verify


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + parts)))


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int):
        """Build the run's fixed inputs; timed as setup_s."""
        raise NotImplementedError

    def round(self, state, seed: int, r: int) -> list:
        """The inputs of round r (built outside the op timer)."""
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def digest(self, op, out) -> str:
        raise NotImplementedError

    def check(self, state, op, out) -> str | None:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def found(self, out) -> tuple[int, int] | None:
        """(certificates found, finder calls) in one output, or None for a
        workload that runs no finder."""
        return None


class KttComplete(Workload):
    name = "ktt_complete"
    why = ("K_4 pattern finder on the fixed dense host K_30 over "
           "consecutive seeds: query-heavy, every search stage and verify")

    def setup(self, seed):
        return hypergraph.complete_hypergraph(30)

    def round(self, state, seed, r):
        return [seed * 1_000_000 + r]

    def run(self, H, finder_seed):
        params = search.SearchParams(t=4, p=0.5, epsilon=0.1,
                                     max_retries=10, seed=finder_seed)
        return search.find_k_t_homeomorph(H, params)

    def digest(self, op, out):
        if isinstance(out, certificates.HomeomorphCertificate):
            return short_hash(certificates.serialize_certificate(out))
        return short_hash(f"{out.stage}|{out.retries}|{out.detail}")

    def check(self, H, op, out):
        if not isinstance(out, certificates.HomeomorphCertificate):
            return None if out.target == certificates.KTT else "wrong target"
        text = certificates.serialize_certificate(out)
        again = certificates.parse_certificate(text)
        if certificates.serialize_certificate(again) != text:
            return "certificate does not survive a JSON round trip"
        if out.seed != op or len(out.disks) != 12:
            return "certificate seed or disk count is wrong"
        if not verify.verify_certificate(H, again).passed:
            return "re-verification failed"
        return None

    def found(self, out):
        return isinstance(out, certificates.HomeomorphCertificate), 1


class PsiRandom(Workload):
    name = "psi_random"
    why = ("pair_psi with 64 trials on G(48, 0.3): Monte Carlo estimator "
           "where the path event misses, so path search does real work")

    # n = 48 rather than 60: an op then takes about 2 s instead of 6 s,
    # so a run holds enough ops for a steady median.
    def setup(self, seed):
        H = generators.random_hypergraph(48, 0.3, seed=seed)
        G = hypergraph.skeleton(H)
        pairs = list(combinations(range(48), 2))
        _rng(self.name, seed).shuffle(pairs)
        est = coverability.EstimatorParams(p=0.5, epsilon=0.1, trials=64,
                                           seed=seed)
        return H, G, pairs, est

    def round(self, state, seed, r):
        pairs = state[2]
        return [pairs[r % len(pairs)]]

    def run(self, state, pair):
        H, G, _, est = state
        return coverability.pair_psi(H, G, pair[0], pair[1], est)

    def digest(self, op, out):
        return f"{out.xi},{out.codeg}"

    def check(self, state, pair, out):
        G = state[1]
        v, vp = pair
        codeg = sum(1 for w in G.vertices if w not in pair
                    and G.has_edge(v, w) and G.has_edge(vp, w))
        if out.codeg != codeg:
            return f"codegree {out.codeg}, expected {codeg}"
        if not 0 <= out.xi <= comb(codeg, 2):
            return f"xi {out.xi} outside [0, C({codeg}, 2)]"
        if out.psi != (Fraction(out.xi, codeg) if codeg else 0):
            return "psi is not xi/codeg"
        return None


_SPHERE_N = (100, 200, 400)
_SPHERE_C = (0.5, 1.0, 2.0, 4.0)
_SPHERE_STAGES = {"done", "cycle-selection", "glue", "verify"}


class SphereSweep(Workload):
    name = "sphere_sweep"
    why = ("sphere threshold sweep, n 100-400 and c 0.5-4: build-heavy, a "
           "fresh host of up to 2.1 M triples per cell; sets peak memory")

    # One op is one whole sweep of the grid. Cells range from 0.06 s to
    # 6 s and the middle ones flip between found and failed with the
    # seed, so a per-cell median would move with the seed, not the code.
    def setup(self, seed):
        # no fixed inputs: warm the generator and skeleton path on one
        # n=100 host outside the grid
        H = generators.random_hypergraph(100, 0.2, seed=seed)
        hypergraph.skeleton(H)
        return search.SearchParams(p=0.5, epsilon=0.1)

    def round(self, params, seed, r):
        return [seed * 1000 + r]

    def run(self, params, sweep_seed):
        return experiments.threshold_sweep(
            certificates.SPHERE, _SPHERE_N, _SPHERE_C, 1, sweep_seed,
            params=params, jobs=1)

    def digest(self, sweep_seed, rows):
        return short_hash(experiments.sweep_csv(rows))

    def check(self, params, sweep_seed, rows):
        cells = [(n, c) for n in _SPHERE_N for c in _SPHERE_C]
        if [(row.n, row.c) for row in rows] != cells:
            return "rows do not cover the grid in order"
        for row in rows:
            if row.trial != 0 or row.target != certificates.SPHERE:
                return "row does not describe its cell"
            if row.p != min(1.0, row.c / sqrt(row.n)):
                return "row density is not min(1, c/sqrt(n))"
            if (row.found != (row.stage == "done")
                    or row.stage not in _SPHERE_STAGES):
                return f"inconsistent outcome {row.found}/{row.stage}"
            if row.seconds != 0.0:
                return "timing leaked into the row"
        return None

    def found(self, rows):
        return sum(row.found for row in rows), len(rows)


_AUDIT_GRID = [(Fraction(p, 10), Fraction(e, 5)) for p in (3, 5, 7)
               for e in (1, 2, 3)]
_AUDIT_N = range(8, 12)
_AUDIT_Q = (0.25, 0.4)


def _structural_sum(G) -> Fraction:
    """Independent p = 1 audit: sum of 1/deg(y) over length-2 paths x y z
    whose ends have no other path of length >= 2 avoiding y."""
    total = Fraction(0)
    for y in G.vertices:
        ns = sorted(G.adj[y])
        for x, z in combinations(ns, 2):
            seen, todo = {x}, [x]
            while todo:
                a = todo.pop()
                for b in G.adj[a]:
                    if b == y or b in seen or {a, b} == {x, z}:
                        continue
                    seen.add(b)
                    todo.append(b)
            if z not in seen:
                total += Fraction(1, len(ns))
    return total


class AuditExact(Workload):
    name = "audit_exact"
    why = ("exact weighted audits of G(n, q), n 8-11, on a 3 x 3 (p, eps) "
           "grid: Fraction lattice walks; control with no hypergraph code")

    # One op is one stratified batch: a graph for every (n, q). Single
    # graphs range from 1 ms to 2 s and grow steeply with n, so a
    # per-graph median, or a run holding only a few large graphs, would
    # move with the seed's draw more than with the code.
    def setup(self, seed):
        return self.round(None, seed, 0)

    def round(self, state, seed, r):
        rnd = _rng(self.name, seed, r)
        batch = [(f"r{r}-n{n}-q{q}",
                  generators.random_graph(n, q, seed=rnd.getrandbits(62)))
                 for n in _AUDIT_N for q in _AUDIT_Q]
        return [batch]

    def run(self, state, batch):
        return list(experiments.audit_corpus(batch, _AUDIT_GRID))[1:]

    def digest(self, batch, lines):
        return short_hash("\n".join(lines))

    def check(self, state, batch, lines):
        rows = [line.split(",") for line in lines]
        per_graph = 1 + len(_AUDIT_GRID)
        if len(rows) != per_graph * len(batch):
            return f"{len(rows)} rows for {len(batch)} graphs"
        for k, (gid, G) in enumerate(batch):
            msg = _check_audit_rows(
                gid, G, rows[k * per_graph:(k + 1) * per_graph])
            if msg is not None:
                return f"{gid}: {msg}"
        return None


def _check_audit_rows(gid, G, rows) -> str | None:
    sums = {}
    for row_gid, n, p, eps, wsum, bound, holds in rows:
        p, eps = Fraction(p), Fraction(eps)
        wsum, bound = Fraction(wsum), Fraction(bound)
        if row_gid != gid or int(n) != G.n:
            return "row does not describe its graph"
        if bound != Fraction(3 * G.n) / (2 * p * p * eps):
            return "bound is not 3n/(2 p^2 eps)"
        if (holds == "true") != (wsum < bound):
            return "holds flag disagrees with the sums"
        sums[(p, eps)] = wsum
    structural = sums.pop((Fraction(1), Fraction(1)), None)
    if structural != _structural_sum(G):
        return "structural sum differs from the independent count"
    for (p, eps), wsum in sums.items():
        # every p = 1 inadmissible path stays inadmissible, and the count
        # can only fall as p or eps grows
        if wsum < structural:
            return "weighted sum below the structural sum"
        for (p2, eps2), w2 in sums.items():
            if p2 >= p and eps2 >= eps and w2 > wsum:
                return "weighted sums are not monotone in (p, eps)"
    return None


WORKLOADS = {w.name: w for w in (KttComplete(), PsiRandom(), SphereSweep(),
                                 AuditExact())}
