"""Golden outputs: sha256 of certificate JSON, sweep and audit CSV at fixed seeds.

Refactors of the search, coverability and verifier code must keep these
bytes identical. A digest changes only when the output format or a
search rule (such as which path a gluing step picks) is changed on
purpose; update the digest in the same change and say why.
"""

import hashlib
import json
import random
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from diskcover import coverability, generators
from diskcover.certificates import SPHERE, serialize_certificate
from diskcover.complexes import TwoComplex, boundary, classify
from diskcover.coverability import (EXHAUSTIVE_SMALL, PYRAMID_ONLY,
                                    admissibility_probabilities,
                                    exact_disk_coverability)
from diskcover.experiments import audit_corpus, sweep_csv, threshold_sweep
from diskcover.generators import random_graph, random_hypergraph
from diskcover.hypergraph import complete_hypergraph
from diskcover.search import (SearchFailure, SearchParams,
                              find_k_t_homeomorph, find_projective_plane,
                              find_sphere, find_torus)
from diskcover.verify import verify_certificate
from test_complexes import MOBIUS, OCTA, PYRAMID4, RP2_6, TETRA, TORUS7

DESK = SearchParams(p=0.5, epsilon=0.1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("finder, n, params, digest", [
    (find_k_t_homeomorph, 12, SearchParams(t=3, p=0.5, epsilon=0.1),
     "695ed695bd56055e52bef9d0fbf340760ff154084bc23fb595861708632a0ed4"),
    (find_k_t_homeomorph, 30, SearchParams(t=4, p=0.5, epsilon=0.1),
     "2be72faedf9f295b72cc664118cbaeb4afe211396cb033de7273a2b7557a10c5"),
    (find_torus, 20, DESK,
     "62fd016647c8aac70291e6aa259b07daf9dbfda53c302d9f761c19b069270496"),
    (find_projective_plane, 15, DESK,
     "0c7b3f9463dcf91730d052998ec70dc159f3ffcd9d54ba0bfc4c257e52523e45"),
    (find_sphere, 8, DESK,
     "99a7039bce008174c2f079499ac504aa65405654f55034876f7e1ab5166a64fb"),
], ids=["ktt3-k12", "ktt4-k30", "torus-k20", "rp2-k15", "sphere-k8"])
def test_certificate_digest(finder, n, params, digest):
    cert = finder(complete_hypergraph(n), params)
    assert _sha(serialize_certificate(cert)) == digest


@pytest.mark.parametrize("n, q, digest", [
    (40, 0.25,
     "f94b37eba91af37e1e19069714a757708d4eb23350c98f412e526e468b36e35f"),
    (60, 0.2,
     "db97429ee50cf5c0c472d2054476b34934b245d9859c30a646001e16f4f9e6e9"),
], ids=["sphere-g40", "sphere-g60"])
def test_sparse_sphere_digest(n, q, digest):
    # on the sparse hosts the glued paths are longer than 2 edges (two of
    # 6 on g40, one of 2 and one of 8 on g60), which pins the least
    # shortest path rule beyond distance 2
    cert = find_sphere(random_hypergraph(n, q, 0), DESK)
    assert _sha(serialize_certificate(cert)) == digest


@pytest.mark.parametrize("finder, outcomes, digest", [
    (find_k_t_homeomorph, {"core-vertices": 6, "cert": 4, "glue": 2},
     "81fbbeacd6a67db1de151cb869c3fa2864afabf195ee40ca8c9b22a27bf7b640"),
    (find_torus, {"hub-selection": 5, "glue": 1, "cert": 6},
     "5f5f44f29b3df0e98207dc6c09027b02ba1d3446f8d85875796b5eaa10747087"),
    (find_projective_plane, {"hub-selection": 4, "glue": 2, "cert": 6},
     "a004415053d46536ca3123a47be1aca6a3d6e2435a6c911f3d3dee73c71baa2c"),
], ids=["ktt4", "torus", "rp2"])
def test_random_host_outcome_digest(finder, outcomes, digest):
    # every sampled link or apex pair of a complete host has the same edge
    # count, so only hosts like these pin how stage 1 ranks its candidates;
    # a failure is pinned as its record
    lines, kinds = [], Counter()
    for q in (0.35, 0.7):
        for seed in range(6):
            found = finder(random_hypergraph(40, q, seed),
                           replace(DESK, seed=seed))
            if isinstance(found, SearchFailure):
                kinds[found.stage] += 1
                lines.append(json.dumps(asdict(found)) + "\n")
            else:
                kinds["cert"] += 1
                lines.append(serialize_certificate(found))
    assert kinds == outcomes
    assert _sha("".join(lines)) == digest


@pytest.mark.parametrize("finder, H, params, digest", [
    (find_k_t_homeomorph, complete_hypergraph(12),
     SearchParams(t=3, p=0.5, epsilon=0.1),
     "d0e340b64d9fb655bfe8dd6b743df1cb6ec8827a184a07e9764c289e7c29a670"),
    (find_k_t_homeomorph, complete_hypergraph(30),
     SearchParams(t=4, p=0.5, epsilon=0.1),
     "5ce61774e5e419f1c6c1f74fb41b1fce8bd67e039e631788707c018e20324e60"),
    (find_torus, complete_hypergraph(20), DESK,
     "8d4e8ee9aada7a6591d8cf9a54cce81aac1a55d5c951b016cfd51835588149b7"),
    (find_projective_plane, complete_hypergraph(15), DESK,
     "e10a57f76a9c9d6c33186fb8f663bfa5b86db4861c5de61422b6176695f438fe"),
    (find_sphere, complete_hypergraph(8), DESK,
     "b2d3cfe91281574973cc8227a3404e771027275232b44cab086941a77a37dec5"),
    (find_sphere, random_hypergraph(40, 0.25, 0), DESK,
     "0d354fca098087eebbae03226fc0e3f18cfc57dbe702bdfaa3c2ddfaa74ba056"),
], ids=["ktt3-k12", "ktt4-k30", "torus-k20", "rp2-k15", "sphere-k8",
        "sphere-g40"])
def test_certificate_report_digest(finder, H, params, digest):
    # the document `find` writes: the certificate with its verifier report,
    # so a check's name or passing detail is pinned too
    cert = finder(H, params)
    report = verify_certificate(H, cert).as_dict()
    assert _sha(serialize_certificate(cert, report=report)) == digest


def test_sphere_sweep_digest():
    rows = threshold_sweep(SPHERE, [12, 20], [1.0, 4.0], trials=2, seed=4,
                           params=SearchParams(p=0.5, epsilon=0.1, trials=64))
    assert _sha(sweep_csv(rows)) == (
        "9384a2d8037fe407f5db9e6b9e4948a100395de87e713c4b33b79fd2a31bd524")


def test_sphere_threshold_sweep_digest():
    # default search params; its glue failures are settled both by the
    # gluer's edge-mask screen and after link rows are built
    rows = threshold_sweep(SPHERE, [100, 200], [0.5, 1, 2, 4], trials=2,
                           seed=0)
    assert _sha(sweep_csv(rows)) == (
        "285eb480edfa8ef780782b52fd6168524e5acf87e999106b3240e81ecef09a25")


@pytest.mark.parametrize("chunk", [None, 4099], ids=["default", "shrunk"])
def test_draw_digest(chunk, monkeypatch):
    # the codes and levels of the nested draw, recorded while the draw still
    # decoded each chunk by a search for its first-vertex block ends; n = 400
    # is drawn in two halves, and a chunk of 4099 words ends inside a Philox
    # block; grids of 4 and 1 levels, with and without p = 0 and p = 1
    if chunk:
        monkeypatch.setattr(generators, "_DRAW_CHUNK", chunk)
    digest = hashlib.sha256()
    for n in (3, 12, 60, 400):
        for grid in ((0.01, 0.05, 0.2, 0.4), (0.0, 0.1, 0.5, 1.0),
                     (0.3,), (0.0,), (1.0,)):
            codes, level = generators._draw(n, np.array(grid), n)
            digest.update(f"{n}|{grid}|{codes.dtype}|{level.dtype}|".encode())
            digest.update(codes.tobytes())
            digest.update(level.tobytes())
    assert digest.hexdigest() == (
        "f5ed43fa657c94a6089a5b29899cbfb1f5c43c58abc5ae03278b18b621868335")


def test_audit_corpus_digest():
    # the 3 x 3 (p, epsilon) grid plus a p whose denominator is not decimal
    graphs = [(f"g{n}-{q}", random_graph(n, q, seed=7 * n + int(10 * q)))
              for n, q in ((8, 0.3), (10, 0.35), (12, 0.3))]
    grid = [(Fraction(p, 10), Fraction(e, 10))
            for p in (3, 5, 8) for e in (1, 2, 5)]
    grid.append((Fraction(2, 7), Fraction(1, 3)))
    text = "\n".join(audit_corpus(graphs, grid)) + "\n"
    assert _sha(text) == (
        "4a3105363b0d032994ba9c8b46e70e5838aa52aa5c126674f553772c85a23818")


def test_admissibility_tables_digest():
    # exact values on graphs past the sizes the brute-force oracle covers;
    # recorded before the lattice walk's branching order changed
    lines = []
    for n, q, seed in ((14, 0.25, 1), (16, 0.4, 2)):
        G = random_graph(n, q, seed=seed)
        for p in (Fraction(3, 10), Fraction(1, 2)):
            table = admissibility_probabilities(G, p)
            for (x, y, z), prob in sorted(table.items()):
                lines.append(f"{n},{q},{seed},{p},{x},{y},{z},"
                             f"{prob.numerator}/{prob.denominator}")
    assert len(lines) == 562
    assert _sha("\n".join(lines) + "\n") == (
        "3c29434df3c524f0a490dc06c04910529f49bd0f784497ae387609f1d58cd91f")


def test_exact_coverability_digest():
    # recorded while the coverability walk still branched in ascending
    # vertex order: the order changes the walk, never the probability
    lines = []
    for n, q, seed in ((10, 0.7, 0), (12, 0.65, 1), (13, 0.6, 2)):
        H = random_hypergraph(n, q, seed)
        cycles = [c for c in combinations(range(n), 4)
                  if all(H.row(a)[b] for a, b in zip(c, c[1:] + c[:1]))]
        for cyc in cycles[:4]:
            for strategy in (PYRAMID_ONLY, EXHAUSTIVE_SMALL):
                for p in (Fraction(3, 10), Fraction(1, 2)):
                    prob = exact_disk_coverability(H, cyc, p, strategy)
                    lines.append(f"{n},{q},{seed},{','.join(map(str, cyc))},"
                                 f"{strategy},{p},"
                                 f"{prob.numerator}/{prob.denominator}")
    assert len(lines) == 48
    assert _sha("\n".join(lines) + "\n") == (
        "32948dcc054bcea7904f31092f9e0e03993ccccae639417346c4f95260eba1d8")


def test_disk_search_order_digest():
    # the first disk the exhaustive search finds, over 420 seeded (host,
    # cycle, interior mask, budget) cases on 8-60 vertices: 197 find one,
    # of 4, 6 or 8 triangles, so the order candidates are tried in is
    # pinned, not only whether a disk exists
    rng = random.Random(37)
    lines = []
    for n, q in ((8, 0.6), (10, 0.5), (12, 0.45), (16, 0.4), (24, 0.35),
                 (40, 0.3), (60, 0.3)):
        for seed in range(3):
            H = random_hypergraph(n, q, seed)
            for _ in range(20):
                cycle = tuple(rng.sample(range(n), 4))
                budget = rng.randint(1, 3)
                mask = ((1 << n) - 1 if rng.random() < 0.25
                        else rng.getrandbits(n))
                disk = coverability._DiskSearcher(H, cycle, budget).find(mask)
                tris = None if disk is None else sorted(disk.triangles)
                lines.append(f"{n},{q},{seed},{cycle},{budget},{mask:x} {tris}")
    assert sum(not line.endswith("None") for line in lines) == 197
    assert _sha("\n".join(lines) + "\n") == (
        "57daf893bfe84bad2ff0fb50cd85793873071a3a7b6cce9861df80c97170238d")


def test_classify_digest():
    # the dict `diskcover classify --format json` prints, and the boundary
    # cycle, of the fixture surfaces and of 4000 seeded random complexes
    # on 3-8 vertices with 1-14 triangles
    rng = random.Random(7)
    corpus = [TETRA, OCTA, RP2_6, TORUS7, MOBIUS, PYRAMID4]
    for _ in range(4000):
        n = rng.randint(3, 8)
        corpus.append([rng.sample(range(n), 3)
                       for _ in range(rng.randint(1, 14))])
    lines, kinds = [], Counter()
    for tris in corpus:
        X = TwoComplex(tris)
        c = classify(X)
        kinds[c.kind] += 1
        lines.append(f"{sorted(X.triangles)} {json.dumps(asdict(c))} "
                     f"{boundary(X).cycle}")
    assert kinds == {"Other": 2152, "Disk": 1492, "ClosedSurface": 350,
                     "SurfaceWithBoundary": 12}
    assert _sha("\n".join(lines) + "\n") == (
        "808257469d74b492eee9b380d6c6b0d2ffaae726e27ff64dab6d0cdb0a763785")
