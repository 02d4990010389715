"""Homeomorph certificates and their stable JSON serialization.

A certificate is the full witness a search emits: which pattern was
targeted, where each pattern vertex landed, the boundary 4-cycles, and
one disk (triangle list) per cycle, plus the seed and retry count that
produced it. It carries everything an independent verifier needs; no
search state is referenced.

The JSON document is versioned ("cert_version": 1). Triangles and
cycles are stored as vertex-id lists; the embedding maps pattern labels
(strings) to vertex ids. A verifier report may ride along under
"report" but is ignored when parsing back to a certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .complexes import TwoComplex

KTT = "ktt"
TORUS = "torus"
PROJECTIVE_PLANE = "rp2"
SPHERE = "sphere"

TARGETS = (KTT, TORUS, PROJECTIVE_PLANE, SPHERE)

CERT_VERSION = 1


@dataclass(frozen=True)
class HomeomorphCertificate:
    target: str
    t: int | None
    embedding: Mapping[str, int]
    cycles: tuple[tuple[int, int, int, int], ...]
    disks: tuple[TwoComplex, ...]
    seed: int
    retries: int

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.target == KTT and (self.t is None or self.t < 3):
            raise ValueError("ktt certificates need t >= 3")
        if len(self.cycles) != len(self.disks):
            raise ValueError("one disk per cycle required")


def serialize_certificate(cert: HomeomorphCertificate,
                          report: dict | None = None) -> str:
    doc = {
        "cert_version": CERT_VERSION,
        "target": cert.target,
        "t": cert.t,
        "embedding": {k: cert.embedding[k] for k in sorted(cert.embedding)},
        "cycles": [list(c) for c in cert.cycles],
        "disks": [sorted(list(t) for t in d.triangles) for d in cert.disks],
        "seed": cert.seed,
        "retries": cert.retries,
    }
    if report is not None:
        doc["report"] = report
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def parse_certificate(text: str) -> HomeomorphCertificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    version = doc.get("cert_version")
    if version != CERT_VERSION:
        raise ValueError(f"unsupported cert_version {version!r}")
    missing = [k for k in ("target", "embedding", "cycles", "disks",
                           "seed", "retries") if k not in doc]
    if missing:
        raise ValueError(f"certificate missing fields: {', '.join(missing)}")
    cycles = []
    for c in doc["cycles"]:
        if len(c) != 4:
            raise ValueError(f"cycle {c!r} does not have four vertices")
        cycles.append(tuple(int(x) for x in c))
    disks = tuple(TwoComplex(d) for d in doc["disks"])
    embedding = {str(k): int(v) for k, v in doc["embedding"].items()}
    return HomeomorphCertificate(
        target=doc["target"],
        t=doc.get("t"),
        embedding=embedding,
        cycles=tuple(cycles),
        disks=disks,
        seed=int(doc["seed"]),
        retries=int(doc["retries"]),
    )
