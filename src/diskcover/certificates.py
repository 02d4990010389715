"""Homeomorph certificates and their stable JSON serialization.

A certificate is the full witness a search emits: which pattern was
targeted, where each pattern vertex landed, the boundary 4-cycles, and
one disk (triangle list) per cycle, plus the seed and retry count that
produced it. It carries everything an independent verifier needs; no
search state is referenced. What a target's embedding and cycles must
be is one Pattern record: `SURFACES` holds the surfaces', and
`gamma.gamma(t)` builds K_t's.

The JSON document is versioned ("cert_version": 1). Triangles and
cycles are stored as vertex-id lists; the embedding maps pattern labels
(strings) to vertex ids. A finder's verifier report rides along, and
may be written under "report", which parsing ignores. Parsing checks
every field's type, so malformed input raises only ValueError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from .complexes import TwoComplex, cycle_edges

if TYPE_CHECKING:  # verify imports this module
    from .verify import VerificationReport

KTT = "ktt"
TORUS = "torus"
PROJECTIVE_PLANE = "rp2"
SPHERE = "sphere"

CERT_VERSION = 1


@dataclass(frozen=True)
class Pattern:
    """What a target's certificate must realize.

    labels names the pattern vertices the embedding maps; cycles lists
    the special 4-cycles, in certificate order, as quads of label
    indices; surface is the (Euler characteristic, orientable) pair the
    union of all disks must classify as, or None when the union is not
    checked as a surface.
    """

    labels: tuple[str, ...]
    cycles: tuple[tuple[int, int, int, int], ...]
    surface: tuple[int, bool] | None = None

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The sides of the special cycles, as sorted label-index pairs."""
        return frozenset().union(*map(cycle_edges, self.cycles))

    def cycles_of(self, embedding: Mapping[str, int]):
        """The special cycles' image under an embedding, in order."""
        image = [embedding[lab] for lab in self.labels]
        return tuple(tuple(image[i] for i in c) for c in self.cycles)


def _surface(quads: tuple[str, ...], euler: int, orientable: bool) -> Pattern:
    labels = tuple(sorted({lab for quad in quads for lab in quad.split()}))
    return Pattern(labels,
                   tuple(tuple(labels.index(lab) for lab in quad.split())
                         for quad in quads),
                   (euler, orientable))


# The surface targets' boundary 4-cycles over their embedding labels, in
# order; the projective plane's six quads share each of their 12 edges twice.
SURFACES = {
    TORUS: _surface(("u' w1 v w5", "u w1 u' w2", "u' w2 v w3", "u w3 v w5",
                     "u w3 u' w4", "u w1 v w4", "u w5 u' w6", "u' w4 v w6",
                     "u w2 v w6"), 0, True),
    PROJECTIVE_PLANE: _surface(("u w1 v w3", "u' w2 v w3", "u w3 u' w4",
                                "u w1 u' w2", "u w2 v w4", "u' w1 v w4"),
                               1, False),
    SPHERE: _surface(("a b c d", "a b c d"), 2, True),
}

TARGETS = (KTT, *SURFACES)


@dataclass(frozen=True)
class HomeomorphCertificate:
    target: str
    t: int | None
    embedding: Mapping[str, int]
    cycles: tuple[tuple[int, int, int, int], ...]
    disks: tuple[TwoComplex, ...]
    seed: int
    retries: int
    # a finder's passing report, so its caller need not verify again
    report: VerificationReport | None = field(default=None, compare=False)

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


def _typed(x, kind: type, what: str):
    if not isinstance(x, kind) or isinstance(x, bool):
        raise ValueError(f"{what} must be of type {kind.__name__}, got {x!r}")
    return x


def _vertices(x, size: int, what: str) -> tuple[int, ...]:
    if len(_typed(x, list, what)) != size:
        raise ValueError(f"{what} {x!r} does not have {size} vertices")
    return tuple(_typed(v, int, what) for v in x)


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
    t = doc.get("t")
    embedding = {k: _typed(v, int, f"embedding value of {k!r}")
                 for k, v in _typed(doc["embedding"], dict, "embedding").items()}
    disks = tuple(
        TwoComplex(_vertices(tri, 3, "triangle") for tri in _typed(d, list, "disk"))
        for d in _typed(doc["disks"], list, "disks"))
    return HomeomorphCertificate(
        target=_typed(doc["target"], str, "target"),
        t=None if t is None else _typed(t, int, "t"),
        embedding=embedding,
        cycles=tuple(_vertices(c, 4, "cycle")
                     for c in _typed(doc["cycles"], list, "cycles")),
        disks=disks,
        seed=_typed(doc["seed"], int, "seed"),
        retries=_typed(doc["retries"], int, "retries"),
    )
