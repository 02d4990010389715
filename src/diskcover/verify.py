"""Independent certificate verification.

Re-checks a homeomorph certificate from first principles using only the
triples of H and the complex classifier; neither the search modules nor
the hypergraph's link rows are consulted. Checks run in a fixed order:

a. every disk triangle is an edge of H;
b. every disk classifies as a boundary-inducing disk whose boundary is
   exactly its assigned 4-cycle;
c. any two disks intersect exactly in the 1-complex shared by their
   boundary cycles (common vertices and common edges, no triangles),
   which forces pairwise disjoint interiors avoiding all cycles;
d. the target's pattern (Γ(t) for a complete-hypergraph target, the
   fixed recipe for a surface): the embedding maps exactly the pattern's
   labels, injectively; it carries every pattern edge into the skeleton
   (some triple of H holds both ends); the cycle list is the image of
   the pattern's special 4-cycles in order; and, for a surface, the
   union of all disks classifies as the pattern's closed surface by
   (Euler characteristic, orientability).

A malformed certificate (no disks, cycle and disk counts that differ or
miss the target's, a cycle with a repeated or out-of-range vertex, a
disk with no triangles) raises :class:`CertificateError` instead of
producing a failed report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .certificates import KTT, SURFACES, HomeomorphCertificate, Pattern
from .complexes import (CLOSED_SURFACE, TwoComplex, classify, cycle_edges,
                        disk_defect)
from .gamma import gamma
from .hypergraph import Hypergraph3


class CertificateError(ValueError):
    """Raised for structurally malformed certificates (not failed checks)."""


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
class VerificationReport:
    passed: bool
    checks: tuple[CheckResult, ...]
    target_confirmed: bool

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "target_confirmed": self.target_confirmed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check_triangles(H: Hypergraph3, cert) -> CheckResult:
    tris = [t for d in cert.disks for t in sorted(d.triangles)]
    found = H.has_triples(np.reshape(tris, (-1, 3)))
    stray = [t for t, ok in zip(tris, found) if not ok]
    if stray:
        return CheckResult(
            "disk-triangles-in-hypergraph", False,
            f"{len(stray)} disk triangle(s) not edges of H, first {stray[0]}")
    return CheckResult("disk-triangles-in-hypergraph", True,
                       f"all {sum(len(d) for d in cert.disks)} triangles present")


def _check_disks(cert, incidences) -> CheckResult:
    for i, (cyc, inc) in enumerate(zip(cert.cycles, incidences)):
        defect = disk_defect(cert.disks[i], cyc, inc)
        if defect is not None:
            return CheckResult("disks-bound-cycles", False, f"disk {i} {defect}")
    return CheckResult("disks-bound-cycles", True,
                       f"all {len(cert.disks)} disks boundary-inducing with "
                       "assigned boundaries")


def _check_intersections(cert, incidences) -> CheckResult:
    k = len(cert.disks)
    verts = [frozenset(c) for c in cert.cycles]
    edges = [cycle_edges(c) for c in cert.cycles]
    # every vertex of a disk lies on one of its edges
    disk_edges = [inc.keys() for inc in incidences]
    disk_verts = [{v for e in es for v in e} for es in disk_edges]
    for i in range(k):
        di = cert.disks[i]
        for j in range(i + 1, k):
            dj = cert.disks[j]
            if (di.triangles & dj.triangles
                    or disk_verts[i] & disk_verts[j] != verts[i] & verts[j]
                    or disk_edges[i] & disk_edges[j] != edges[i] & edges[j]):
                return CheckResult(
                    "pairwise-intersections", False,
                    f"disks {i},{j} intersect beyond their shared boundary")
    return CheckResult("pairwise-intersections", True,
                       f"all {k * (k - 1) // 2} disk pairs clean")


def _check_pattern(H: Hypergraph3, cert, pattern: Pattern) -> CheckResult:
    name = f"pattern-{cert.target}"
    labels = pattern.labels
    missing = [lab for lab in labels if lab not in cert.embedding]
    if missing:
        return CheckResult(name, False, "embedding misses pattern labels: "
                           f"{', '.join(missing[:4])}")
    if len(cert.embedding) != len(labels):
        return CheckResult(name, False, "embedding has labels outside the pattern")
    image = [cert.embedding[lab] for lab in labels]
    if len(set(image)) != len(image):
        return CheckResult(name, False, "embedding is not injective")
    # a pattern edge xy lies in the skeleton iff some triple xyw is in H:
    # one edges x n grid of triples, where w at an end, or an end outside
    # V(H), makes none
    edges = sorted(pattern.edges)
    x, y = np.array([(image[a], image[b]) for a, b in edges]).T[..., None]
    present = H.has_triples(
        np.stack(np.broadcast_arrays(x, y, np.arange(H.n)), axis=-1))
    for (a, b), covered in zip(edges, present.any(axis=1)):
        if not covered:
            return CheckResult(
                name, False,
                f"pattern edge {labels[a]}-{labels[b]} missing from skeleton")
    if cert.cycles != pattern.cycles_of(cert.embedding):
        return CheckResult(name, False,
                           "cycle list is not the image of the special 4-cycles")
    if pattern.surface is None:
        return CheckResult(
            name, True,
            f"injective embedding of {len(labels)} pattern vertices, "
            f"{len(cert.cycles)} special cycles matched")
    cls = classify(TwoComplex(t for d in cert.disks for t in d.triangles))
    want_euler, want_orient = pattern.surface
    if cls.kind != CLOSED_SURFACE:
        return CheckResult(name, False, f"disk union classifies as {cls.kind}")
    if cls.euler != want_euler or cls.orientable is not want_orient:
        return CheckResult(
            name, False,
            f"closed surface with euler {cls.euler}, orientable "
            f"{cls.orientable}; wanted {want_euler}, {want_orient}")
    return CheckResult(name, True,
                       f"closed surface, euler {cls.euler}, "
                       f"orientable {cls.orientable}")


def verify_certificate(H: Hypergraph3,
                       cert: HomeomorphCertificate) -> VerificationReport:
    """Re-verify a certificate against H; see module docstring for checks."""
    if len(cert.cycles) != len(cert.disks):
        raise CertificateError("cycle and disk counts differ")
    if not cert.disks:
        raise CertificateError("certificate carries no disks")
    if cert.target == KTT:
        # checked before gamma(t), which a hostile t would make huge
        expected = 3 * comb(cert.t, 3)
        if len(cert.cycles) != expected:
            raise CertificateError(
                f"ktt target t={cert.t} needs {expected} cycles, "
                f"got {len(cert.cycles)}")
    for c in cert.cycles:
        if len(set(c)) != 4:
            raise CertificateError(f"cycle {c} has repeated vertices")
        if any(not 0 <= v < H.n for v in c):
            raise CertificateError(f"cycle {c} leaves the vertex range")
    for i, d in enumerate(cert.disks):
        if not d.triangles:
            raise CertificateError(f"disk {i} has no triangles")

    pattern = gamma(cert.t) if cert.target == KTT else SURFACES[cert.target]
    incidences = [d.edge_incidence for d in cert.disks]
    checks = (_check_triangles(H, cert), _check_disks(cert, incidences),
              _check_intersections(cert, incidences),
              _check_pattern(H, cert, pattern))
    return VerificationReport(all(c.passed for c in checks), checks,
                              checks[-1].passed)
