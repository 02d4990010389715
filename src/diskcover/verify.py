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
d. the target pattern: for a complete-hypergraph target the embedding
   must map exactly the pattern's labels injectively, carry the pattern
   edges into the skeleton (some triple of H holds both ends), and
   the cycle list must be the image of the pattern's special 4-cycles
   in order; for surface targets the embedding must map exactly the
   target's labels injectively into V(H), the cycles must be the recipe
   applied to it, and the union of all disks must classify as the right
   closed surface by (Euler characteristic, orientability).

A malformed certificate (wrong counts, missing embedding labels) raises
:class:`CertificateError` instead of producing a failed report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .certificates import (KTT, PROJECTIVE_PLANE, SPHERE, SURFACE_CYCLES, TORUS,
                           HomeomorphCertificate, surface_cycles)
from .complexes import (
    CLOSED_SURFACE,
    DISK,
    TwoComplex,
    _boundary_edges,
    _chord_free,
    classify,
)
from .gamma import gamma, role_name
from .hypergraph import Hypergraph3


class CertificateError(ValueError):
    """Raised for structurally malformed certificates (not failed checks)."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
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


_SURFACE_SIGNATURE = {
    TORUS: (0, True),
    PROJECTIVE_PLANE: (1, False),
    SPHERE: (2, True),
}


def _cycle_edge_set(cycle) -> frozenset[tuple[int, int]]:
    return frozenset(
        tuple(sorted((cycle[i], cycle[(i + 1) % 4]))) for i in range(4))


def _check_triangles(H: Hypergraph3, cert) -> CheckResult:
    tris = [t for d in cert.disks for t in sorted(d.triangles)]
    stray = [t for t, ok in zip(tris, H.has_triples(tris)) if not ok]
    if stray:
        return CheckResult(
            "disk-triangles-in-hypergraph", False,
            f"{len(stray)} disk triangle(s) not edges of H, first {stray[0]}")
    return CheckResult("disk-triangles-in-hypergraph", True,
                       f"all {sum(len(d) for d in cert.disks)} triangles present")


def _check_disks(cert) -> CheckResult:
    for i, (cyc, disk) in enumerate(zip(cert.cycles, cert.disks)):
        cls = classify(disk)
        if cls.kind != DISK:
            return CheckResult("disks-bound-cycles", False,
                               f"disk {i} classifies as {cls.kind}")
        incidence = disk.edge_incidence
        bd_edges = _boundary_edges(incidence)
        if bd_edges != _cycle_edge_set(cyc):
            return CheckResult("disks-bound-cycles", False,
                               f"disk {i} boundary differs from cycle {cyc}")
        if not _chord_free(disk, bd_edges, incidence):
            return CheckResult("disks-bound-cycles", False,
                               f"disk {i} is not boundary-inducing")
    return CheckResult("disks-bound-cycles", True,
                       f"all {len(cert.disks)} disks boundary-inducing with "
                       "assigned boundaries")


def _check_intersections(cert) -> CheckResult:
    k = len(cert.disks)
    verts = [frozenset(c) for c in cert.cycles]
    edges = [_cycle_edge_set(c) for c in cert.cycles]
    disk_verts = [d.vertices for d in cert.disks]
    disk_edges = [d.edges for d in cert.disks]
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


def _check_ktt_pattern(H: Hypergraph3, cert) -> CheckResult:
    name = "pattern-ktt"
    pattern = gamma(cert.t)
    labels = [role_name(r) for r in pattern.roles]
    missing = [lab for lab in labels if lab not in cert.embedding]
    if missing:
        raise CertificateError(
            f"embedding missing pattern labels: {', '.join(missing[:4])}")
    if set(cert.embedding) != set(labels):
        return CheckResult(name, False, "embedding has labels outside the pattern")
    image = [cert.embedding[lab] for lab in labels]
    if len(set(image)) != len(image):
        return CheckResult(name, False, "embedding is not injective")
    # a pattern edge xy lies in the skeleton iff some triple xyw is in H
    edges = sorted(pattern.edges)
    present = H.has_triples((image[a], image[b], w)
                            for a, b in edges for w in range(H.n))
    for (a, b), covered in zip(edges, present.reshape(len(edges), H.n).any(axis=1)):
        if not covered:
            return CheckResult(
                name, False,
                f"pattern edge {labels[a]}-{labels[b]} missing from skeleton")
    expected_cycles = tuple(
        (image[a], image[b], image[c], image[d])
        for a, b, c, d in pattern.special_cycles)
    if cert.cycles != expected_cycles:
        return CheckResult(name, False,
                           "cycle list is not the image of the special 4-cycles")
    return CheckResult(
        name, True,
        f"injective embedding of {len(labels)} pattern vertices, "
        f"{len(expected_cycles)} special cycles matched")


def _check_surface(H: Hypergraph3, cert) -> CheckResult:
    name = f"pattern-{cert.target}"
    labels = {lab for quad in SURFACE_CYCLES[cert.target] for lab in quad.split()}
    image = set(cert.embedding.values())
    if (set(cert.embedding) != labels or len(image) != len(labels)
            or not image <= set(H.vertices)
            or cert.cycles != surface_cycles(cert.target, cert.embedding)):
        return CheckResult(name, False, "cycles are not the recipe applied to "
                           f"an injective map of {', '.join(sorted(labels))} into V(H)")
    union = TwoComplex(t for d in cert.disks for t in d.triangles)
    cls = classify(union)
    want_euler, want_orient = _SURFACE_SIGNATURE[cert.target]
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

    checks = [_check_triangles(H, cert), _check_disks(cert),
              _check_intersections(cert)]
    if cert.target == KTT:
        pattern_check = _check_ktt_pattern(H, cert)
    else:
        pattern_check = _check_surface(H, cert)
    checks.append(pattern_check)
    passed = all(c.passed for c in checks)
    return VerificationReport(passed, tuple(checks), pattern_check.passed)
