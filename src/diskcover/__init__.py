"""Disk-coverability estimation and homeomorph search in 3-uniform hypergraphs.

The package splits into layers: :mod:`diskcover.hypergraph` and
:mod:`diskcover.complexes` hold the combinatorial core (skeletons,
links, surface classification), :mod:`diskcover.coverability` the
probabilistic estimators and exact rational oracles,
:mod:`diskcover.search` the randomized finders for K_t homeomorphs and
small closed surfaces, :mod:`diskcover.verify` the independent
certificate checker, and :mod:`diskcover.experiments` the sweep/audit
plumbing behind the CLI.
"""

from .complexes import (Boundary, Classification, TwoComplex, boundary,
                        classify, euler_characteristic,
                        is_boundary_inducing, orientability)
from .coverability import (CoverabilityEstimate, EstimatorParams, P2Audit,
                           PairStats, WeightedAudit,
                           admissibility_probabilities, as_fraction,
                           exact_admissibility, exact_disk_coverability,
                           find_boundary_inducing_disk,
                           inadmissible_p2_audit, pair_psi, pyramid_disk,
                           sample_admissibility, sample_disk_coverability,
                           triple_phi, weighted_inadmissibility_audit)
from .certificates import (CERT_VERSION, KTT, PROJECTIVE_PLANE, SPHERE,
                           TARGETS, TORUS, HomeomorphCertificate,
                           parse_certificate, serialize_certificate)
from .gamma import GammaGraph, gamma, role_name
from .generators import (clique_pendant_graph, random_graph,
                         random_graph_corpus, random_hypergraph)
from .hypergraph import (Hypergraph3, SkeletonGraph, codegree,
                         common_neighborhood, complete_hypergraph,
                         iter_p2s, link, link_intersection, skeleton)
from .search import (GlueFailure, SearchFailure, SearchParams, find_k_t_homeomorph,
                     find_projective_plane, find_sphere, find_torus,
                     glue_disks)
from .verify import CertificateError, CheckResult, VerificationReport, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "Boundary", "Classification", "TwoComplex", "boundary", "classify",
    "euler_characteristic", "is_boundary_inducing", "orientability",
    "CoverabilityEstimate", "EstimatorParams", "P2Audit", "PairStats",
    "WeightedAudit", "admissibility_probabilities", "as_fraction",
    "exact_admissibility", "exact_disk_coverability",
    "find_boundary_inducing_disk", "inadmissible_p2_audit", "pair_psi",
    "pyramid_disk", "sample_admissibility", "sample_disk_coverability",
    "triple_phi", "weighted_inadmissibility_audit",
    "CERT_VERSION", "KTT", "PROJECTIVE_PLANE", "SPHERE", "TARGETS", "TORUS",
    "HomeomorphCertificate", "parse_certificate", "serialize_certificate",
    "GammaGraph", "gamma", "role_name",
    "clique_pendant_graph", "random_graph", "random_graph_corpus",
    "random_hypergraph",
    "Hypergraph3", "SkeletonGraph", "codegree", "common_neighborhood",
    "complete_hypergraph", "iter_p2s", "link", "link_intersection",
    "skeleton",
    "GlueFailure", "SearchFailure", "SearchParams", "find_k_t_homeomorph",
    "find_projective_plane", "find_sphere", "find_torus", "glue_disks",
    "CertificateError", "CheckResult", "VerificationReport",
    "verify_certificate",
    "__version__",
]
