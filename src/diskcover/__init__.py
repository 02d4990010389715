"""Disk-coverability estimation and homeomorph search in 3-uniform hypergraphs.

The package splits into layers: :mod:`diskcover.hypergraph` and
:mod:`diskcover.complexes` hold the combinatorial core (skeletons,
links, surface classification), :mod:`diskcover.coverability` the
probabilistic estimators and exact rational oracles,
:mod:`diskcover.search` the randomized finders for K_t homeomorphs and
small closed surfaces, :mod:`diskcover.verify` the independent
certificate checker, and :mod:`diskcover.experiments` the sweep/audit
plumbing behind the CLI. Callers import from those submodules, as in
``from diskcover.search import find_torus``.
"""

__version__ = "0.1.0"
