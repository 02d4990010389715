"""The pattern Γ(t) used to glue a complete 3-uniform homeomorph.

For a target clique size t, Γ(t) has a vertex for every singleton i,
every pair {i, j}, and every triple {i, j, k} from {1..t}. Pair
vertices join their two singletons; triple vertices join their three
singletons. The result is bipartite, with the t singleton vertices
forming one side, and carries 3 * C(t, 3) special 4-cycles of the form
(v_i, v_ij, v_j, v_ijk): filling each with a disk produces a CW complex
realizing the complete 3-uniform hypergraph on t vertices. Every edge of
Γ(t) is a side of a special cycle, so the Pattern stores no edge set.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .certificates import Pattern

Role = tuple[int, ...]


def role_name(role: Role) -> str:
    """Stable string label for a pattern vertex, e.g. v0, v0.1, v0.1.2."""
    return "v" + ".".join(str(i) for i in role)


def roles(t: int) -> list[Role]:
    """The roles of Γ(t) in label order: singletons (i,), then pairs
    (i, j), then triples (i, j, k), each block in lexicographic order
    over 0-based ground elements."""
    if t < 3:
        raise ValueError("pattern graph needs t >= 3")
    return ([(i,) for i in range(t)] + list(combinations(range(t), 2))
            + list(combinations(range(t), 3)))


@cache
def gamma(t: int) -> Pattern:
    """Γ(t) on t + C(t,2) + C(t,3) labelled vertices with its special cycles,
    (v_i, v_ij, v_j, v_ijk) for each triple and each pair inside it."""
    rs = roles(t)
    index = {r: k for k, r in enumerate(rs)}
    cycles = tuple((index[(a,)], index[(a, b)], index[(b,)], index[tri])
                   for tri in combinations(range(t), 3)
                   for a, b in combinations(tri, 2))
    return Pattern(tuple(role_name(r) for r in rs), cycles)
