"""Brute-force oracles for the test suite.

Everything here is implemented directly from the definitions, sharing no
code with the library: subset enumeration for probabilities, DFS path
enumeration for pyramid events, 2^F orientation search, and so on. The
exceptions are the trial decoder, which reads the library's Philox
stream through numpy's own float draws, `lexicographic_disks`, which
checks each triangle set with the library's `classify`, and
`cycle_hits` and `count_uncoverable`, the references for the lane pass,
which count each cycle's trial masks alone with the per-mask test of
the library's exact walks (`_holds`), not with the lane pass, and
`glue_disks_rows_first`, the reference for the gluer's edge-mask screen,
which builds every link row first and finds paths with the library's
`least_path`.
Slow on purpose; only run on small instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from diskcover.complexes import DISK, TwoComplex, classify
from diskcover import search
from diskcover.coverability import (_STREAM_COVER, _check_four_vertices,
                                    _coverability_event, _holds, _least_hits,
                                    least_path, pyramid_disk)
from diskcover.hypergraph import link_intersection
from diskcover.rng import generator, trial_masks


def subsets(pool):
    pool = list(pool)
    for r in range(len(pool) + 1):
        yield from (frozenset(c) for c in combinations(pool, r))


def _adj_from_pairs(pairs):
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def reachable(pairs, src, dst, allowed):
    """BFS connectivity over the given edge pairs restricted to `allowed`."""
    adj = _adj_from_pairs(pairs)
    seen = {src}
    queue = [src]
    while queue:
        x = queue.pop()
        if x == dst:
            return True
        for y in adj.get(x, ()):
            if y in allowed and y not in seen:
                seen.add(y)
                queue.append(y)
    return dst in seen


def admissibility_event(edge_pairs, w, u, wp, U):
    """Does some w..wp path of length >= 2 avoid u with interior in U?"""
    pairs = [e for e in edge_pairs
             if u not in e and set(e) != {w, wp}]
    allowed = (set(U) | {w, wp}) - {u}
    return reachable(pairs, w, wp, allowed)


def exact_admissibility(G_edges, n, w, u, wp, p) -> Fraction:
    """Literal enumeration over all U subsets of V minus {u}."""
    p = Fraction(p)
    total = Fraction(0)
    others = [v for v in range(n) if v != u]
    for U in subsets(others):
        if admissibility_event(G_edges, w, u, wp, U):
            total += p ** len(U) * (1 - p) ** (len(others) - len(U))
    return total


def _li_pairs(triples, v, vp):
    """Edge pairs of the link intersection, straight from the definition."""
    ts = {frozenset(t) for t in triples}
    verts = {x for t in triples for x in t} - {v, vp}
    out = []
    for w, wp in combinations(sorted(verts), 2):
        if frozenset((v, w, wp)) in ts and frozenset((vp, w, wp)) in ts:
            out.append((w, wp))
    return out


def skeleton_pairs(triples):
    """Pairs (a, b), a < b, lying in some triple."""
    return {pair for t in triples for pair in combinations(sorted(t), 2)}


def link_pairs(triples, u):
    """Pairs (w, w'), w < w', such that u w w' is a triple."""
    return {tuple(sorted(set(t) - {u})) for t in triples if u in t}


def link_row(triples, u, n):
    """Entry w is the sum of 2^w' over the w' with {u, w, w'} a triple."""
    ts = {frozenset(t) for t in triples}
    return tuple(sum(1 << y for y in range(n) if frozenset((u, w, y)) in ts)
                 for w in range(n))


def simple_paths(pairs, src, dst, allowed_interior):
    """Yield simple src..dst paths of length >= 2 (vertex tuples) by DFS."""
    adj = _adj_from_pairs(pairs)
    stack = [(src, (src,))]
    while stack:
        x, path = stack.pop()
        for y in adj.get(x, ()):
            if y in path:
                continue
            if y == dst:
                if len(path) >= 2:
                    yield path + (dst,)
                continue
            if y in allowed_interior:
                stack.append((y, path + (y,)))


def _simple_paths_interior_in(pairs, src, dst, allowed_interior):
    """Yield interiors of simple src..dst paths of length >= 2 by DFS."""
    for path in simple_paths(pairs, src, dst, allowed_interior):
        yield frozenset(path[1:-1])


def pyramid_event(triples, cycle, U) -> bool:
    """Is some pyramid disk over `cycle` available with interior inside U?"""
    a, b, c, d = cycle
    for (v, vp, w, wp) in ((a, c, b, d), (b, d, a, c)):
        pairs = _li_pairs(triples, v, vp)
        allowed = set(U) - set(cycle)
        for interior in _simple_paths_interior_in(pairs, w, wp, allowed):
            return True
    return False


def exact_pyramid_coverability(triples, n, cycle, p) -> Fraction:
    p = Fraction(p)
    return sum((p ** len(U) * (1 - p) ** (n - len(U))
                for U in coverable_sets(triples, n, cycle)), Fraction(0))


def coverable_sets(triples, n, cycle, max_interior=0):
    """Every U of range(n), as a frozenset, that holds the interior of a
    pyramid over the 4-cycle or of a boundary-inducing disk with boundary
    the cycle and at most max_interior interior vertices."""
    interiors = {frozenset(v for t in disk for v in t) - set(cycle)
                 for disk in lexicographic_disks(triples, cycle, range(n),
                                                 max_interior)}
    return [U for U in subsets(range(n))
            if pyramid_event(triples, cycle, U)
            or any(inner <= U for inner in interiors)]


def p2_inadmissible(G_edges, x, y, z) -> bool:
    """No cycle of length >= 4 through x-y-z: x, z separated in (G-y)-xz."""
    pairs = [e for e in G_edges if y not in e and set(e) != {x, z}]
    verts = {v for e in G_edges for v in e} - {y}
    return not reachable(pairs, x, z, verts)


def unweighted_audit_sum(G_edges, n) -> Fraction:
    adj = _adj_from_pairs(G_edges)
    total = Fraction(0)
    for y in range(n):
        nbrs = sorted(adj.get(y, ()))
        for x, z in combinations(nbrs, 2):
            if p2_inadmissible(G_edges, x, y, z):
                total += Fraction(1, len(nbrs))
    return total


def orientable_by_enumeration(triangles) -> bool:
    """Try all 2^F orientation choices; true iff some choice is coherent."""
    tris = [tuple(t) for t in triangles]
    f = len(tris)
    for bits in range(1 << f):
        ok = True
        seen = {}
        for i, t in enumerate(tris):
            a, b, c = t
            cyc = (a, b, c) if not (bits >> i) & 1 else (a, c, b)
            for k in range(3):
                e = (cyc[k], cyc[(k + 1) % 3])
                key = frozenset(e)
                if key in seen:
                    if seen[key] == e:
                        ok = False
                        break
                else:
                    seen[key] = e
            if not ok:
                break
        if ok:
            return True
    return False


def complex_vertices(triangles):
    """The vertices of a 2-complex: every vertex of some triangle."""
    return {v for t in triangles for v in t}


def complex_edges(triangles):
    """The edges of a 2-complex: every vertex pair of some triangle, as
    sorted tuples."""
    return {e for t in triangles for e in combinations(sorted(t), 2)}


def surface_conditions(triangles):
    """Independent re-check of the surface conditions; returns a dict."""
    tris = [frozenset(t) for t in triangles]
    verts = sorted({v for t in tris for v in t})
    inc = {}
    for t in tris:
        for e in combinations(sorted(t), 2):
            inc[e] = inc.get(e, 0) + 1
    edges = sorted(inc)

    def link_ok(v):
        # multigraph of opposite edges; single path or cycle iff connected
        # with every degree <= 2 and 0 or 2 odd-degree vertices
        opp = [tuple(sorted(t - {v})) for t in tris if v in t]
        if not opp:
            return False
        deg = {}
        for a, b in opp:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if any(d > 2 for d in deg.values()):
            return False
        seen = set()
        stack = [opp[0][0]]
        adj = _adj_from_pairs(opp)
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        if len(seen) != len(deg):
            return False
        odd = sum(1 for d in deg.values() if d == 1)
        return odd in (0, 2)

    connected = bool(tris)
    if tris:
        seen = set()
        stack = [next(iter(tris[0]))]
        adj = _adj_from_pairs(edges)
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        connected = len(seen) == len(verts)

    # components of the boundary graph, one DFS from each unseen end
    boundary_edges = [e for e in edges if inc[e] == 1]
    bd_adj = _adj_from_pairs(boundary_edges)
    bd_seen, boundary_components = set(), 0
    for start in bd_adj:
        if start in bd_seen:
            continue
        boundary_components += 1
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in bd_seen:
                bd_seen.add(x)
                stack.extend(bd_adj[x])
    return {
        "euler": len(verts) - len(edges) + len(tris),
        "connected": connected,
        "max_incidence": max(inc.values(), default=0),
        "boundary_edges": boundary_edges,
        "boundary_components": boundary_components,
        "links_ok": all(link_ok(v) for v in verts),
    }


def random_triples(draw_floats, n, p):
    """The binomial 3-graph as first defined: one draw of C(n, 3) floats from
    draw_floats(k), zipped with the triples in combinations order; a triple
    is kept when its float is below p. p = 0 draws nothing."""
    if p == 0:
        return []
    draws = draw_floats(comb(n, 3))
    return [t for t, x in zip(combinations(range(n), 3), draws) if x < p]


def random_pairs(draw_floats, n, p):
    """The binomial graph as first defined: one draw of C(n, 2) floats from
    draw_floats(k), zipped with the pairs in combinations order; a pair is
    kept when its float is below p. p = 0 draws nothing."""
    if p == 0:
        return []
    draws = draw_floats(comb(n, 2))
    return [e for e, x in zip(combinations(range(n), 2), draws) if x < p]


def lexicographic_disks(triples, cycle, allowed, max_interior):
    """Every boundary-inducing disk made of triples, with boundary the 4-cycle
    and at most max_interior interior vertices, all in `allowed`, as
    frozensets of triangles.

    A triangulated disk with s interior vertices and a 4-cycle boundary
    has 2s + 2 triangles, and a triangle holding an opposite pair of the
    cycle would put a chord into the disk. So for each interior set I it
    tries every 2|I| + 2 of the chord-free triangles over the cycle plus
    I, chosen in lexicographic order by backtracking. A partial
    set is dropped once a cycle edge lies in two of its triangles or any
    edge in three, or once an edge it must still cover (a cycle edge in
    none of its triangles, another edge in one) lies in no later
    candidate. A full set is kept when its edges in one triangle are the
    cycle's and `classify` calls it a disk. Unlike the library's disk
    search, no set is grown across an open edge.
    """
    a, b, c, d = cycle
    ring = frozenset(tuple(sorted(e)) for e in ((a, b), (b, c), (c, d), (d, a)))
    pool = sorted(set(allowed) - set(cycle))
    for r in range(max_interior + 1):
        for S in combinations(pool, r):
            verts = set(cycle) | set(S)
            cands = sorted(tuple(sorted(t)) for t in triples
                           if set(t) <= verts
                           and not {a, c} <= set(t) and not {b, d} <= set(t))
            yield from _lexicographic_sets(cands, 2 * r + 2, ring)


def _lexicographic_sets(cands, size, ring):
    """The size-subsets of cands, a sorted list, that `lexicographic_disks`
    keeps."""
    last = {e: i for i, t in enumerate(cands) for e in combinations(t, 2)}
    if not ring <= last.keys():
        return
    count = dict.fromkeys(last, 0)
    chosen = []

    def extend(start):
        if len(chosen) == size:
            if ({e for e, k in count.items() if k == 1} == ring
                    and classify(TwoComplex(chosen)).kind == DISK):
                yield frozenset(chosen)
            return
        if any(last[e] < start for e, k in count.items()
               if k == (0 if e in ring else 1)):
            return
        for i in range(start, len(cands) - (size - len(chosen)) + 1):
            edges = list(combinations(cands[i], 2))
            if any(count[e] >= (1 if e in ring else 2) for e in edges):
                continue
            for e in edges:
                count[e] += 1
            chosen.append(cands[i])
            yield from extend(i + 1)
            chosen.pop()
            for e in edges:
                count[e] -= 1

    yield from extend(0)


def trial_matrix(seed, stream, trials, width, p):
    """Bernoulli(p) samples of shape (trials, width), row i the inclusion
    sample of trial i: numpy's doubles on the (seed, stream) Philox stream,
    compared with p, the reference that `trial_masks` decodes bit for bit."""
    return generator(seed, *stream).random((trials, width)) < p


def cycle_hits(H, cyc, params):
    """How many trial masks of the 4-cycle, drawn as `trial_masks` draws
    them on the cycle's stream, the coverability event holds on: each
    mask asked alone of `_holds`, the exact walks' per-mask test, over
    both pyramid sides and the disk searcher under EXHAUSTIVE_SMALL."""
    masks = trial_masks(params.seed, (_STREAM_COVER, *cyc), params.trials,
                        max(H.n, 1), params.p)
    searches, disk = _coverability_event(H, cyc, params.strategy,
                                         params.max_interior)
    return sum(_holds(searches, disk, m) for m in masks)


def count_uncoverable(H, v, vp, pairs, params):
    """How many 4-cycles v w v' w' over the pairs fail the sampled test,
    one cycle at a time: the reference for the lane pass behind
    `pair_psi`. A cycle with a repeated vertex, a vertex outside H or an
    edge missing from S(H) counts outright; every other counts its hits
    alone (`cycle_hits`) against the least hit count."""
    pairs = list(pairs)
    vertices = H.vertices
    if v == vp or v not in vertices or vp not in vertices:
        return len(pairs)
    rv, rvp = H.row(v), H.row(vp)
    valid = [(w, wp) for w, wp in pairs if w != wp
             and all(x in vertices and rv[x] and rvp[x] for x in (w, wp))]
    need = _least_hits(params.trials, params.epsilon)
    return len(pairs) - sum(
        cycle_hits(H, (v, w, vp, wp), params) >= need
        for w, wp in valid)


def glue_disks_rows_first(H, cycles, params):
    """The gluer without its edge-mask screen: each distinct cycle's edges
    are checked on link rows (H.row(a)[b] != 0), the rows of both apex
    pairs of every distinct cycle are built, and both sides of a cycle
    are tried, (a, c) before (b, d). Attempt i splits the free vertices,
    in the order of the (seed, i) permutation, into consecutive parts,
    the first len(free) % k of them one vertex larger. The reference that
    `search.glue_disks` must match: the same disks, GlueFailure or
    ValueError."""
    cycs = [tuple(c) for c in cycles]
    if not cycs:
        return []
    distinct = dict.fromkeys(cycs)
    for cyc in distinct:
        _check_four_vertices(H, cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not H.row(a)[b]:
                raise ValueError(f"cycle edge {H.label_of(a)}-"
                                 f"{H.label_of(b)} missing from the skeleton")
    rows = {p: link_intersection(H, *p)
            for a, b, c, d in distinct for p in ((a, c), (b, d))}

    def pyramid(cyc, allowed):
        a, b, c, d = cyc
        for v, vp, w, wp in ((a, c, b, d), (b, d, a, c)):
            path = least_path(rows[v, vp], w, wp, allowed)
            if path is not None:
                return pyramid_disk(v, vp, path)
        return None

    k = len(cycs)
    W = {v for cyc in cycs for v in cyc}
    free = [v for v in range(H.n) if v not in W]
    hopeless = [i for i, cyc in enumerate(cycs)
                if pyramid(cyc, sum(1 << v for v in free)) is None]
    if hopeless:
        return search.GlueFailure(
            0, tuple(int(i in hopeless) for i in range(k)),
            f"cycle(s) {hopeless} admit no pyramid disk even with every "
            "free vertex available")
    if len(free) < k:
        return search.GlueFailure(
            0, (0,) * k,
            f"{len(free)} free vertices cannot give {k} disjoint interiors")
    fails = [0] * k
    base, extra = divmod(len(free), k)
    for attempt in range(search._GLUE_RETRIES):
        order = generator(params.seed, search._S_GLUE, attempt).permutation(
            len(free)).tolist()
        disks, start = [], 0
        for i, cyc in enumerate(cycs):
            size = base + (i < extra)
            part = order[start:start + size]
            start += size
            disk = pyramid(cyc, sum(1 << free[j] for j in part))
            if disk is None:
                fails[i] += 1
                break
            disks.append(disk)
        else:
            return disks
    return search.GlueFailure(search._GLUE_RETRIES, tuple(fails),
                              "partition budget exhausted")
