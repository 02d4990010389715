"""Text formats for hypergraphs, graphs, and triangle complexes.

The ".h3" format is line-oriented: one triple per line as three
whitespace-separated labels, with '#' comment lines. A header line

    #vertices: a b c ...

may enumerate vertices explicitly; the vertex set is the union of the
header labels and all labels appearing in triples, which is how isolated
vertices are represented. Parsing assigns dense integer identifiers in
order of first appearance (header first, then triple lines), so a file
always maps to the same internal ids. A line that repeats a label is
rejected with its line number.

Graphs use the same conventions with two labels per line (".g2").
Complexes serialize their triangle lists in the ".h3" line format.
"""

from __future__ import annotations

from typing import IO, Iterable, Iterator

import numpy as np

from .complexes import TwoComplex
from .hypergraph import Hypergraph3, SkeletonGraph

_VERTEX_HEADER = "#vertices:"


def _parse(text: str, arity: int) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """The labels of a file, header labels first and then the others in
    order of first appearance, and its rows of `arity` distinct labels as
    tuples of label ids."""
    header: list[str] = []
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith(_VERTEX_HEADER):
                header.extend(line[len(_VERTEX_HEADER):].split())
            continue
        parts = line.split()
        if len(parts) != arity:
            raise ValueError(f"line {lineno}: expected {arity} labels, got {len(parts)}")
        if len(set(parts)) != arity:
            lab = next(lab for lab in parts if parts.count(lab) > 1)
            raise ValueError(f"line {lineno}: label {lab!r} repeated")
        rows.append(parts)
    labels = tuple(dict.fromkeys(header + [lab for row in rows for lab in row]))
    index = {lab: i for i, lab in enumerate(labels)}
    return labels, [tuple(index[lab] for lab in row) for row in rows]


def parse_h3(text: str) -> Hypergraph3:
    labels, triples = _parse(text, 3)
    return Hypergraph3(len(labels), triples, labels=labels)


def serialize_h3(H: Hypergraph3) -> str:
    return "".join(h3_blocks(H))


def h3_blocks(H: Hypergraph3) -> Iterator[str]:
    """serialize_h3(H) in pieces: the header line, then the lines of one
    first-vertex block at a time, so only that block's triples are decoded
    and held as text."""
    # Header always written: it pins isolated vertices and the label->id order,
    # making parse -> serialize -> parse the identity.
    names = [H.label_of(v) for v in H.vertices]
    yield _VERTEX_HEADER + " " + " ".join(names) + "\n"
    n, nn = H.n, H.n * H.n
    ends = np.searchsorted(H.codes, np.arange(1, n + 1, dtype=H.codes.dtype) * nn)
    for a, (start, end) in enumerate(zip([0, *ends.tolist()], ends.tolist())):
        if start < end:
            b, c = np.divmod(H.codes[start:end] - a * nn, n)
            yield "".join(f"{names[a]} {names[x]} {names[y]}\n"
                          for x, y in zip(b.tolist(), c.tolist()))


def parse_graph(text: str) -> tuple[SkeletonGraph, tuple[str, ...]]:
    """Parse a two-label-per-line graph file; returns the graph and its labels."""
    labels, edges = _parse(text, 2)
    return SkeletonGraph(range(len(labels)), edges), labels


def serialize_graph(G: SkeletonGraph, labels: Iterable[str] | None = None) -> str:
    names = {v: str(v) for v in G.vertices}
    if labels is not None:
        names = dict(zip(sorted(G.vertices), labels))
    lines = [_VERTEX_HEADER + " " + " ".join(names[v] for v in sorted(G.vertices))]
    for a, b in sorted(G.edges):
        lines.append(f"{names[a]} {names[b]}")
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> tuple[TwoComplex, tuple[str, ...]]:
    labels, triangles = _parse(text, 3)
    return TwoComplex(triangles), labels


def serialize_complex(X: TwoComplex, labels: dict[int, str] | None = None) -> str:
    def name(v: int) -> str:
        return labels[v] if labels else str(v)

    return "\n".join(" ".join(name(v) for v in t) for t in sorted(X.triangles)) + "\n"


def read_text(path_or_file: str | IO[str]) -> str:
    if hasattr(path_or_file, "read"):
        return path_or_file.read()
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return fh.read()
