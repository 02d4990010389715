import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskcover.cli import main
from diskcover.complexes import TwoComplex
from diskcover.generators import random_hypergraph
from diskcover.hypergraph import (Hypergraph3, SkeletonGraph,
                                  complete_hypergraph)
from diskcover.io import (h3_blocks, parse_complex, parse_graph, parse_h3,
                          read_text, serialize_complex, serialize_graph,
                          serialize_h3)


def test_parse_h3_basic():
    H = parse_h3("a b c\nb c d\n")
    assert H.n == 4
    assert len(H.edges) == 2
    assert H.label_of(0) == "a"


def test_parse_h3_header_isolated_vertices():
    H = parse_h3("#vertices: a b c d e\na b c\n")
    assert H.n == 5
    assert len(H.edges) == 1
    # header labels take the first ids wherever the header line sits
    H = parse_h3("a b c\n#vertices: e d\nb c f\n")
    assert H.labels == ("e", "d", "a", "b", "c", "f")


def test_parse_h3_comments_and_blank_lines():
    H = parse_h3("# a comment\n\na b c\n# another\n")
    assert H.n == 3


def test_parse_h3_arity_error():
    with pytest.raises(ValueError):
        parse_h3("a b\n")
    with pytest.raises(ValueError):
        parse_h3("a b c d\n")


def test_h3_round_trip_identity():
    text = "#vertices: x y z w q\nx y z\ny z w\n"
    H1 = parse_h3(text)
    H2 = parse_h3(serialize_h3(H1))
    assert H2.n == H1.n
    assert H2.edges == H1.edges
    assert [H2.label_of(v) for v in H2.vertices] == \
        [H1.label_of(v) for v in H1.vertices]


def _h3_all_at_once(H):
    """The .h3 text as it was written before it went a block at a time:
    every triple decoded at once, one line each."""
    lines = ["#vertices: " + " ".join(H.label_of(v) for v in H.vertices)]
    for t in H.triples().tolist():
        lines.append(" ".join(H.label_of(v) for v in t))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.floats(0, 1), st.integers(0, 2 ** 40),
       st.booleans())
@example(0, 0.5, 0, False)
@example(2, 1.0, 0, True)
@example(12, 0.0, 0, True)
@example(12, 1.0, 0, True)
def test_h3_blocks_write_the_bytes_of_one_whole_decode(n, p, seed, labelled):
    H = random_hypergraph(n, p, seed)
    if labelled:
        H = Hypergraph3._from_codes(n, H.codes, tuple(f"v{n - v}" for v in range(n)))
    blocks = list(h3_blocks(H))
    # the header, then one piece per first vertex of some triple
    assert len(blocks) == 1 + len(set((H.codes // (n * n)).tolist()))
    assert "".join(blocks) == serialize_h3(H) == _h3_all_at_once(H)


class _Pieces(io.StringIO):
    """A text stream that keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def test_gen_writes_the_host_a_block_at_a_time(tmp_path, monkeypatch):
    out = tmp_path / "h.h3"
    assert main(["gen", "--model", "gnp3", "--n", "40", "--p", "0.3",
                 "--seed", "5", "--out", str(out)]) == 0
    assert out.read_text() == _h3_all_at_once(random_hypergraph(40, 0.3, 5))
    stdout = _Pieces()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["gen", "--model", "complete", "--n", "9"]) == 0
    # the header and the blocks of first vertices 0..6, each as it is made
    assert stdout.pieces == list(h3_blocks(complete_hypergraph(9)))
    assert len(stdout.pieces) == 8
    assert stdout.getvalue() == _h3_all_at_once(complete_hypergraph(9))


def test_parse_graph_and_round_trip():
    G, labels = parse_graph("u v\nv w\n")
    assert G.n == 3
    assert set(G.edges) == {(0, 1), (1, 2)}
    G2, labels2 = parse_graph(serialize_graph(G, labels=labels))
    assert set(G2.edges) == set(G.edges)
    assert labels2 == labels


def test_serialize_graph_isolated_vertex():
    G = SkeletonGraph(range(3), [(0, 1)])
    text = serialize_graph(G)
    G2, _ = parse_graph(text)
    assert G2.n == 3


def test_parse_complex():
    X, labels = parse_complex("a b c\nb c d\n")
    assert isinstance(X, TwoComplex)
    assert len(X) == 2
    assert labels == ("a", "b", "c", "d")


def test_serialize_complex_round_trip():
    X = TwoComplex([(0, 1, 2), (1, 2, 3)])
    X2, _ = parse_complex(serialize_complex(X))
    assert X2 == X


def test_classification_serialization(capsys, tmp_path):
    # `classify --format json` writes the Classification fields in order
    path = tmp_path / "tetra.h3"
    path.write_text(serialize_complex(
        TwoComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])))
    assert main(["classify", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"kind": "ClosedSurface", "euler": 2,
                               "orientable": True, "boundary_components": 0}
    assert out == ('{\n  "kind": "ClosedSurface",\n  "euler": 2,\n'
                   '  "orientable": true,\n  "boundary_components": 0\n}\n')


def test_read_text_path_and_file(tmp_path):
    p = tmp_path / "g.h3"
    p.write_text("a b c\n", encoding="utf-8")
    assert read_text(str(p)) == "a b c\n"
    assert read_text(io.StringIO("x y z\n")) == "x y z\n"
