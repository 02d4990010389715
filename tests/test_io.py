import io
import json

import pytest

from diskcover.cli import main
from diskcover.complexes import TwoComplex
from diskcover.hypergraph import Hypergraph3, SkeletonGraph
from diskcover.io import (parse_complex, parse_graph, parse_h3, read_text,
                          serialize_complex, serialize_graph, serialize_h3)


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
