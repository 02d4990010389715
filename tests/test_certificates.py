import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcover.certificates import (CERT_VERSION, SPHERE, TORUS,
                                    HomeomorphCertificate, parse_certificate,
                                    serialize_certificate)
from diskcover.coverability import pyramid_disk
from diskcover.hypergraph import complete_hypergraph
from diskcover.verify import verify_certificate


def _sphere_cert():
    cycle = (0, 2, 1, 3)
    d1 = pyramid_disk(0, 1, (2, 4, 3))
    d2 = pyramid_disk(0, 1, (2, 5, 3))
    return HomeomorphCertificate(
        target=SPHERE, t=None, embedding={"a": 0, "b": 1},
        cycles=(cycle, cycle), disks=(d1, d2), seed=7, retries=0)


def test_round_trip():
    cert = _sphere_cert()
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back.target == cert.target
    assert back.embedding == dict(cert.embedding)
    assert back.cycles == cert.cycles
    assert back.disks == cert.disks
    assert (back.seed, back.retries) == (7, 0)


def test_serialized_document_shape():
    doc = json.loads(serialize_certificate(_sphere_cert(), report={"passed": True}))
    assert doc["cert_version"] == CERT_VERSION
    assert doc["report"] == {"passed": True}
    assert all(len(c) == 4 for c in doc["cycles"])
    assert all(all(len(t) == 3 for t in d) for d in doc["disks"])


def test_report_ignored_on_parse():
    text = serialize_certificate(_sphere_cert(), report={"passed": False})
    assert parse_certificate(text).target == SPHERE


def test_constructor_validation():
    d = pyramid_disk(0, 1, (2, 4, 3))
    with pytest.raises(ValueError):
        HomeomorphCertificate("klein", None, {}, ((0, 2, 1, 3),), (d,), 0, 0)
    with pytest.raises(ValueError):
        HomeomorphCertificate("ktt", 2, {}, ((0, 2, 1, 3),), (d,), 0, 0)
    with pytest.raises(ValueError):
        HomeomorphCertificate(TORUS, None, {}, ((0, 2, 1, 3),), (), 0, 0)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("cert_version"),
    lambda d: d.update(cert_version=99),
    lambda d: d.pop("disks"),
    lambda d: d.pop("embedding"),
    lambda d: d["cycles"].append([1, 2, 3]),
    lambda d: d.update(target="mystery"),
])
def test_parse_rejects_malformed(mutate):
    doc = json.loads(serialize_certificate(_sphere_cert()))
    mutate(doc)
    with pytest.raises(ValueError):
        parse_certificate(json.dumps(doc))


def test_parse_rejects_non_object_and_bad_json():
    with pytest.raises(ValueError):
        parse_certificate("[1, 2]")
    with pytest.raises(ValueError):
        parse_certificate("{nope")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)

# places in a certificate document a fuzzed value may land
_PATHS = [("cert_version",), ("target",), ("t",), ("embedding",),
          ("embedding", "a"), ("cycles",), ("cycles", 0), ("cycles", 0, 1),
          ("disks",), ("disks", 0), ("disks", 0, 0), ("disks", 0, 0, 2),
          ("seed",), ("retries",)]


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _JSON.map(lambda v: ("whole", v)),
    st.lists(st.tuples(st.sampled_from(_PATHS), _JSON),
             min_size=1, max_size=3).map(lambda edits: ("edits", edits))))
def test_parse_is_total(case):
    """Any JSON value either parses or raises ValueError, never another
    exception; a parsed certificate verifies or raises ValueError."""
    kind, payload = case
    if kind == "whole":
        doc = payload
    else:
        doc = json.loads(serialize_certificate(_sphere_cert()))
        for path, value in payload:
            try:
                _put(doc, path, value)
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit replaced a container on this path
    try:
        cert = parse_certificate(json.dumps(doc))
    except ValueError:
        return
    try:
        verify_certificate(complete_hypergraph(6), cert)
    except ValueError:
        pass
