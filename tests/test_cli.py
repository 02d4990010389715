import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcover.certificates import parse_certificate, serialize_certificate
from diskcover import cli, hypergraph, search, verify
from diskcover.cli import main
from diskcover.generators import random_hypergraph
from diskcover.hypergraph import complete_hypergraph
from diskcover.io import serialize_graph, serialize_h3
from diskcover.search import SearchParams, find_k_t_homeomorph, find_sphere


@pytest.fixture
def k8_file(tmp_path):
    path = tmp_path / "k8.h3"
    path.write_text(serialize_h3(complete_hypergraph(8)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_skeleton_and_link(capsys, k8_file):
    code, out, _ = run(capsys, "skeleton", k8_file)
    assert code == 0
    assert out.startswith("#vertices: 0 1 2 3 4 5 6 7")
    code, out, _ = run(capsys, "skeleton", k8_file, "--format", "json")
    assert len(json.loads(out)["vertices"]) == 8
    code, out, _ = run(capsys, "link", k8_file, "0")
    assert code == 0
    assert out.startswith("#vertices:")
    assert "1 2" in out


def test_classify_text_and_json(capsys, tmp_path, k8_file):
    path = tmp_path / "tetra.h3"
    path.write_text(serialize_h3(complete_hypergraph(4)))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "kind: ClosedSurface" in out
    assert "euler: 2" in out
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    doc = json.loads(out)
    assert doc["orientable"] is True


def test_check_disk_paths(capsys, k8_file, tmp_path):
    code, out, _ = run(capsys, "check-disk", k8_file, "--cycle", "0,2,1,3")
    assert code == 0
    empty = tmp_path / "empty.h3"
    empty.write_text(serialize_h3(complete_hypergraph(4)))
    code, _, err = run(capsys, "check-disk", str(empty), "--cycle", "0,1,2,3")
    assert code == 1
    assert "no boundary-inducing disk" in err


def test_coverability_exact_value(capsys, k8_file):
    code, out, _ = run(capsys, "coverability", k8_file, "--cycle", "0,2,1,3",
                       "--exact", "--p", "1/2", "--epsilon", "1/10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["probability"] == "15/16"
    assert doc["decided_coverable"] is True


def test_admissibility_exit_codes(capsys, tmp_path):
    # triangle w,u,w' plus pendant x on w: exact admissibility is p
    g = tmp_path / "tri.graph"
    g.write_text("0 1\n1 2\n0 2\n0 3\n2 3\n")
    code, out, _ = run(capsys, "admissibility", str(g), "--p2", "0,1,2",
                       "--exact", "--p", "1/2", "--epsilon", "0.6")
    assert code == 0
    code, out, _ = run(capsys, "admissibility", str(g), "--p2", "0,1,2",
                       "--exact", "--p", "1/2", "--epsilon", "0.3")
    assert code == 1


# the exit code (0 decided, 1 not) and the report fields, in order, of
# each command and mode
_REPORTS = {
    ("coverability", "exact"): (0, {"probability": "15/16",
                                    "decided_coverable": True}),
    ("coverability", "sampled"): (0, {"estimate": 0.875, "successes": 14,
                                      "trials": 16,
                                      "decided_coverable": True}),
    ("admissibility", "exact"): (1, {"probability": "1/2",
                                     "decided_admissible": False}),
    ("admissibility", "sampled"): (1, {"estimate": 0.3125, "successes": 5,
                                       "trials": 16,
                                       "decided_admissible": False}),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, mode", sorted(_REPORTS))
def test_probability_reports(capsys, tmp_path, k8_file, command, mode, fmt):
    g = tmp_path / "tri.graph"
    g.write_text("0 1\n1 2\n0 2\n0 3\n2 3\n")
    target = (["coverability", k8_file, "--cycle", "0,2,1,3"]
              if command == "coverability"
              else ["admissibility", str(g), "--p2", "0,1,2"])
    how = ["--exact"] if mode == "exact" else ["--trials", "16"]
    code, out, err = run(capsys, *target, *how, "--p", "1/2",
                         "--epsilon", "3/10", "--format", fmt)
    want_code, doc = _REPORTS[command, mode]
    assert (code, err) == (want_code, "")
    if fmt == "json":
        assert out == json.dumps(doc, indent=2) + "\n"
    else:
        assert out == "".join(f"{k}: {v}\n" for k, v in doc.items())


def test_audit_exit_and_error_rows(capsys, tmp_path):
    g = tmp_path / "star.graph"
    g.write_text("0 1\n0 2\n0 3\n")
    code, out, _ = run(capsys, "audit", str(g))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph_id,")
    assert all(l.endswith(",true") for l in lines[1:])

    code, out, _ = run(capsys, "audit", str(g),
                       str(tmp_path / "missing.graph"))
    assert code == 1
    assert any(l.endswith(",error") for l in out.strip().splitlines())


def test_audit_of_an_empty_graph_holds(capsys, tmp_path):
    # no vertex, no length-2 path: both bounds are 0, and nothing exceeds them
    g = tmp_path / "empty.graph"
    g.write_text("#vertices:\n")
    code, out, err = run(capsys, "audit", str(g))
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"{g},0,1/1,1/1,0/1,0/1,true",
                                    f"{g},0,1/2,1/10,0/1,0/1,true"]


@pytest.mark.parametrize("argv, unknown", [
    (("link", "1"), "1"),
    (("check-disk", "--cycle", "10,20,30,3"), "3"),
    (("coverability", "--cycle", "0,10,20,30"), "0"),
], ids=["link", "check-disk", "coverability"])
def test_vertex_names_are_labels_only(capsys, tmp_path, argv, unknown):
    # names that look like internal ids are not labels of this file
    h = tmp_path / "h.h3"
    h.write_text("#vertices: 10 20 30 40\n10 20 30\n10 20 40\n20 30 40\n")
    code, out, err = run(capsys, argv[0], str(h), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: unknown vertex {unknown!r}"]


@pytest.mark.parametrize("p2", ["a,a,c", "a,c,c", "a,c,a"])
def test_repeated_path_vertex_is_usage_error(capsys, tmp_path, p2):
    g = tmp_path / "g.graph"
    g.write_text("a c\nc b\na b\n")
    code, out, err = run(capsys, "admissibility", str(g), "--p2", p2, "--exact")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: the length-2 path must have three distinct vertices"]


@pytest.mark.parametrize("argv, text", [
    (("skeleton",), "a b c\np q q\n"),
    (("classify",), "a b c\np q q\n"),
    (("admissibility", "--p2", "x,y,q"), "a b\nq q\n"),
], ids=["h3", "complex", "graph"])
def test_repeated_label_on_a_line_is_usage_error(capsys, tmp_path, argv, text):
    f = tmp_path / "bad"
    f.write_text(text)
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: line 2: label 'q' repeated"]


@pytest.mark.parametrize("argv, message", [
    (("coverability", "h.h3", "--cycle", "10,20,30,50"),
     "cycle edge 50-10 missing from the skeleton"),
    (("coverability", "h.h3", "--cycle", "10,20,30,50", "--exact"),
     "cycle edge 50-10 missing from the skeleton"),
    (("check-disk", "h.h3", "--cycle", "10,20,10,30"),
     "boundary cycle must list four distinct vertices"),
    (("admissibility", "g.graph", "--p2", "a,b,d"),
     "a-b-d is not a path in the graph"),
    (("admissibility", "g.graph", "--p2", "a,b,d", "--exact"),
     "a-b-d is not a path in the graph"),
], ids=["cover", "cover-exact", "check-disk", "adm", "adm-exact"])
def test_cycle_and_path_errors_name_labels(capsys, tmp_path, argv, message):
    (tmp_path / "h.h3").write_text("10 20 30\n10 20 40\n20 30 40\n30 40 50\n")
    (tmp_path / "g.graph").write_text("a c\nc b\nb d\n")
    code, out, err = run(capsys, argv[0], str(tmp_path / argv[1]), *argv[2:])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [
    ("admissibility", "--p2", "0,1,2", "--exact", "--p", "2"),
    ("admissibility", "--p2", "0,1,2", "--exact", "--p", "1/2",
     "--epsilon", "3"),
    ("admissibility", "--p2", "0,1,2", "--exact", "--p", "1/0"),
    ("audit", "--p", "0"),
    ("audit", "--epsilon", "0"),
    ("audit", "--p", "2"),
    ("audit", "--p", ""),
    ("audit", "--epsilon", ""),
], ids=["adm-p2", "adm-eps3", "adm-p1over0", "audit-p0", "audit-eps0",
        "audit-p2", "audit-p-empty", "audit-eps-empty"])
def test_probability_out_of_range_is_usage_error(capsys, tmp_path, argv):
    g = tmp_path / "tri.graph"
    g.write_text("0 1\n1 2\n0 2\n0 3\n2 3\n")
    code, out, err = run(capsys, argv[0], str(g), *argv[1:])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_find_verify_round_trip(capsys, tmp_path):
    h = tmp_path / "k12.h3"
    h.write_text(serialize_h3(complete_hypergraph(12)))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "find", str(h), "--target", "sphere",
                       "--p", "0.5", "--epsilon", "0.1", "--seed", "3",
                       "--out", str(cert_path))
    assert code == 0
    cert = parse_certificate(cert_path.read_text())
    assert cert.target == "sphere"

    code, out, _ = run(capsys, "verify", str(h), str(cert_path))
    assert code == 0
    assert "verified" in out
    assert "[ok]" in out


@pytest.mark.parametrize("n, target", [(30, ("ktt", "--t", "4")), (8, ("sphere",)),
                                       (20, ("torus",))])
def test_find_verifies_once(capsys, monkeypatch, tmp_path, n, target):
    # the finder's own check is the one verifier call of a find, and the
    # report it prints is the one a fresh verify of the printed certificate
    # gives, so the output is what a second verify would have printed
    H = complete_hypergraph(n)
    h = tmp_path / "host.h3"
    h.write_text(serialize_h3(H))
    real, calls = verify.verify_certificate, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (search, cli):
        monkeypatch.setattr(module, "verify_certificate", counted)
    code, out, _ = run(capsys, "find", str(h), "--target", *target,
                       "--p", "0.5", "--epsilon", "0.1")
    assert code == 0 and len(calls) == 1
    cert = parse_certificate(out)
    assert cert.report is None
    assert out == serialize_certificate(cert, real(H, cert).as_dict())


def test_find_failure_exit(capsys, tmp_path):
    h = tmp_path / "k5.h3"
    h.write_text(serialize_h3(complete_hypergraph(5)))
    code, _, err = run(capsys, "find", str(h), "--target", "torus",
                       "--p", "0.5", "--epsilon", "0.1")
    assert code == 1
    assert "stage" in err


def test_verify_failed_vs_malformed(capsys, tmp_path):
    h = tmp_path / "k12.h3"
    h.write_text(serialize_h3(complete_hypergraph(12)))
    cert_path = tmp_path / "cert.json"
    assert main(["find", str(h), "--target", "sphere", "--p", "0.5",
                 "--epsilon", "0.1", "--seed", "3",
                 "--out", str(cert_path)]) == 0
    capsys.readouterr()

    doc = json.loads(cert_path.read_text())
    # break a disk triangle: failed verification, exit 1
    doc["disks"][0][0] = [5, 6, 7]  # disconnects the first disk
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(h), str(bad))
    assert code == 1
    assert "[FAIL]" in out

    # malformed version: exit 2
    doc["cert_version"] = 99
    mal = tmp_path / "mal.json"
    mal.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(h), str(mal))
    assert code == 2
    assert "malformed" in err


def test_verify_missing_ktt_label_is_a_failed_check(capsys, tmp_path):
    # a K_3 embedding without v0 fails the pattern check, as a surface
    # embedding without one of its labels does: exit 1, not exit 2
    H = complete_hypergraph(12)
    h = tmp_path / "k12.h3"
    h.write_text(serialize_h3(H))
    cert = find_k_t_homeomorph(H, SearchParams(t=3, p=0.5, epsilon=0.1))
    doc = json.loads(serialize_certificate(cert))
    del doc["embedding"]["v0"]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(h), str(path))
    assert code == 1
    assert "[FAIL] pattern-ktt: embedding misses pattern labels: v0" in (
        out.splitlines())
    assert out.splitlines()[-1] == "verification failed"
    assert err == "" and "Traceback" not in out


def test_gen_models(capsys, tmp_path):
    out_path = tmp_path / "g.h3"
    code, _, _ = run(capsys, "gen", "--model", "gnp3", "--n", "10",
                     "--p", "0.3", "--seed", "5", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("#vertices: 0 1")
    code, _, err = run(capsys, "gen", "--model", "gnp3", "--n", "10")
    assert code == 2
    assert "error:" in err
    code, out, _ = run(capsys, "gen", "--model", "clique-pendant", "--n", "16")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("gen", "--model", "complete", "--n", "4", "--p", "x"),
    ("gen", "--model", "clique-pendant", "--n", "16", "--p", "7"),
], ids=["complete", "clique-pendant"])
def test_gen_p_outside_gnp3_is_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err == f"error: --p applies only to model gnp3, not {argv[2]}\n"


@pytest.mark.parametrize("argv", [
    ("gen", "--model", "gnp3", "--n", "-1", "--p", "0.1"),
    ("gen", "--model", "complete", "--n", "-4"),
    ("sweep", "--target", "sphere", "--n", "10", "--c", "1", "--jobs", "0"),
    ("sweep", "--target", "sphere", "--n", "10", "--c", "1", "--jobs", "-3"),
    ("check-disk", "K8", "--cycle", "0,2,1,3", "--max-interior", "-2"),
    ("check-disk", "K8", "--cycle", "0,2,1,3", "--max-interior", "0"),
    ("coverability", "K8", "--cycle", "0,2,1,3", "--p", "1/2", "--exact",
     "--max-interior", "0"),
], ids=["gnp3-n-1", "complete-n-4", "sweep-jobs0", "sweep-jobs-3",
        "check-disk-budget-2", "check-disk-budget0", "exact-budget0"])
def test_out_of_range_count_is_usage_error(capsys, tmp_path, k8_file, argv):
    out_path = tmp_path / "out"
    argv = [k8_file if a == "K8" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out == "" and not out_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "nope.h3"))
    assert code == 2
    assert "error:" in err


def test_sweep_csv_output(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "--target", "sphere", "--n", "10,12",
                     "--c", "0.5,2", "--trials", "2", "--seed", "7",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,c,p,trial,target,found,stage,seconds"
    assert len(lines) == 9
    # same seed reproduces byte-identical output through the CLI
    out2 = tmp_path / "rows2.csv"
    assert main(["sweep", "--target", "sphere", "--n", "10,12",
                 "--c", "0.5,2", "--trials", "2", "--seed", "7",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out2.read_text() == text


@pytest.mark.parametrize("n, c", [("0", "1"), ("12", "nan"), ("12", "inf")])
def test_sweep_bad_grid_is_usage_error(capsys, n, c):
    code, out, err = run(capsys, "sweep", "--target", "sphere", "--n", n,
                         "--c", c, "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--model", "complete", "--n", "100"),
    ("--model", "gnp3", "--n", "120", "--p", "1"),
], ids=["complete", "gnp3"])
def test_gen_past_physical_memory_is_one_error_line(capsys, monkeypatch, argv):
    # a host past physical memory is refused before it is built, so the
    # process is not killed mid-build; 1 MiB stands in for the machine's
    monkeypatch.setattr(hypergraph, "_physical_memory", lambda: 1 << 20)
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a host on ") and err.count("\n") == 1
    assert err.endswith("of physical memory\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 3.64 TiB for an array"),
     "Unable to allocate 3.64 TiB for an array"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_error_line(capsys, monkeypatch, exc, message):
    # a host too large to draw fails its allocation inside the sweep; the
    # sweep is stubbed to raise, so nothing large is allocated
    def sweep(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "threshold_sweep", sweep)
    code, out, err = run(capsys, "sweep", "--target", "sphere", "--n",
                         "2000000", "--c", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_passes_the_estimator_parameters(capsys):
    # at the surface default (1/18, 1/163) no n = 100, c = 4 host passes
    # the hub stage; at (1/2, 1/10) the torus is found on both
    argv = ("sweep", "--target", "torus", "--n", "100", "--c", "4",
            "--trials", "2")
    for extra, cells in (((), ["false,hub-selection"] * 2),
                         (("--p", "1/2", "--epsilon", "1/10"),
                          ["true,done"] * 2)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        assert [",".join(line.split(",")[5:7])
                for line in out.splitlines()[1:]] == cells


@pytest.mark.parametrize("target", ["torus", "sphere"])
@pytest.mark.parametrize("option", [
    ("--p", "2"), ("--p", "0"), ("--p", "x"), ("--epsilon", "1"),
    ("--epsilon", "1/0"), ("--epsilon", "nan")])
def test_sweep_bad_estimator_parameter_is_usage_error(capsys, monkeypatch,
                                                      k8_file, target, option):
    # checked before a sweep draws any host, or a find searches one, even
    # for the sphere, which never runs the estimator
    monkeypatch.setattr(cli, "threshold_sweep",
                        lambda *a, **k: pytest.fail("a host was drawn"))
    monkeypatch.setitem(cli.FINDERS, target,
                        lambda *a: pytest.fail("a host was searched"))
    for argv in (("sweep", "--n", "12", "--c", "1"), ("find", k8_file)):
        code, out, err = run(capsys, *argv, "--target", target, *option)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_passes_the_estimator_trials(capsys, monkeypatch):
    # 64 by default, as in SearchParams, and the count given otherwise
    seen = []
    monkeypatch.setattr(cli, "threshold_sweep",
                        lambda *a, params, **k: seen.append(params) or [])
    argv = ("sweep", "--target", "ktt", "--n", "12", "--c", "1")
    for extra in ((), ("--estimator-trials", "7")):
        assert run(capsys, *argv, *extra)[0] == 0
    assert [params.trials for params in seen] == [64, 7]


@pytest.mark.parametrize("value", ["0", "-3", "x", "1.5"])
def test_sweep_bad_estimator_trials_is_usage_error(capsys, monkeypatch,
                                                   value):
    # a count below 1 is rejected before any host is drawn, a non-integer
    # by argparse; either way one error line names the option
    monkeypatch.setattr(cli, "threshold_sweep",
                        lambda *a, **k: pytest.fail("a host was drawn"))
    try:
        code = main(["sweep", "--target", "ktt", "--n", "12", "--c", "1",
                     "--estimator-trials", value])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1 and "--estimator-trials" in lines[0]


def _set_cycle_int(doc):
    doc["cycles"][0] = 7


def _set_embedding_list(doc):
    doc["embedding"] = [1, 2]


def _set_ktt_string_t(doc):
    doc["target"], doc["t"] = "ktt", "4"


def _nest_triangle(doc):
    doc["disks"][0][0] = [[0, 1], 2, 3]


def _empty_disk(doc):
    doc["disks"][1] = []


@pytest.mark.parametrize("mutate", [
    _set_cycle_int, _set_embedding_list, _set_ktt_string_t, _nest_triangle,
    _empty_disk,
], ids=["cycle-int", "embedding-list", "t-string", "nested-triangle",
        "empty-disk"])
def test_verify_mistyped_certificate_is_usage_error(capsys, tmp_path, mutate):
    h = tmp_path / "k12.h3"
    h.write_text(serialize_h3(complete_hypergraph(12)))
    cert_path = tmp_path / "cert.json"
    assert main(["find", str(h), "--target", "sphere", "--p", "0.5",
                 "--epsilon", "0.1", "--seed", "3",
                 "--out", str(cert_path)]) == 0
    capsys.readouterr()
    doc = json.loads(cert_path.read_text())
    mutate(doc)
    cert_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(h), str(cert_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate:")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# argv fuzzing: every subcommand over small valid and malformed inputs

@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files by placeholder name; "@MISSING" names no file."""
    d = tmp_path_factory.mktemp("fuzz")
    texts = {
        "@K8": serialize_h3(complete_hypergraph(8)),
        "@K5": serialize_h3(complete_hypergraph(5)),
        "@R7": serialize_h3(random_hypergraph(7, 0.6, 1)),
        "@BADH3": "#vertices: a b\na b c\n",
        "@EMPTY": "",
        "@G": "0 1\n1 2\n0 2\n0 3\n2 3\n",
        "@BADG": "0 1 2\nx\n",
        "@CERTBAD": "{",
        "@CERTWRONG": json.dumps({"cert_version": 1, "target": "sphere"}),
    }
    cert = find_sphere(complete_hypergraph(8), SearchParams(p=0.5, epsilon=0.1))
    texts["@CERT"] = serialize_certificate(cert)
    paths = {"@MISSING": str(d / "missing"), "@DIR": str(d),
             "@OUT": str(d / "out.txt"), "@OUTBAD": str(d / "no" / "out.txt")}
    for name, text in texts.items():
        paths[name] = str(d / name[1:])
        (d / name[1:]).write_text(text)
    (d / "JUNK").write_bytes(b"\xff\xfe\x00junk")
    paths["@JUNK"] = str(d / "JUNK")
    return paths


def _mostly(valid, invalid):
    """Draws from invalid one time in eight, so that whole command lines
    often get past parsing."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 7 else valid)


_BAD = st.sampled_from(["@MISSING", "@DIR", "@EMPTY", "@JUNK", "@BADH3", "@BADG"])
_H3 = _mostly(st.sampled_from(["@K8", "@K5", "@R7"]), _BAD)
_GRAPH = _mostly(st.just("@G"), _BAD)
_CERT = _mostly(st.just("@CERT"), st.sampled_from(["@CERTBAD", "@CERTWRONG"]) | _BAD)
_NUM = _mostly(st.sampled_from(["1/2", "0.3", "1", "0"]),
               st.sampled_from(["-1", "2", "1/0", "nan", "inf", "x", ""]))
_INT = _mostly(st.integers(0, 4).map(str), st.sampled_from(["-2", "x", "1.5", ""]))
_COUNT = _mostly(st.integers(1, 6).map(str), st.sampled_from(["-1", "0", "x"]))
_LABEL = _mostly(st.sampled_from(["0", "1", "2", "3", "4"]),
                 st.sampled_from(["7", "9", "a", "-1", " 2", "\u00b2", ""]))
_LABELS = _mostly(st.permutations(["0", "1", "2", "3", "4"]).map(lambda p: ",".join(p[:4])),
                  st.lists(_LABEL, max_size=5).map(",".join))
_P2 = _mostly(st.permutations(["0", "1", "2", "3"]).map(lambda p: ",".join(p[:3])),
              _LABELS)
_T = _mostly(st.sampled_from(["3", "4"]), st.sampled_from(["-1", "0", "2", "x"]))
_TARGET = _mostly(st.sampled_from(["sphere", "torus", "rp2", "ktt"]), st.just("klein"))


def _opt(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


def _req(flag, values):
    """A required option, missing one time in eight."""
    return _mostly(values.map(lambda v: [flag, v]), st.just([]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    """One argv: each part is a token, a strategy of a token, or a strategy
    of a token list."""
    parts = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*parts).map(
        lambda ps: [t for p in ps for t in (p if isinstance(p, list) else [p])])


_FMT = _opt("--format", st.sampled_from(["text", "json", "xml"]))
_OUT = _opt("--out", st.sampled_from(["@OUT", "@OUTBAD"]))
_BUDGET = _opt("--max-interior", _mostly(st.sampled_from(["1", "2"]),
                                         st.sampled_from(["-1", "0"])))
_ESTIMATE = (_opt("--p", _NUM), _opt("--epsilon", _NUM),
             _opt("--trials", _COUNT), _flag("--exact"),
             _opt("--seed", _INT))
_FUZZ_ARGV = st.one_of(
    _argv("skeleton", _H3, _FMT, _OUT),
    _argv("link", _H3, _LABEL, _OUT),
    _argv("classify", _H3, _FMT),
    _argv("check-disk", _H3, _req("--cycle", _LABELS), _BUDGET, _OUT),
    _argv("coverability", _H3, _req("--cycle", _LABELS), _BUDGET,
          _flag("--exhaustive"), *_ESTIMATE, _FMT),
    _argv("admissibility", _GRAPH, _req("--p2", _P2), *_ESTIMATE, _FMT),
    _argv("audit", st.lists(_GRAPH, max_size=3), _opt("--p", _NUM),
          _opt("--epsilon", _NUM), _OUT),
    _argv("find", _H3, _req("--target", _TARGET),
          _opt("--t", _T), _opt("--p", _NUM),
          _opt("--epsilon", _NUM), _opt("--trials", _COUNT),
          _opt("--retries", _COUNT), _flag("--exhaustive"),
          _opt("--seed", _INT), _OUT),
    _argv("verify", _H3, _CERT, _FMT),
    _argv("gen", _req("--model", st.sampled_from(["gnp3", "complete", "clique-pendant", "x"])),
          _req("--n", _mostly(st.sampled_from(["0", "4", "9", "12"]),
                              st.sampled_from(["-1", "x"]))),
          _opt("--p", _NUM), _opt("--seed", _INT), _OUT),
    _argv("sweep", _req("--target", _TARGET),
          _req("--n", st.lists(_mostly(st.sampled_from(["5", "8"]),
                                       st.sampled_from(["0", "x", ""])),
                               min_size=1, max_size=2).map(",".join)),
          _req("--c", st.lists(_mostly(st.sampled_from(["0", "0.5", "2"]),
                                       st.sampled_from(["-1", "nan", "x"])),
                               min_size=1, max_size=3).map(",".join)),
          _opt("--t", _T), _opt("--p", _NUM), _opt("--epsilon", _NUM),
          _opt("--trials", _mostly(st.sampled_from(["1", "2"]), st.just("0"))),
          _opt("--estimator-trials", _mostly(st.sampled_from(["1", "64"]),
                                             st.sampled_from(["0", "-2", "x"]))),
          _opt("--seed", _INT),
          _opt("--jobs", st.just("1")), _flag("--timing"), _OUT),
    st.lists(_NUM | _TARGET, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_FUZZ_ARGV)
def test_cli_is_total(fuzz_files, argv):
    """Any argv exits 0, 1 or 2, never raises, and exit 2 prints exactly
    one error line."""
    argv = [fuzz_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, err.getvalue())
