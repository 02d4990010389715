"""Command-line interface.

One subcommand per operation so every piece is invocable for demos and
scripted experiments. Exit codes: 0 on success (found/verified/holds),
1 for negative results (no disk, not coverable, verification failed,
audit violation), 2 for usage errors including unreadable or malformed
input files. `main` turns every ValueError or OSError into that exit and
one `error:` line; only `audit` (a bad file is an error row) and
`verify` (a bad certificate gets its own prefix) catch one themselves.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from typing import Iterable

from .certificates import (TARGETS, HomeomorphCertificate, parse_certificate,
                           serialize_certificate)
from .complexes import classify
from .coverability import (EXHAUSTIVE_SMALL, PYRAMID_ONLY, EstimatorParams,
                           _check_p2, as_fraction, exact_admissibility,
                           exact_disk_coverability,
                           find_boundary_inducing_disk, sample_admissibility,
                           sample_disk_coverability, unit_fraction)
from .generators import (clique_pendant_graph, complete_hypergraph,
                         random_hypergraph)
from .hypergraph import link, skeleton
from .io import (h3_blocks, parse_complex, parse_graph, parse_h3, read_text,
                 serialize_complex, serialize_graph)
from .search import FINDERS, SearchParams
from .experiments import audit_corpus, sweep_csv, threshold_sweep
from .verify import CertificateError, verify_certificate


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each of its pieces as it is made, to out or stdout."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _label_index(labels) -> dict[str, int]:
    return {lab: i for i, lab in enumerate(labels)}


def _resolve(names: str, index: dict[str, int], count: int) -> list[int]:
    parts = names.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated labels, got {len(parts)}")
    out = []
    for lab in parts:
        lab = lab.strip()
        if lab not in index:
            raise ValueError(f"unknown vertex {lab!r}")
        out.append(index[lab])
    return out


def _estimator(args, strategy: str | None = None) -> EstimatorParams:
    kw = dict(p=float(as_fraction(args.p)),
              epsilon=float(as_fraction(args.epsilon)),
              trials=args.trials, seed=args.seed)
    if strategy is not None:
        kw.update(strategy=strategy, max_interior=args.max_interior)
    return EstimatorParams(**kw)


def _graph_labels(G, H) -> list[str]:
    return [H.label_of(v) for v in sorted(G.vertices)]


def _cmd_skeleton(args) -> int:
    H = parse_h3(read_text(args.file))
    G = skeleton(H)
    if args.format == "json":
        doc = {"vertices": _graph_labels(G, H),
               "edges": sorted([H.label_of(a), H.label_of(b)]
                               for a, b in G.edges)}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(serialize_graph(G, labels=_graph_labels(G, H)), args.out)
    return 0


def _cmd_link(args) -> int:
    H = parse_h3(read_text(args.file))
    (u,) = _resolve(args.vertex, _label_index(map(H.label_of, H.vertices)), 1)
    L = link(H, u)
    _emit(serialize_graph(L, labels=_graph_labels(L, H)), args.out)
    return 0


def _cmd_classify(args) -> int:
    X, _ = parse_complex(read_text(args.file))
    c = classify(X)
    if args.format == "json":
        _emit(json.dumps(asdict(c), indent=2) + "\n", args.out)
    else:
        _emit(f"kind: {c.kind}\neuler: {c.euler}\norientable: {c.orientable}\n"
              f"boundary_components: {c.boundary_components}\n", args.out)
    return 0


def _cmd_check_disk(args) -> int:
    H = parse_h3(read_text(args.file))
    cycle = _resolve(args.cycle, _label_index(map(H.label_of, H.vertices)), 4)
    disk = find_boundary_inducing_disk(H, cycle, max_interior=args.max_interior)
    if disk is None:
        print("no boundary-inducing disk within the interior budget",
              file=sys.stderr)
        return 1
    _emit(serialize_complex(disk, labels={v: H.label_of(v) for v in H.vertices}),
          args.out)
    return 0


def _report(args, decided_key: str, exact, sample) -> int:
    """Print the exact probability `exact(p)` under --exact, else the
    estimate `sample()`, as text or JSON; exit 0 when decided, else 1."""
    eps = unit_fraction(args.epsilon, "epsilon")
    if args.exact:
        prob = exact(as_fraction(args.p))
        decided = prob >= 1 - eps
        doc = {"probability": f"{prob.numerator}/{prob.denominator}"}
    else:
        est = sample()
        decided = est.decided_coverable
        doc = {"estimate": est.estimate, "successes": est.successes,
               "trials": est.trials}
    doc[decided_key] = decided
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{k}: {v}\n" for k, v in doc.items()), args.out)
    return 0 if decided else 1


def _cmd_coverability(args) -> int:
    H = parse_h3(read_text(args.file))
    cycle = _resolve(args.cycle, _label_index(map(H.label_of, H.vertices)), 4)
    strategy = EXHAUSTIVE_SMALL if args.exhaustive else PYRAMID_ONLY
    return _report(
        args, "decided_coverable",
        lambda p: exact_disk_coverability(H, cycle, p, strategy=strategy,
                                          max_interior=args.max_interior),
        lambda: sample_disk_coverability(H, cycle, _estimator(args, strategy)))


def _cmd_admissibility(args) -> int:
    G, labels = parse_graph(read_text(args.file))
    w, u, wp = _resolve(args.p2, _label_index(labels), 3)
    _check_p2(G, w, u, wp, labels)
    return _report(args, "decided_admissible",
                   lambda p: exact_admissibility(G, w, u, wp, p),
                   lambda: sample_admissibility(G, w, u, wp, _estimator(args)))


def _cmd_audit(args) -> int:
    graphs = []
    for path in args.files:
        try:
            G, _ = parse_graph(read_text(path))
            graphs.append((path, G))
        except (OSError, ValueError):
            graphs.append((path, None))
    grid = None
    if args.p is not None or args.epsilon is not None:
        grid = [(as_fraction("1/2" if args.p is None else args.p),
                 as_fraction("1/10" if args.epsilon is None else args.epsilon))]
    lines = list(audit_corpus(graphs, grid=grid))
    _emit("\n".join(lines) + "\n", args.out)
    ok = all(line.endswith(",true") for line in lines[1:])
    return 0 if ok else 1


def _with_estimator(params: SearchParams, args) -> SearchParams:
    """The params with --p and --epsilon, each None (the per-target
    default) when not given. Built from params, so a bad count is
    reported before a bad fraction."""
    return replace(params, **{
        k: None if x is None else float(as_fraction(x))
        for k, x in (("p", args.p), ("epsilon", args.epsilon))})


def _search_params(args) -> SearchParams:
    params = SearchParams(t=args.t, trials=args.trials, seed=args.seed,
                          max_retries=args.retries)
    return replace(_with_estimator(params, args),
                   strategy=EXHAUSTIVE_SMALL if args.exhaustive else PYRAMID_ONLY)


def _cmd_find(args) -> int:
    H = parse_h3(read_text(args.file))
    result = FINDERS[args.target](H, _search_params(args))
    if not isinstance(result, HomeomorphCertificate):
        print(f"not found: stage={result.stage} ({result.detail})",
              file=sys.stderr)
        return 1
    report = verify_certificate(H, result)
    _emit(serialize_certificate(result, report=report.as_dict()), args.out)
    if args.out is not None:
        print(f"found {args.target}; certificate written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    H = parse_h3(read_text(args.hfile))
    try:
        cert = parse_certificate(read_text(args.certfile))
        report = verify_certificate(H, cert)
    except (CertificateError, ValueError) as exc:
        return _fail(f"malformed certificate: {exc}")
    if args.format == "json":
        _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
    else:
        lines = []
        for chk in report.checks:
            mark = "ok" if chk.passed else "FAIL"
            lines.append(f"[{mark}] {chk.name}: {chk.detail}")
        lines.append("verified" if report.passed else "verification failed")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    if args.model == "gnp3":
        if args.p is None:
            raise ValueError("--p is required for model gnp3")
        H = random_hypergraph(args.n, float(as_fraction(args.p)), args.seed)
        _emit(h3_blocks(H), args.out)
    elif args.p is not None:
        raise ValueError(f"--p applies only to model gnp3, not {args.model}")
    elif args.model == "complete":
        _emit(h3_blocks(complete_hypergraph(args.n)), args.out)
    else:
        _emit(serialize_graph(clique_pendant_graph(args.n)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    n_values = [int(x) for x in args.n.split(",")]
    c_values = [float(x) for x in args.c.split(",")]
    if args.estimator_trials < 1:
        raise ValueError("--estimator-trials must be positive")
    params = _with_estimator(
        SearchParams(t=args.t, trials=args.estimator_trials), args)
    rows = threshold_sweep(args.target, n_values, c_values, args.trials,
                           args.seed, params=params, jobs=args.jobs,
                           timing=args.timing)
    _emit(sweep_csv(rows), args.out)
    return 0


# options shared by several subcommands, each declared once
_OUT = argparse.ArgumentParser(add_help=False)
_OUT.add_argument("--out", default=None, help="write output to this file")
_FORMAT = argparse.ArgumentParser(add_help=False)
_FORMAT.add_argument("--format", choices=("text", "json"), default="text")
_SEED = argparse.ArgumentParser(add_help=False)
_SEED.add_argument("--seed", type=int, default=0)
_ESTIMATOR = argparse.ArgumentParser(add_help=False)
_ESTIMATOR.add_argument("--p", default="0.5",
                        help="inclusion probability (float or fraction)")
_ESTIMATOR.add_argument("--epsilon", default="0.1",
                        help="failure budget (float or fraction)")
_ESTIMATOR.add_argument("--trials", type=int, default=256)
_ESTIMATOR.add_argument("--exact", action="store_true",
                        help="exact rational probability instead of sampling")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskcover",
        description="Disk coverability and homeomorph search in "
                    "3-uniform hypergraphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("skeleton", parents=[_FORMAT, _OUT],
                        help="1-skeleton of a hypergraph")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_skeleton)

    sp = sub.add_parser("link", parents=[_OUT], help="link graph of one vertex")
    sp.add_argument("file")
    sp.add_argument("vertex")
    sp.set_defaults(fn=_cmd_link)

    sp = sub.add_parser("classify", parents=[_FORMAT, _OUT],
                        help="classify a triangle complex")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("check-disk", parents=[_OUT],
                        help="search a boundary-inducing disk for a 4-cycle")
    sp.add_argument("file")
    sp.add_argument("--cycle", required=True, help="four labels, comma-separated")
    sp.add_argument("--max-interior", type=int, default=3)
    sp.set_defaults(fn=_cmd_check_disk)

    sp = sub.add_parser("coverability", parents=[_FORMAT, _OUT, _SEED, _ESTIMATOR],
                        help="(p, epsilon)-coverability of a 4-cycle")
    sp.add_argument("file")
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--max-interior", type=int, default=3)
    sp.add_argument("--exhaustive", action="store_true",
                    help="search beyond pyramid disks")
    sp.set_defaults(fn=_cmd_coverability)

    sp = sub.add_parser("admissibility", parents=[_FORMAT, _OUT, _SEED, _ESTIMATOR],
                        help="(p, epsilon)-admissibility of a length-2 path")
    sp.add_argument("file", help="graph file, two labels per line")
    sp.add_argument("--p2", required=True,
                    help="path w,u,w' as three labels, comma-separated")
    sp.set_defaults(fn=_cmd_admissibility)

    sp = sub.add_parser("audit", parents=[_OUT],
                        help="inadmissibility audits over graph files")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--p", default=None)
    sp.add_argument("--epsilon", default=None)
    sp.set_defaults(fn=_cmd_audit)

    sp = sub.add_parser("find", parents=[_OUT, _SEED],
                        help="search a homeomorph and emit a certificate")
    sp.add_argument("file")
    sp.add_argument("--target", required=True, choices=sorted(TARGETS))
    sp.add_argument("--t", type=int, default=4)
    sp.add_argument("--p", default=None)
    sp.add_argument("--epsilon", default=None)
    sp.add_argument("--trials", type=int, default=64)
    sp.add_argument("--retries", type=int, default=10)
    sp.add_argument("--exhaustive", action="store_true")
    sp.set_defaults(fn=_cmd_find)

    sp = sub.add_parser("verify", parents=[_FORMAT, _OUT],
                        help="re-verify a certificate from scratch")
    sp.add_argument("hfile")
    sp.add_argument("certfile")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("gen", parents=[_OUT, _SEED],
                        help="write a generated instance")
    sp.add_argument("--model", required=True,
                    choices=("gnp3", "clique-pendant", "complete"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", default=None)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("sweep", parents=[_OUT, _SEED],
                        help="threshold sweep over (n, c) cells")
    sp.add_argument("--target", required=True, choices=sorted(TARGETS))
    sp.add_argument("--n", required=True, help="comma-separated vertex counts")
    sp.add_argument("--c", required=True,
                    help="comma-separated density coefficients (p = c/sqrt(n))")
    sp.add_argument("--t", type=int, default=4)
    sp.add_argument("--p", default=None,
                    help="estimator inclusion probability (default per target)")
    sp.add_argument("--epsilon", default=None,
                    help="estimator failure budget (default per target)")
    sp.add_argument("--trials", type=int, default=8,
                    help="hosts per (n, c) cell")
    sp.add_argument("--estimator-trials", type=int, default=64,
                    help="trials per sampled coverability test")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--timing", action="store_true",
                    help="record wall-clock seconds (breaks byte reproducibility)")
    sp.set_defaults(fn=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MemoryError) as exc:
        return _fail(str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
