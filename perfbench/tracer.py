"""Outside-in span tracing of the diskcover layers.

The tracer wraps public functions of the package from outside: for each
traced function it builds a timing wrapper and rebinds every reference
to the original that the ``diskcover.*`` modules hold (module globals,
and values inside module-level dicts and lists such as the finder
registries). Nothing under ``src/`` is edited, and ``uninstall`` puts
every original back.

A span's self time is its duration minus the time covered by the spans
it caused. Observers attached to some spans read the call's arguments
or result to count work (triples scanned, trial bits drawn, glue
failures, finder stages); they run after the span's clock stops and are
charged to no span, so they show up only in the tracing overhead.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import types

# Stages a finder can report; any other stage counts as "other".
STAGES = ("done", "link-selection", "core-vertices", "pattern-vertices",
          "cycle-selection", "apex-selection", "hub-selection", "glue",
          "verify", "other")

LAYERS = ("generators", "hypergraph", "rng", "coverability", "complexes",
          "search", "verify", "experiments")


class Span:
    """Accumulated calls, self time, named counts and distinct keys of one
    span name."""

    __slots__ = ("calls", "self_s", "counts", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}
        self.keys: set = set()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


# ---------------------------------------------------------------------------
# observers: (span, args, kwargs, result) -> None


def _result_triples(span, args, kwargs, result):
    span.add("triples", len(result.edges))


def _input_triples(span, args, kwargs, result):
    span.add("triples", len(args[0].edges))


def _pair_key(span, args, kwargs, result):
    H, v, vp = args[:3]
    # a host is identified by id, size and edge count: ids of freed hosts
    # can be reused, but not by a host of the same shape in practice
    span.keys.add((id(H), H.n, len(H.edges), min(v, vp), max(v, vp)))


def _trial_bits(span, args, kwargs, result):
    trials, width = args[2], args[3]
    span.add("bits", trials * width)


def _coverability(span, args, kwargs, result):
    span.add("trials", result.trials)
    span.add("hits", result.successes)


def _glue(span, args, kwargs, result):
    if not isinstance(result, list):
        span.add("failures")
        span.add("cycle_failures", sum(result.cycle_failures))


def _find(span, args, kwargs, result):
    stage = getattr(result, "stage", "done")
    span.add("stage." + (stage if stage in STAGES else "other"))
    span.add("retries", result.retries)


def _verify(span, args, kwargs, result):
    if result.passed:
        span.add("passed")


# (module, function, span name or None for "module.function", observer)
TRACED = (
    ("generators", "random_hypergraph", None, _result_triples),
    ("hypergraph", "complete_hypergraph", None, None),
    ("hypergraph", "skeleton", None, _input_triples),
    ("hypergraph", "link", None, None),
    ("hypergraph", "link_intersection", None, _pair_key),
    ("rng", "trial_masks", None, _trial_bits),
    ("coverability", "sample_disk_coverability", None, _coverability),
    ("coverability", "pair_psi", None, None),
    ("coverability", "exact_admissibility", None, None),
    ("coverability", "admissibility_probabilities", None, None),
    ("coverability", "inadmissible_p2_audit", None, None),
    ("coverability", "weighted_inadmissibility_audit", None, None),
    ("complexes", "classify", None, None),
    ("complexes", "is_boundary_inducing", None, None),
    ("search", "glue_disks", None, _glue),
    ("search", "find_k_t_homeomorph", "search.find", _find),
    ("search", "find_sphere", "search.find", _find),
    ("search", "find_torus", "search.find", _find),
    ("search", "find_projective_plane", "search.find", _find),
    ("verify", "verify_certificate", None, _verify),
    ("experiments", "threshold_sweep", None, None),
    ("experiments", "audit_corpus", None, None),
)


def span_names() -> list[str]:
    names = []
    for mod, fn, name, _ in TRACED:
        name = name or f"{mod}.{fn}"
        if name not in names:
            names.append(name)
    return names


# Per-layer metric catalogue: (name, unit, better). BENCHMARK.json lists
# exactly these, in this order.
def catalogue() -> list[tuple[str, str, str]]:
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("hypergraph.link_intersection.distinct_pairs", "count", "lower"),
        ("hypergraph.skeleton.triples", "count", "lower"),
        ("generators.random_hypergraph.triples", "count", "lower"),
        ("rng.trial_masks.bits", "count", "lower"),
        ("coverability.sample_disk_coverability.trials", "count", "lower"),
        ("coverability.sample_disk_coverability.hit_rate", "ratio", "higher"),
        ("search.glue_disks.fail_rate", "ratio", "lower"),
        ("search.glue_disks.cycle_failures", "count", "lower"),
        ("search.find.found_rate", "ratio", "higher"),
        ("search.retries", "count", "lower"),
    ]
    out += [(f"search.stage.{s}", "count", "lower") for s in STAGES]
    out.append(("verify.verify_certificate.pass_rate", "ratio", "higher"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("bench.self_s", "s", "lower"),
        ("trace.span_share", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def package_modules(pkg) -> list[types.ModuleType]:
    """The package and every submodule, imported."""
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _holders(mods, include_frozen: bool, skip=frozenset()):
    """Yield (description, value, setter or None) for every place a
    module keeps a callable: globals, values of module-level dicts and
    lists, class attributes, function defaults and closure cells.
    Immutable holders (tuples, sets, defaults, closures) are yielded with
    no setter, and only when asked for. Functions whose id is in `skip`
    (the tracer's own wrappers) are not looked into."""
    for mod in mods:
        for name, val in list(vars(mod).items()):
            where = f"{mod.__name__}.{name}"
            yield where, val, (lambda v, m=mod, n=name: setattr(m, n, v))
            if isinstance(val, dict):
                for k, item in list(val.items()):
                    yield (f"{where}[{k!r}]", item,
                           lambda v, d=val, k=k: d.__setitem__(k, v))
            elif isinstance(val, list):
                for i, item in enumerate(val):
                    yield (f"{where}[{i}]", item,
                           lambda v, lst=val, i=i: lst.__setitem__(i, v))
            elif include_frozen and isinstance(val, (tuple, frozenset, set)):
                for item in val:
                    yield f"{where} (immutable)", item, None
            elif (inspect.isclass(val)
                  and getattr(val, "__module__", "") == mod.__name__):
                for k, item in list(vars(val).items()):
                    item = getattr(item, "__func__", item)
                    yield f"{where}.{k}", item, None
            elif (include_frozen and isinstance(val, types.FunctionType)
                  and id(val) not in skip):
                for item in (val.__defaults__ or ()):
                    yield f"{where} default", item, None
                for item in (val.__kwdefaults__ or {}).values():
                    yield f"{where} default", item, None
                for cell in (val.__closure__ or ()):
                    try:
                        item = cell.cell_contents
                    except ValueError:  # empty cell
                        continue
                    yield f"{where} closure", item, None


class Tracer:
    """Install span wrappers on the traced functions of a package."""

    def __init__(self, pkg, clock=time.perf_counter):
        self.pkg = pkg
        self.mods = package_modules(pkg)
        self.spans = {name: Span() for name in span_names()}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._wrapped: dict[int, tuple[object, object]] = {}
        self._undo: list[tuple[object, object]] = []
        self._clock = clock

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, span: Span, observe):
        stack, clock = self._stack, self._clock

        def enter():
            frame = [0.0, clock()]
            stack.append(frame)
            return frame

        def leave(frame, done: bool, observed=None):
            """Close a span step; `done` ends the call, `observed` is the
            (args, kwargs, result) of a call that returned."""
            end = clock()
            stack.pop()
            span.self_s += end - frame[1] - frame[0]
            span.calls += done
            if observed is not None and observe is not None:
                observe(span, *observed)
            if stack:
                stack[-1][0] += clock() - frame[1]

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        leave(frame, True)
                        return
                    except BaseException:
                        leave(frame, True)
                        raise
                    leave(frame, False)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    leave(frame, True)
                    raise
                leave(frame, True, (args, kwargs, result))
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        by_name = {m.__name__: m for m in self.mods}
        for mod, fn_name, name, observe in TRACED:
            module = by_name.get(f"{self.pkg.__name__}.{mod}")
            fn = getattr(module, fn_name, None) if module else None
            if fn is None:
                self.missing.append(f"{mod}.{fn_name}")
                continue
            span = self.spans[name or f"{mod}.{fn_name}"]
            self._wrapped[id(fn)] = (fn, self._wrap(fn, span, observe))
        for _, val, setter in _holders(self.mods, include_frozen=False):
            hit = self._wrapped.get(id(val))
            if hit is not None and hit[0] is val and setter is not None:
                setter(hit[1])
                self._undo.append((setter, val))

    def uninstall(self) -> None:
        for setter, original in reversed(self._undo):
            setter(original)
        self._undo.clear()

    def stray_aliases(self) -> list[str]:
        """Places still holding an unwrapped traced function.

        Any hit means a call path that the trace would silently miss.
        """
        stray = []
        for where, val, _ in _holders(self.mods, True,
                                      skip=self._wrapper_ids()):
            hit = self._wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                stray.append(where)
        return stray

    def wrappers_left(self) -> list[str]:
        """Places still holding a wrapper (must be empty after uninstall)."""
        wrappers = self._wrapper_ids()
        return [where for where, val, _ in
                _holders(self.mods, include_frozen=True)
                if id(val) in wrappers]

    def _wrapper_ids(self) -> set[int]:
        return {id(wrapper) for _, wrapper in self._wrapped.values()}

    # -- metrics ----------------------------------------------------------

    def metrics(self, traced_wall: float, slowdown: float) -> dict:
        """Per-layer metrics. traced_wall is the traced pass's duration;
        slowdown is its op time over that of the same ops untraced."""
        s = self.spans
        out: dict[str, float] = {}
        for name, span in s.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
        cov = s["coverability.sample_disk_coverability"]
        glue = s["search.glue_disks"]
        find = s["search.find"]
        ver = s["verify.verify_certificate"]
        out.update({
            "hypergraph.link_intersection.distinct_pairs":
                len(s["hypergraph.link_intersection"].keys),
            "hypergraph.skeleton.triples":
                s["hypergraph.skeleton"].counts.get("triples", 0),
            "generators.random_hypergraph.triples":
                s["generators.random_hypergraph"].counts.get("triples", 0),
            "rng.trial_masks.bits": s["rng.trial_masks"].counts.get("bits", 0),
            "coverability.sample_disk_coverability.trials":
                cov.counts.get("trials", 0),
            "coverability.sample_disk_coverability.hit_rate":
                _ratio(cov.counts.get("hits", 0), cov.counts.get("trials", 0)),
            "search.glue_disks.fail_rate":
                _ratio(glue.counts.get("failures", 0), glue.calls),
            "search.glue_disks.cycle_failures":
                glue.counts.get("cycle_failures", 0),
            "search.find.found_rate":
                _ratio(find.counts.get("stage.done", 0), find.calls),
            "search.retries": find.counts.get("retries", 0),
            "verify.verify_certificate.pass_rate":
                _ratio(ver.counts.get("passed", 0), ver.calls),
        })
        for stage in STAGES:
            out[f"search.stage.{stage}"] = find.counts.get(f"stage.{stage}", 0)
        span_total = sum(span.self_s for span in s.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                span.self_s for name, span in s.items()
                if name.split(".")[0] == layer)
        out["bench.self_s"] = traced_wall - span_total
        out["trace.span_share"] = _ratio(span_total, traced_wall)
        out["trace.overhead"] = slowdown - 1.0
        return out
