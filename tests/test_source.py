"""Source checks that need no linter: unused imports and dead private names
in the package, the functions the benchmark tracer wraps, the one module
that packs bit rows, the search modules that never decode the host, and
the CLI functions that may catch ValueError, read with `ast` alone."""

import ast
import importlib
from pathlib import Path

import diskcover

SRC = Path(diskcover.__file__).parent
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    return {elt.value for stmt in tree.body if "__all__" in _defined(stmt)
            for elt in stmt.value.elts}


def test_every_import_is_used():
    # __init__ imports to re-export; another module re-exports through __all__
    unused = {}
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= _exported(tree)
        if _imported(tree) - read:
            unused[name] = sorted(_imported(tree) - read)
    assert unused == {}


def test_every_private_name_is_referenced():
    statements = [(name, stmt) for name, tree in MODULES.items()
                  for stmt in tree.body]
    refs = [_referenced(stmt) for _, stmt in statements]
    dead = []
    for i, (name, stmt) in enumerate(statements):
        for private in _defined(stmt):
            if not private.startswith("_") or private.startswith("__"):
                continue
            if not any(private in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{name}:{private}")
    assert dead == []


def test_traced_functions_exist():
    # the tracer only warns about a traced name it cannot find, so a rename
    # in the package would silently drop that span from every traced run
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    [traced] = [stmt.value for stmt in tree.body if "TRACED" in _defined(stmt)]
    names = [tuple(ast.literal_eval(e) for e in entry.elts[:2])
             for entry in traced.elts]
    assert len(names) > 10
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(
                   importlib.import_module(f"diskcover.{mod}"), fn, None))]
    assert missing == []


def test_only_rng_packs_bit_rows():
    # rng.row_masks is the one encoder of bit rows, so their format stays
    # behind one module
    packers = [name for name, tree in MODULES.items()
               if name != "rng.py" and "packbits" in _referenced(tree)]
    assert packers == []


def test_searches_never_decode_the_whole_host():
    # the search, coverability and verifier code read the host through its
    # link rows and binary searches in its codes, never by decoding every
    # triple
    callers = [name for name in ("coverability.py", "search.py", "verify.py")
               for node in ast.walk(MODULES[name])
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "triples"]
    assert callers == []


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    """Whether an except clause catches ValueError: by name, in a tuple,
    through a base class, or bare."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name)
               and t.id in ("ValueError", "Exception", "BaseException")
               for t in types)


def test_cli_has_one_usage_error_path():
    # main turns a ValueError into `error:` and exit 2; audit makes error
    # rows of bad files, and verify prefixes `malformed certificate:`
    catchers = {fn.name for fn in MODULES["cli.py"].body
                if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.ExceptHandler)
                        and _catches_value_error(node)
                        for node in ast.walk(fn))}
    assert catchers - {"main", "_cmd_audit", "_cmd_verify"} == set()
