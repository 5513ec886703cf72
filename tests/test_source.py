import ast
import importlib
import inspect
import json
from pathlib import Path

import gkmflag

PACKAGE = Path(gkmflag.__file__).parent


def test_library_has_no_assert_statements():
    """Library invariants raise explicitly, so ``python -O`` keeps them."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_polyring_divides_only_through_one_helper():
    """Every true division in every library module is ``polyring._div``'s,
    which divides a Fraction and returns polyring's normal form; a ``/``
    elsewhere could divide two int coefficients into a float."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path.name == "polyring.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_div")
            inside = {id(node) for node in ast.walk(helper)}
        outside += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div) and id(node) not in inside]
    assert outside == []


def test_library_has_no_floats():
    """No library module calls ``float(`` or writes a float literal."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float(")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_benchmark_layer_functions_exist():
    """Every function a per-layer benchmark metric names is still defined.

    The tracer refuses a run whose metric names a function it did not
    wrap, so deleting or moving such a function must fail here first.
    """
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        layer, *path, stat = metric["name"].split(".")
        if stat not in ("calls", "self_s") or not path:
            continue  # layer totals and special metrics
        obj = importlib.import_module(f"gkmflag.{layer}")
        for attr in path:
            obj = vars(obj).get(attr)
            if obj is None:
                break
        if not inspect.isfunction(obj) or obj.__module__ != f"gkmflag.{layer}":
            missing.append(metric["name"])
    assert missing == []


def test_graph_file_layout_lives_in_gkmgraph():
    """Graph and bundle files are written only through
    ``gkmgraph.graph_json_chunks``: no other library module or script
    builds a graph's dict form or dumps one with ``json``."""
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "scripts").glob("*.py")]):
        if path.name == "gkmgraph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: {node.id}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in ("graph_to_json", "bundle_to_json")]
        found += [f"{path.name}:{node.lineno}: {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("graph_to_json", "bundle_to_json")]
    assert found == []


def test_no_per_edge_view():
    """A graph is its edge columns: no module of the library, the scripts
    or the benchmark defines a class ``Edge`` or reads an ``edges``
    attribute, so no walk builds an object per edge."""
    root = PACKAGE.parents[1]
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *(root / "scripts").glob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: class {node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "Edge"]
        found += [f"{path.name}:{node.lineno}: .edges" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "edges"]
    assert found == []


def test_no_unused_top_level_imports():
    """Every name a module's top-level imports bind is read somewhere in
    that module, or exported through its ``__all__``, in the library,
    the scripts and the tests."""
    root = PACKAGE.parents[1]
    found = []
    for path in sorted([*PACKAGE.glob("*.py"), *(root / "scripts").glob("*.py"),
                        *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                             for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{line}: {name}" for name, line in bound.items()
                  if name not in read and name not in exported]
    assert found == []
