"""Checks on the source tree: imports, and the names the benchmark traces."""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(tree):
    """Names an import binds in tree that no Name node reads, with lines."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # __init__.py imports in order to export, so it is not scanned
    sample = "import os.path\nimport numpy as np\nfrom x import y, z\nos, z"
    assert _unused_imports(ast.parse(sample)) == [(2, "np"), (3, "y")]
    unused = {}
    for path in sorted((ROOT / "src" / "qcorr").glob("*.py")):
        if path.name != "__init__.py":
            found = _unused_imports(ast.parse(path.read_text()))
            if found:
                unused[path.name] = found
    assert unused == {}


def test_traced_names_exist():
    # perfbench/tracer.py looks each name up with getattr, so a deleted or
    # renamed function would otherwise fail only the benchmark's smoke job.
    # The tracer imports only the standard library at module level.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"qcorr.{module}.{name}"
               for module, names in tracer.QCORR_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"qcorr.{module}"),
                                       name, None))]
    assert tracer.QCORR_FUNCTIONS and missing == []
