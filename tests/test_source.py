"""Checks on the source tree: imports, and the counts the benchmark pins."""

import ast
import importlib
import pathlib

import pytest

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


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py, whose modules import each other by bare name."""
    with monkeypatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        return importlib.import_module("worker")


@pytest.mark.parametrize("workload", ["haar_verify", "mixed_report", "oracle_pure"])
def test_benchmark_warm_call_counts(worker, workload):
    # what worker.traced_in_process checks before its timed calls: the
    # counts of one traced warm-up call against those perfbench pins. The
    # tracer looks up every name it wraps with getattr and counts the
    # searches at a patched scipy.optimize.minimize, so a renamed traced
    # function, or a search that bypasses minimize, fails here too
    tracer, problems = worker.tracing.Tracer(), []
    with worker.installed(tracer, problems):
        worker.wl.make_call(workload, worker.wl.WARM_INPUT[workload])()
        problems += worker.warm_count_problems(workload, tracer.counts())
    assert problems == []
