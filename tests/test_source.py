"""Checks on the source tree: imports, the counts the benchmark pins, and the
script that records benchmark runs."""

import ast
import importlib
import importlib.util
import json
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
    paths = [*(ROOT / "src" / "qcorr").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in sorted(paths):
        if path.name != "__init__.py":
            found = _unused_imports(ast.parse(path.read_text()))
            if found:
                unused[path.relative_to(ROOT).as_posix()] = found
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


def test_bench_record_summarizes_pairs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    order = []
    for side, seed, ops, rss in (("parent", 1, 10.0, 40.0), ("change", 1, 11.0, 40.0),
                                 ("change", 2, 11.0, 41.0), ("parent", 2, 12.0, 40.0)):
        metrics = {"setup_s": 1.0, "ops_per_s": ops, "latency_p50_ms": 5.0, "peak_rss_mb": rss}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
        (tmp_path / f"oracle_pure-{side}-{seed}-trace0.txt").write_text(
            f"env {json.dumps({'seed': seed})}\noracle_pure ...\n{json.dumps(result)}\n")
        order.append(f"{side} oracle_pure {seed} 0 12:00:00")
    (tmp_path / "order.txt").write_text("\n".join(order))
    bench_record.main([str(tmp_path), str(tmp_path / "order.txt"), "--seconds", "1",
                       "--parent", "p", "--change", "c"])
    record = json.loads(capsys.readouterr().out)
    assert list(record["workloads"]) == ["oracle_pure"]
    ops = record["workloads"]["oracle_pure"]["end_to_end"]["ops_per_s"]
    # seed 1 is won, seed 2 lost
    assert (ops["parent"]["median"], ops["change"]["median"], ops["pairs_won"]) == (11.0, 11.0, 1)
    rss = record["workloads"]["oracle_pure"]["end_to_end"]["peak_rss_mb"]
    # a tie, then a loss; the median rose by 1.25%, within peak_rss_mb's 5% bound
    assert rss["pairs_won"] == 0 and rss["worse_by"] == 0.0125 and rss["within_bound"]
