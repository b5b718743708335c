"""Smoke test of the benchmark itself, kept out of the tier-1 test suite.

Run from the root of a checkout (takes a few minutes):

    python3 perfbench/smoke.py

For every workload at a tiny size it checks that an untraced run prints
all six end-to-end metrics with their units and a result line carrying the
metrics BENCHMARK.json declares, and that a traced run emits every
per-layer metric. The traced run compares each traced output with the
untraced output of the same input and fails the run on any difference.
Finally it installs and removes the tracer in-process and checks that
every attribute it patched is restored.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def bench(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (got, declared)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()), result


def snapshot():
    import numpy.linalg
    import scipy.optimize
    import qcorr.cli  # noqa: F401
    from qcorr.qstate import DensityMatrix

    modules = [m for key, m in sys.modules.items()
               if key == "qcorr" or key.startswith("qcorr.")]
    state = {(id(m), key): value for m in modules
             for key, value in vars(m).items()}
    state[("DensityMatrix", "__init__")] = DensityMatrix.__init__
    for name in tracing.LINALG_FUNCTIONS:
        state[("numpy.linalg", name)] = getattr(numpy.linalg, name)
    state[("scipy.optimize", "minimize")] = scipy.optimize.minimize
    return state


def check_restored():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    patched = len(tracer.patched)
    during = snapshot()
    tracer.uninstall()
    after = snapshot()
    changed = sum(1 for key in before if during[key] is not before[key])
    assert changed == patched > 0, (changed, patched)
    stale = [key for key in before if after[key] is not before[key]]
    assert not stale, stale
    return patched


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {n: u for n, u, _ in tracing.PER_LAYER}
    for workload in wl.NAMES:
        lines, result = bench(workload, 0)
        check_result(result, end_to_end)
        for name, unit in run.END_TO_END_UNITS.items():
            assert any(line.startswith(f"{workload} {name} = ")
                       and line.split()[4] == unit for line in lines), (name, lines)
        _, traced = bench(workload, 1)
        check_result(traced, per_layer)
        print(f"{workload}: ok ({result['attempted']} untraced calls, "
              f"{traced['attempted']} traced calls)", flush=True)
    print(f"tracer: ok ({check_restored()} patched attributes restored)")


if __name__ == "__main__":
    main()
