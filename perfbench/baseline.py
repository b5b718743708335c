"""Record the benchmark's baseline: every workload on several seeds.

Run from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 10] [workload ...]

For each workload it runs ``run.py --trace 0`` once per seed (seeds 1, 2,
..., run_seconds from BENCHMARK.json), prints all six end-to-end metrics
with their units, and reports each metric's median, quartiles and spread
(quartile distance over median), both at reference machine speed and for
the raw times the runner prints beside them. It then makes two
traced runs of the first seed, sets their counts side by side and checks
that they repeat exactly, and reports the tracing overhead (traced minus
untraced ops_per_s on the same calls, from the first traced run). The
result goes to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

import run
import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
METRIC_LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)(?:  \((.*)\))?$")
RAW_NOTE = re.compile(r"\braw (\S+) ")
BASELINE = os.path.join(HERE, "baseline.json")


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    named = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match and match.group(1) == workload:
            _, name, value, unit, note = match.groups()
            named[name] = {"value": None if value == "-" else float(value),
                           "unit": unit, "note": note}
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return result, named, env


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("workloads", nargs="*", default=list(wl.NAMES))
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, 1 + args.seeds))
    report = {"workloads": {}}
    if os.path.exists(BASELINE):  # keep workloads this call does not rerun
        with open(BASELINE, encoding="utf-8") as handle:
            report = json.load(handle)
    report.update(run_seconds=seconds, seeds=seeds)
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, named, env = bench(workload, seed, seconds, 0)
            runs.append((result, named))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                             for k, v in named.items() if v["value"] is not None),
                  flush=True)
        report["environment"] = {k: v for k, v in env.items() if k != "seed"}
        entry = {"correct": all(r["correct"] for r, _ in runs),
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "end_to_end": {}}
        for name, unit in run.END_TO_END_UNITS.items():
            values = [n[name]["value"] for _, n in runs
                      if n[name]["value"] is not None]
            stats = spread(values) if len(values) >= 2 else {"values": values}
            stats.update(unit=unit, bound=bounds.get(name),
                         note=runs[0][1][name]["note"])
            raw = [float(m.group(1)) for _, n in runs
                   for m in [RAW_NOTE.search(n[name]["note"] or "")] if m]
            if len(raw) == len(runs) >= 2:
                stats["raw"] = spread(raw)
            entry["end_to_end"][name] = stats
            shown = (f"median {stats['median']:.6g} {unit}, quartiles "
                     f"{stats['q1']:.6g}..{stats['q3']:.6g}, spread "
                     f"{stats['spread']:.3f}" if "median" in stats
                     and stats["spread"] is not None else f"values {values}")
            if "raw" in stats:
                shown += f"; raw spread {stats['raw']['spread']:.3f}"
            print(f"  {workload} {name}: {shown}"
                  + (f" (bound {bounds[name]})" if name in bounds else ""))

        traced = [bench(workload, seeds[0], seconds, 1)[0] for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        counts = {name: [first[name]["value"], second[name]["value"]]
                  for name in tracing.COUNT_METRICS}
        repeat = all(a == b for a, b in counts.values())
        entry["traced"] = {
            "seed": seeds[0],
            "correct": [t["correct"] for t in traced],
            "counts_side_by_side": counts,
            "counts_repeat_exactly": repeat,
            "per_layer": {name: m["value"] for name, m in first.items()},
            "overhead_ops_per_s": first["trace.overhead_ops_per_s"]["value"],
        }
        print(f"  {workload} traced: counts repeat exactly = {repeat}; "
              f"overhead {first['trace.overhead_ops_per_s']['value']:.4g} units/s "
              f"in-run", flush=True)
        report["workloads"][workload] = entry

    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"wrote {BASELINE}")


if __name__ == "__main__":
    main()
