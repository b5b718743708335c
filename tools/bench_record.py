"""Assemble a BENCH_<sha>.json from saved perfbench/run.py output.

Each run's stdout is saved as <workload>-<side>-<seed>-trace<0|1>.txt in one
directory, side being "parent" or "change", with the same --seconds on both
sides. An order file lists the runs as they ran, one "<side> <workload>
<seed> <trace>" line each; extra words (a clock time) are ignored. For
example, with a checkout of each side:

    (cd $SIDE_DIR && python3 perfbench/run.py --workload haar_verify \\
        --seed 7301 --seconds 20 --trace 0) > out/haar_verify-$SIDE-7301-trace0.txt

    python3 tools/bench_record.py out out/order.txt --seconds 20 \\
        --parent 1961a8d --change "working tree on 1961a8d" > BENCH_1961a8d.json

Per workload, the file holds each untraced run's env and result lines, the
median and quartiles of each end-to-end metric of BENCHMARK.json on each
side, the change/parent ratio of the medians, the pairs the change won
(pairs share a seed; ties count for neither side) and whether the median
stayed within the metric's bound, and the result line of one traced run
per side. A workload without runs is left out. Uses the standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
NFEV_CAVEAT = ("optimizer.*.nfev_per_run counts only the evaluations after a "
               "search's start, not its start grid (ROADMAP item 1)")


def read_run(path):
    """(env, result) of one saved run.py stdout: its env line and last line."""
    lines = path.read_text().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), quartiles interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metric, runs):
    """Medians, quartiles, ratio, pairs won and bound check of one end-to-end metric."""
    name, higher = metric["name"], metric["better"] == "higher"
    values = {side: {seed: result["metrics"][name]["value"]
                     for seed, (_, result) in runs[side].items()} for side in SIDES}
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        q1, median, q3 = quartiles(sorted(values[side].values()))
        out[side] = {"median": median, "q1": q1, "q3": q3}
    parent, change = out["parent"]["median"], out["change"]["median"]
    seeds = sorted(set(values["parent"]) & set(values["change"]))
    wins = [values["change"][s] > values["parent"][s] if higher
            else values["change"][s] < values["parent"][s] for s in seeds
            if values["change"][s] != values["parent"][s]]
    worse_by = (parent - change if higher else change - parent) / parent
    out.update(ratio=change / parent, pairs=len(seeds), pairs_won=sum(wins),
               worse_by=worse_by, within_bound=worse_by <= metric["bound"],
               parent_spread=(out["parent"]["q3"] - out["parent"]["q1"]) / parent)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=pathlib.Path, help="directory of saved run.py stdout")
    parser.add_argument("order", type=pathlib.Path, help="file listing the runs in order")
    parser.add_argument("--seconds", type=float, required=True, help="run.py --seconds")
    parser.add_argument("--parent", required=True, help="what the parent side ran")
    parser.add_argument("--change", required=True, help="what the change side ran")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    order = [line.split()[:4] for line in args.order.read_text().splitlines()
             if len(line.split()) >= 4]
    workloads = {}
    for item in bench["workloads"]:
        name = item["name"]
        runs = {side: {} for side in SIDES}
        traced = {}
        for side, workload, seed, trace in order:
            if workload != name:
                continue
            env, result = read_run(args.runs / f"{name}-{side}-{seed}-trace{trace}.txt")
            if trace == "1":
                traced[side] = {"seed": int(seed), "env": env, "result": result}
            else:
                runs[side][int(seed)] = (env, result)
        if not runs["parent"]:
            continue
        workloads[name] = {
            "why": item["why"],
            "seeds": sorted(runs["parent"]),
            "runs": {side: [{"seed": seed, "env": env, "result": result}
                            for seed, (env, result) in sorted(runs[side].items())]
                     for side in SIDES},
            "failed": {side: sum(r["failed"] for _, r in runs[side].values()) for side in SIDES},
            "end_to_end": {m["name"]: summarize(m, runs) for m in bench["end_to_end"]},
            "traced": traced,
        }
    record = {
        "parent": args.parent,
        "change": args.change,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace <0|1>",
        "run_order": [{"side": side, "workload": w, "seed": int(seed), "trace": int(trace)}
                      for side, w, seed, trace in order],
        "notes": [NFEV_CAVEAT],
        "workloads": workloads,
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
