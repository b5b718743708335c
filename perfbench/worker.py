"""Workload process: imports qcorr, makes the untimed first call, then runs.

Started by ``run.py``, which pins BLAS/OpenMP pools to one thread. It
prints ``ready <seconds>`` once the first call has returned (the seconds
are the input construction inside that call, which set-up time excludes)
and, for ``--role run``, one JSON line with its records.

An untraced run calls the workload's entry point in a closed loop for
``--seconds``. A traced run makes a fixed number of calls, each once
untraced and then once under the tracer, so tracing overhead is measured
on the same inputs and the counts repeat exactly between runs of one seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads as wl

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qcorr.cli\n"
    "t1 = time.perf_counter()\n"
    "import scipy.optimize\n"
    "t2 = time.perf_counter()\n"
    "print((t1 - t0) * 1e3, (t2 - t1) * 1e3)\n"
)
IMPORT_PROBES = 3


def timed_calls(workload, order, seconds=None, count=None):
    """Closed loop over the pool in seed order: one caller, no think time.

    The calibration kernel runs between calls, outside the timed region.
    """
    records = []
    started = time.perf_counter()
    cal_before = wl.calibration_s()
    while True:
        k = order[len(records) % len(order)]
        call = wl.make_call(workload, k)
        t0 = time.perf_counter()
        try:
            out, error = wl.serialize(workload, call()), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        cal_after = wl.calibration_s()
        records.append(wl.record(k, out, latency, error,
                                 (cal_before + cal_after) / 2.0))
        cal_before = cal_after
        if count is not None and len(records) >= count:
            return records
        if seconds is not None and time.perf_counter() - started >= seconds:
            return records


def import_probe_ms():
    """Median fresh-interpreter import times of qcorr.cli and scipy.optimize."""
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                             capture_output=True, text=True, check=True)
        samples.append([float(x) for x in out.stdout.split()])
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def warm_count_problems(workload, counts):
    """Compare a traced warm-up call with the counts pinned for its state."""
    from qcorr.bipartite import REFINE_ITERS_DEFAULT

    opt = counts["optimizer"]
    if workload == "haar_verify":
        samples = counts["calls"].get("verify.evaluate_sample", 0)
        got = tuple(counts[k] for k in ("DensityMatrix.inits", "eigvalsh",
                                        "eigh", "svd"))
        want = tuple(n * wl.BLOCK for n in (133, 223, 65, 31))
        if samples != wl.BLOCK or got != want:
            return [f"inits/eigvalsh/eigh/svd over {samples} samples = {got}, "
                    f"expected {want} (133/223/65/31 per sample)"]
    elif workload == "mixed_report":
        at_maxiter = sum(1 for n in opt["optimizer.two_angle"]["iterations"]
                         if n >= REFINE_ITERS_DEFAULT)
        got = (opt["runs"], opt["distinct"], at_maxiter)
        if got != (21, 9, 1):
            return [f"optimizer runs/distinct/two-angle runs at maxiter = "
                    f"{got}, expected (21, 9, 1)"]
    elif workload == "oracle_pure":
        got = (opt["runs"], opt["optimizer.one_angle"]["successes"])
        if got != (6, 6):
            return [f"optimizer runs/successes = {got}, expected (6, 6)"]
    return []


@contextlib.contextmanager
def installed(tracer, problems):
    """Install the tracer; on exit restore and check every patched attribute."""
    tracer.install()
    patched = list(tracer.patched)
    try:
        yield tracer
    finally:
        tracer.uninstall()
        if any(getattr(owner, attr) is not original
               for owner, attr, original in patched):
            problems.append("tracer left a patched attribute behind")


def traced_in_process(workload, seed, tracer, problems):
    """Each input untraced, then traced; interleaving cancels slow drift."""
    import scipy.optimize  # noqa: F401  (the tracer patches it)

    with installed(tracer, problems):
        wl.make_call(workload, wl.WARM_INPUT[workload])()
        problems += warm_count_problems(workload, tracer.counts())
    tracer.reset()
    records, traced_s = [], 0.0
    for i, k in enumerate(wl.input_order(workload, seed)[:wl.TRACE_CALLS[workload]]):
        rec = timed_calls(workload, [k], count=1)[0]
        records.append(rec)
        call = wl.make_call(workload, k)
        with installed(tracer, problems):
            tracer.unit = i
            t0 = time.perf_counter()
            out = call()
            traced_s += time.perf_counter() - t0
        if wl.serialize(workload, out) != rec["output"]:
            rec["error"] = "traced output differs from untraced"
    units = len(records) * wl.UNITS_PER_CALL[workload]
    return records, units, {
        "cli.main.self_ms": 0.0,
        "cli.process_ms": 0.0,
        **trace_rates(units, sum(r["latency_s"] for r in records), traced_s),
    }


def trace_rates(units, untraced_s, traced_s):
    return {"trace.ops_per_s": units / traced_s,
            "trace.overhead_ops_per_s": units / traced_s - units / untraced_s}


def cli_in_process(argv):
    from qcorr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return {"stdout": out.getvalue(), "rc": rc}, elapsed


def traced_cli(seed, work_dir, tracer, problems):
    """One rotation: each command as a fresh process, then in-process
    untraced and traced, interleaved."""
    import scipy.optimize  # noqa: F401  (kept out of the in-process timings)

    variant = wl.input_order("cli_oneshot", seed)[0]
    commands = wl.write_cli_inputs(variant, work_dir)
    commands = commands[:wl.TRACE_CALLS["cli_oneshot"]]
    cli_in_process(["analyze", "ghz"])  # warm the in-process path
    tracer.reset()
    records, process_s, untraced_s, traced_s = [], [], 0.0, 0.0
    for i, (key, argv) in enumerate(commands):
        out, dt = wl.cli_subprocess(argv)
        rec = wl.record([variant, key], out, dt)
        records.append(rec)
        out, wall = cli_in_process(argv)
        process_s.append(dt - wall)
        untraced_s += wall
        if out != rec["output"]:
            rec["error"] = "in-process output differs from subprocess"
        with installed(tracer, problems):
            tracer.unit = i
            out, wall = cli_in_process(argv)
        traced_s += wall
        if out != rec["output"]:
            rec["error"] = "traced output differs from untraced"
    n = len(commands)
    return records, n, {"cli.process_ms": statistics.fmean(process_s) * 1e3,
                        **trace_rates(n, untraced_s, traced_s)}


def run_traced(workload, seed, work_dir, out_dir):
    """Per-layer metrics, problems found and outputs of one traced run."""
    tracer = tracing.Tracer()
    problems = []
    if workload == "cli_oneshot":
        records, units, extra = traced_cli(seed, work_dir, tracer, problems)
    else:
        records, units, extra = traced_in_process(workload, seed, tracer,
                                                  problems)
    metrics = tracer.per_layer(units)
    metrics.update(extra)
    metrics["cli.import_ms"], metrics["cli.scipy_import_ms"] = import_probe_ms()
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    tracer.write_spans(spans)
    return {"records": records, "per_layer": metrics, "problems": problems,
            "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--role", required=True, choices=("setup", "run"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--out-dir")
    args = parser.parse_args(argv)

    if args.trace:
        print("ready 0", flush=True)
        result = run_traced(args.workload, args.seed, args.work_dir,
                            args.out_dir)
    else:
        import qcorr  # noqa: F401  (import is set-up, input construction is not)

        started = time.perf_counter()
        call = wl.make_call(args.workload, wl.WARM_INPUT[args.workload])
        gen_s = time.perf_counter() - started
        call()
        print(f"ready {gen_s!r}", flush=True)
        if args.role == "setup":
            return 0
        order = wl.input_order(args.workload, args.seed)
        result = {"records": timed_calls(args.workload, order,
                                         seconds=args.seconds)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
