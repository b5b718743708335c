"""qcorr benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload haar_verify --seed 1 --seconds 20 --trace 0

The runner imports no qcorr code. It starts each workload in fresh
processes with BLAS/OpenMP pools pinned to one thread, so the runner plus
one workload process fit in two cores. Timed metrics are reported at a
reference machine speed (see ``workloads.calibration_s`` and
``workloads.import_kernel_s``); the raw times are printed beside them. It
checks every call's output against the references in
``perfbench/reference`` and prints, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``. The lines above it give the environment and
every metric by name with its unit, including ``failed_ratio`` and
``latency_tail_ms``. See README.md for the definitions.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # inherited by every process the runner starts
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# Fresh-interpreter set-ups per run, half before and half after the timed
# phase; setup_s is their median.
SETUPS = {"haar_verify": 8, "mixed_report": 3, "oracle_pure": 8,
          "cli_oneshot": 8}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
TAIL_MIN_CALLS = 21

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "units/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "failed_ratio": "1", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def environment(seed):
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": git_commit(), "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def git_commit():
    """HEAD of the checkout's own git repository; None outside git."""
    root = os.getcwd()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=root, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def start_worker(args, role, work_dir):
    """Start a worker; return it and its set-up time.

    Set-up runs from just before the interpreter starts to the end of the
    worker's first, untimed call, minus the input construction inside it.
    """
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--role", role, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--out-dir", args.out_dir]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if not line.startswith("ready "):
        proc.wait()
        raise BenchError(f"worker exited with {proc.returncode} before its "
                         f"first call completed")
    return proc, ready - started - float(line.split()[1])


def finish_worker(proc):
    """Wait for a worker; return its last stdout line as JSON, if any."""
    lines = proc.stdout.read().strip().splitlines()
    proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]) if lines else None


def setup_samples(set_up, n):
    """(seconds, import-kernel time) of n set-ups.

    The import kernel runs before the first set-up and after each one, and
    each set-up is paired with the mean of the kernel times around it.
    """
    samples = []
    before = wl.import_kernel_s()
    for _ in range(n):
        seconds = set_up()
        after = wl.import_kernel_s()
        samples.append((seconds, (before + after) / 2.0))
        before = after
    return samples


def run_in_process_workload(args, work_dir):
    """Set-up samples from set-up-only workers around one timed worker."""
    def set_up():
        proc, seconds = start_worker(args, "setup", work_dir)
        finish_worker(proc)
        return seconds

    n = SETUPS[args.workload]
    setups = setup_samples(set_up, n // 2)
    proc, _ = start_worker(args, "run", work_dir)
    records = finish_worker(proc)["records"]
    return records, setups + setup_samples(set_up, n - n // 2)


def run_cli_workload(args, work_dir):
    """Whole rotations of fresh ``python -m qcorr`` processes, one at a time.

    Set-up is a fresh process running the rotation's first command. Only
    whole rotations run, so every run has the same command mix. The
    calibration kernel runs between processes.
    """
    def set_up():
        return wl.cli_subprocess(["analyze", "ghz"])[1]

    n = SETUPS["cli_oneshot"]
    setups = setup_samples(set_up, n // 2)
    order = wl.input_order("cli_oneshot", args.seed)
    records = []
    started = time.perf_counter()
    rotation = 0
    cal_before = wl.calibration_s()
    while rotation == 0 or time.perf_counter() - started < args.seconds:
        variant = order[rotation % len(order)]
        for key, argv in wl.write_cli_inputs(variant, work_dir):
            out, dt = wl.cli_subprocess(argv)
            cal_after = wl.calibration_s()
            records.append(wl.record([variant, key], out, dt, None,
                                     (cal_before + cal_after) / 2.0))
            cal_before = cal_after
        rotation += 1
    return records, setups + setup_samples(set_up, n - n // 2)


def latency_tail(latencies):
    """(percentile, value, calls beyond) of the highest percentile with at
    least ten calls beyond it, by nearest rank; None below 21 calls."""
    n = len(latencies)
    if n < TAIL_MIN_CALLS:
        return None
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return None


def at_reference_speed(seconds, cal_s):
    """Wall time scaled to the machine speed at which the kernel takes CAL_REF_S."""
    return seconds * wl.CAL_REF_S / cal_s


def setup_at_reference_speed(seconds, import_s):
    """Set-up time scaled to the speed at which the import kernel takes
    IMPORT_REF_S."""
    return seconds * wl.IMPORT_REF_S / import_s


def end_to_end(workload, records, setups):
    """Timed metrics at reference machine speed, plus notes with raw values."""
    raw = [r["latency_s"] for r in records]
    latencies = [at_reference_speed(r["latency_s"], r["cal_s"]) for r in records]
    setup_raw = statistics.median(s for s, _ in setups)
    units = len(records) * wl.UNITS_PER_CALL[workload]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    speed = wl.CAL_REF_S / statistics.median(r["cal_s"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup_at_reference_speed(*s)
                                     for s in setups),
        "ops_per_s": units / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"raw {setup_raw:.4g} s",
        "ops_per_s": f"{units} units; raw {units / sum(raw):.4g} units/s; "
                     f"machine speed {speed:.3f}",
        "latency_p50_ms": f"{len(records)} calls; "
                          f"raw {statistics.median(raw) * 1e3:.4g} ms",
        "peak_rss_mb": ("largest qcorr child process"
                        if workload == "cli_oneshot"
                        else "largest workload process"),
    }
    tail = latency_tail(latencies)
    if tail is not None:
        pct, value, beyond = tail
        metrics["latency_tail_ms"] = value * 1e3
        notes["latency_tail_ms"] = f"p{pct:g}, {beyond} of {len(records)} calls beyond it"
    else:
        notes["latency_tail_ms"] = f"omitted: {len(records)} calls < {TAIL_MIN_CALLS}"
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcorr", "__init__.py")):
        sys.stderr.write(f"run.py: no qcorr package under {src}; run from the "
                         f"root of a qcorr checkout\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    args.out_dir = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(root, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        refs = checks.load_references(args.workload)
        if args.trace:
            proc, _ = start_worker(args, "run", work_dir)
            result = finish_worker(proc)
            records = result["records"]
        elif args.workload == "cli_oneshot":
            records, setups = run_cli_workload(args, work_dir)
        else:
            records, setups = run_in_process_workload(args, work_dir)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    problems = [(r["input"], checks.check(args.workload, r, refs)) for r in records]
    problems = [(key, why) for key, why in problems if why]
    failed = len(problems)
    print("env " + json.dumps(environment(args.seed)))
    for key, why in problems:
        print(f"FAILED {args.workload} input {key}: {why}")
    if args.trace:
        for why in result["problems"]:
            print(f"FAILED {args.workload} traced run: {why}")
        metrics = result["per_layer"]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        print(f"spans written to {os.path.relpath(result['spans'], root)}")
        correct = failed == 0 and not result["problems"]
    else:
        metrics, notes = end_to_end(args.workload, records, setups)
        metrics["failed_ratio"] = failed / len(records)
        notes["failed_ratio"] = f"{failed} of {len(records)} calls"
        units = END_TO_END_UNITS
        correct = failed == 0
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "-" if value is None else repr(value)
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"{args.workload} {name} = {shown} {unit}{note}")
    declared = benchmark_metrics(root, "per_layer" if args.trace else "end_to_end")
    result_line = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }
    print(json.dumps(result_line))
    return 0


def benchmark_metrics(root, kind):
    """(name, unit) of the metrics BENCHMARK.json declares for this run kind."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
