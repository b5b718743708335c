"""Workload definitions shared by the runner, the worker and the reference tool.

Every workload draws its calls from a fixed pool of inputs whose reference
outputs are stored under ``perfbench/reference``; ``--seed`` picks the order
in which a run walks the pool, so the same seed gives the same inputs and
every input has a reference. Importing this module does not import qcorr:
the runner uses it without loading the program.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

NAMES = ("haar_verify", "mixed_report", "oracle_pure", "cli_oneshot")

# Haar samples per run_suite call: big enough for a batched suite to
# amortize its set-up, small enough for a run to make 21+ calls.
BLOCK = 40

POOL = {"haar_verify": 128, "mixed_report": 48, "oracle_pure": 256,
        "cli_oneshot": 32}

# Units of ops_per_s completed by one call.
UNITS_PER_CALL = {"haar_verify": BLOCK, "mixed_report": 1, "oracle_pure": 1,
                  "cli_oneshot": 1}

# A traced run makes this many calls (not a time budget), so its counts
# repeat exactly between runs of one seed.
TRACE_CALLS = {"haar_verify": 6, "mixed_report": 2, "oracle_pure": 30,
               "cli_oneshot": 6}

# Untimed first call of each workload, on an input outside the pool. The
# mixed-state warm-up is the state whose optimizer counts are pinned in the
# traced run; the others are the first seed past the pool.
WARM_INPUT = {"haar_verify": 128, "mixed_report": 100, "oracle_pure": 256}

# cli_oneshot commands whose arguments do not depend on the pool variant.
CLI_FIXED = ("ghz", "w_json", "sweep")

# Median duration of the calibration kernel on the baseline machine. Timed
# calls are reported at this machine speed: see calibration_s.
CAL_REF_S = 1.2e-3

# Median duration of the import kernel on the baseline machine. Set-up times
# are reported at this machine speed: see import_kernel_s.
IMPORT_REF_S = 0.2

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def calibration_s(reps=15):
    """Median time of a fixed kernel, as a measure of current machine speed.

    A shared 2-CPU machine, like the one the baseline was taken on, changes
    speed by up to a factor of 1.5 over tens of seconds. The kernel (a
    Python loop plus small-matrix numpy calls, like qcorr's hot paths, but
    no qcorr code) is timed next to every timed call, and the call's wall
    time is scaled by CAL_REF_S over this value. A change to qcorr cannot
    change this kernel. The speed also moves within milliseconds, so the
    kernel runs ``reps`` times (15 to 20 ms in all) and its median is taken:
    with fewer repetitions the kernel's own noise widened the spread of
    mixed_report's seconds-long calls instead of narrowing it.
    """
    import numpy as np

    m = np.arange(16.0).reshape(4, 4)
    m = (m + m.T) / 100.0 + np.eye(4)
    v = np.linspace(0.1, 0.9, 64)
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        x = 0
        for i in range(4000):
            x += i * i
        for _ in range(40):
            np.linalg.eigvalsh(m)
            np.einsum("ij,jk->ik", m, m)
            float((v * np.log2(v)).sum())
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def import_kernel_s():
    """Wall time of a fresh interpreter that only imports numpy.

    Set-up is mostly process start and imports, which the calibration kernel
    does not track: on the baseline machine, scaling set-up by it widened
    the spread. A fresh ``import numpy`` runs next to every set-up instead
    and set-up is scaled by IMPORT_REF_S over its time. No qcorr code runs
    in it.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - started


def input_order(workload, seed):
    """Pool indices in the order a run with this seed visits them."""
    order = list(range(POOL[workload]))
    random.Random(int(seed)).shuffle(order)
    return order


# -- in-process workloads (worker and reference tool) ------------------------

def make_call(workload, k):
    """Zero-argument call for pool input k; input construction happens here.

    Entry points are looked up on their modules at call time so that the
    tracer's wrappers are the ones called.
    """
    from qcorr import qstate, tripartite, verify

    if workload == "haar_verify":
        return lambda: verify.run_suite(BLOCK, k)
    if workload == "mixed_report":
        rho = qstate.random_mixed_state(3, k)
        return lambda: tripartite.correlation_report(rho)
    if workload == "oracle_pure":
        return lambda: verify.oracle_crosscheck(1, k)
    raise ValueError(f"{workload} is not an in-process workload")


def serialize(workload, result):
    """JSON-ready output of one call, as the output checks read it."""
    if workload == "mixed_report":
        return result.to_dict()
    return [[c.name, c.count_checked, c.count_violated] for c in result.checks]


# -- cli_oneshot -------------------------------------------------------------

def _acin_token(rng):
    lam = [abs(x) for x in rng.standard_normal(5)]
    norm = math.sqrt(sum(x * x for x in lam))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    return "acin:" + ",".join(repr(float(x / norm)) for x in lam) + f",{theta!r}"


def _state_json(rng):
    import numpy as np

    amp = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amp /= np.linalg.norm(amp)
    return json.dumps({
        "n": 3, "labels": ["a", "b", "c"],
        "amplitudes": [[float(a.real), float(a.imag)] for a in amp],
    })


def _matrix_json(rng):
    import numpy as np

    m = np.zeros((4, 4), dtype=complex)
    weights = rng.random(int(rng.integers(2, 5)))
    for w in weights / weights.sum():
        amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amp /= np.linalg.norm(amp)
        m += w * np.outer(amp, amp.conj())
    m = (m + m.conj().T) / 2.0
    m /= np.trace(m).real
    return json.dumps({
        "parties": ["a", "b"],
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    })


def write_cli_inputs(variant, directory):
    """Write variant's state and matrix files; return its command lines.

    Returns a list of (key, argv) in rotation order; argv excludes the
    interpreter and ``-m qcorr``.
    """
    import numpy as np

    rng = np.random.default_rng([int(variant), 31])
    acin = _acin_token(rng)
    state_path = os.path.join(directory, f"state_{variant}.json")
    matrix_path = os.path.join(directory, f"matrix_{variant}.json")
    with open(state_path, "w", encoding="utf-8") as handle:
        handle.write(_state_json(rng))
    with open(matrix_path, "w", encoding="utf-8") as handle:
        handle.write(_matrix_json(rng))
    return [
        ("ghz", ["analyze", "ghz"]),
        ("w_json", ["analyze", "w", "--format", "json"]),
        ("acin", ["analyze", acin]),
        ("state", ["analyze", state_path]),
        ("sweep", ["sweep", "both", "0", "1", "0.01"]),
        ("discord2q", ["discord2q", matrix_path, "--format", "json"]),
    ]


def record(key, output, latency_s, error=None, cal_s=None):
    """One call as the runner checks it: input key, output, wall time,
    error, and the calibration time measured around the call."""
    return {"input": key, "output": output, "latency_s": latency_s,
            "error": error, "cal_s": cal_s}


def cli_subprocess(argv):
    """One fresh ``python -m qcorr`` process; returns (output, wall seconds)."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qcorr", *argv],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    return {"stdout": proc.stdout, "rc": proc.returncode}, elapsed


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
