"""Write the reference outputs that the output checks compare against.

Run from the root of a checkout, only on purpose (the references pin the
program's outputs at the commit that wrote them):

    python3 perfbench/reference.py [workload ...]

haar_verify and mixed_report are computed in-process with the same calls
the worker makes; cli_oneshot runs the real ``python -m qcorr`` processes.
oracle_pure checks itself and has no reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS/OpenMP threads before numpy is imported
import workloads as wl


def in_process(workload):
    return {str(k): wl.serialize(workload, wl.make_call(workload, k)())
            for k in range(wl.POOL[workload])}


def cli(work_dir):
    fixed, variants = {}, {}
    for variant in range(wl.POOL["cli_oneshot"]):
        outputs = {}
        for key, argv in wl.write_cli_inputs(variant, work_dir):
            if key in wl.CLI_FIXED and key in fixed:
                continue
            out, _ = wl.cli_subprocess(argv)
            if out["rc"] != 0:
                raise SystemExit(f"{key} on variant {variant} exited {out['rc']}")
            text = out["stdout"]
            if key in wl.CLI_FIXED:
                fixed[key] = text
            else:
                outputs[key] = json.loads(text) if key == "discord2q" else text
        variants[str(variant)] = outputs
    return {"fixed": fixed, "variants": variants}


def main(names):
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    work_dir = os.path.join(root, ".perfbench_work", "reference")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for workload in names or ("haar_verify", "mixed_report", "cli_oneshot"):
            if workload == "cli_oneshot":
                payload = cli(work_dir)
            else:
                payload = {"outputs": in_process(workload)}
            payload["commit"] = run.git_commit()
            path = os.path.join(wl.REFERENCE_DIR, f"{workload}.json")
            os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
