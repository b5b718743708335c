"""Output checks behind ``failed_ratio``.

Each call's output is compared with the reference stored for its input
under ``perfbench/reference`` (written by ``reference.py``):

- haar_verify: per-check ``count_checked``/``count_violated`` match exactly.
  The ``discord_dominance`` violations are expected output, not failures.
- mixed_report and discord2q: projective J is a lower bound, so a better
  optimizer may only raise it. J and J2 may not fall more than 1e-6 below
  the reference, discords (D, D2; for discord2q both discords) may not
  rise more than 1e-6 above it, J <= T and J2 <= T2 hold, D = T - J,
  J3 = J - J2 and D3 = D - D2 hold within 1e-6, and the closed-form
  entropic quantities (T, T2, T3, mutual informations) match within 1e-9.
- cli_oneshot: stdout of analyze and sweep is byte-identical.
- oracle_pure: no reference; a call fails if any oracle or numerics check
  is violated.
"""

from __future__ import annotations

import json

import workloads as wl

EXACT_TOL = 1e-9
OPTIMIZER_TOL = 1e-6


def load_references(workload):
    if workload == "oracle_pure":
        return None
    return wl.load_reference(workload)


def _close(a, b):
    return abs(a - b) <= EXACT_TOL


def _mixed(out, ref):
    bad = []
    for field in ("J", "J2"):
        if out[field] < ref[field] - OPTIMIZER_TOL:
            bad.append(f"{field} = {out[field]!r} below reference {ref[field]!r}")
    for field in ("D", "D2"):
        if out[field] > ref[field] + OPTIMIZER_TOL:
            bad.append(f"{field} = {out[field]!r} above reference {ref[field]!r}")
    for lower, upper in (("J", "T"), ("J2", "T2")):
        if out[lower] > out[upper] + EXACT_TOL:
            bad.append(f"{lower} = {out[lower]!r} exceeds {upper} = {out[upper]!r}")
    for field, whole, part in (("D", "T", "J"), ("J3", "J", "J2"),
                               ("D3", "D", "D2")):
        if abs(out[field] - (out[whole] - out[part])) > OPTIMIZER_TOL:
            bad.append(f"{field} = {out[field]!r} is not {whole} - {part}")
    for field in ("T", "T2", "T3"):
        if not _close(out[field], ref[field]):
            bad.append(f"{field} = {out[field]!r}, reference {ref[field]!r}")
    for field in ("pairwise_mutual", "cut_mutual"):
        if (len(out[field]) != len(ref[field])
                or not all(map(_close, out[field], ref[field]))):
            bad.append(f"{field} = {out[field]!r}, reference {ref[field]!r}")
    if out["ordering"]["permutation"] != ref["ordering"]["permutation"]:
        bad.append(f"ordering {out['ordering']['permutation']!r}, "
                   f"reference {ref['ordering']['permutation']!r}")
    if (out["pure"], out["method"], out["tangle"]) != (False, "optimizer", None):
        bad.append("mixed state not reported on the optimizer path")
    return "; ".join(bad) or None


def _discord2q(stdout, ref):
    out = json.loads(stdout)
    mi = out["mutual_information"]
    bad = []
    for field in ("classical", "symmetrized_classical"):
        if out[field] < ref[field] - OPTIMIZER_TOL:
            bad.append(f"{field} = {out[field]!r} below reference {ref[field]!r}")
        if out[field] > mi + EXACT_TOL:
            bad.append(f"{field} = {out[field]!r} exceeds mutual information {mi!r}")
    for field in ("discord", "symmetrized_discord"):
        if out[field] > ref[field] + OPTIMIZER_TOL:
            bad.append(f"{field} = {out[field]!r} above reference {ref[field]!r}")
    if not _close(mi, ref["mutual_information"]):
        bad.append(f"mutual_information = {mi!r}, "
                   f"reference {ref['mutual_information']!r}")
    if out["measured"] != ref["measured"]:
        bad.append(f"measured party {out['measured']!r}")
    return "; ".join(bad) or None


def _cli(variant, key, out, ref):
    if out["rc"] != 0:
        return f"{key}: exit code {out['rc']}"
    if key in wl.CLI_FIXED:
        expected = ref["fixed"][key]
    elif key == "discord2q":
        problem = _discord2q(out["stdout"], ref["variants"][str(variant)][key])
        return problem and f"{key}: {problem}"
    else:
        expected = ref["variants"][str(variant)][key]
    return None if out["stdout"] == expected else f"{key}: stdout differs"


def check(workload, rec, refs):
    """None when the record's output is correct, else what is wrong."""
    if rec["error"]:
        return rec["error"]
    out = rec["output"]
    if workload == "cli_oneshot":
        variant, key = rec["input"]
        return _cli(variant, key, out, refs)
    if workload == "oracle_pure":
        bad = [f"{name}: {violated} of {checked}"
               for name, checked, violated in out if violated]
        return "; ".join(bad) or None
    ref = refs["outputs"][str(rec["input"])]
    if workload == "mixed_report":
        return _mixed(out, ref)
    return None if out == ref else f"check counts {out!r}, reference {ref!r}"
