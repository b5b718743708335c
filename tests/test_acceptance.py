"""Acceptance gate: one test per release criterion.

Each test prints one pass/fail line with the measured values; the expensive
Monte-Carlo runs are shared through module-scoped fixtures. Criterion 5 is
split: 5a covers the checks that hold on every sample, 5b covers the
pairwise-discord dominance statement, which a small fraction of Haar-random
states genuinely violates (see README, "Known property failure"), so 5b is
expected to fail and documents the measured violation rate when it does.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qcorr import (
    AcinForm,
    PureState,
    acin_state,
    density_of,
    genuine_qc_n,
    genuine_total,
    genuine_total_n,
    ghz_state,
    haar_random_pure,
    min_double_conditional_entropy,
    sweep_families,
    three_tangle,
)

H13 = math.log2(3.0) - 2.0 / 3.0


def run_cli(*argv):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qcorr", *argv], capture_output=True, text=True
    )
    return proc, time.monotonic() - started


def emit(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def suite_1000():
    proc, elapsed = run_cli("verify", "--samples", "1000", "--qubits", "3",
                            "--format", "json")
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout), elapsed


def test_criterion_1_ghz_extremal_genuine_discord():
    proc, elapsed = run_cli("analyze", "ghz", "--format", "json")
    d3 = json.loads(proc.stdout)["D3"]
    ok = proc.returncode == 0 and abs(d3 - 1.0) <= 1e-9 and elapsed < 1.0
    emit(1, ok, f"D3 = {d3!r}, {elapsed:.2f} s")
    assert proc.returncode == 0
    assert abs(d3 - 1.0) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_w_extremal_genuine_discord():
    proc, elapsed = run_cli("analyze", "w", "--format", "json")
    d3 = json.loads(proc.stdout)["D3"]
    ok = (proc.returncode == 0 and abs(d3 - 0.918) <= 1e-3
          and abs(d3 - H13) <= 1e-9 and elapsed < 1.0)
    emit(2, ok, f"D3 = {d3!r}, h(1/3) = {H13!r}, {elapsed:.2f} s")
    assert proc.returncode == 0
    assert abs(d3 - 0.918) <= 1e-3
    assert abs(d3 - H13) <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_discord_crossover_location():
    proc, elapsed = run_cli("sweep", "both", "0", "1", "0.01")
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stderr.splitlines()
            if ln.startswith("discord crossover")]
    assert line, proc.stderr
    star = float(line[0].rpartition("=")[2])
    ok = 0.70 <= star <= 0.80 and elapsed < 30.0
    emit(3, ok, f"p* = {star:.6f}, {elapsed:.2f} s")
    assert 0.70 <= star <= 0.80
    assert elapsed < 30.0


def test_criterion_4_family_ordering_properties():
    ps = [round(k * 0.01, 12) for k in range(101)]
    rows = sweep_families(ps)
    ghz_rows = [r for r in rows if r[1] == "ghz_tilde"]
    w_rows = [r for r in rows if r[1] == "w_tilde"]
    worst = {"w_DJ": math.inf, "ghz_JD": math.inf, "T": math.inf,
             "D3": math.inf}
    for (p, _, g_rep), (_, _, w_rep) in zip(ghz_rows, w_rows):
        worst["w_DJ"] = min(worst["w_DJ"], w_rep.D - w_rep.J)
        worst["ghz_JD"] = min(worst["ghz_JD"], g_rep.J - g_rep.D)
        worst["T"] = min(worst["T"], g_rep.T - w_rep.T)
        worst["D3"] = min(worst["D3"], g_rep.D3 - w_rep.D3)
    ok = all(v >= -1e-9 for v in worst.values())
    emit(4, ok, ", ".join(f"min {k} gap = {v:.3e}" for k, v in worst.items()))
    assert worst["w_DJ"] >= -1e-9, "W family: D >= J failed"
    assert worst["ghz_JD"] >= -1e-9, "GHZ family: J >= D failed"
    assert worst["T"] >= -1e-9, "GHZ family total must dominate W family"
    assert worst["D3"] >= -1e-9, "GHZ family D3 must dominate W family"


@pytest.mark.slow
def test_criterion_5a_identity_suite_1000_samples(suite_1000):
    data, elapsed = suite_1000
    by_name = {c["name"]: c for c in data["checks"]}
    proved = [name for name in by_name if name != "discord_dominance"]
    bad = {name: by_name[name]["count_violated"] for name in proved
           if by_name[name]["count_violated"] != 0}
    ok = not bad and elapsed < 120.0
    emit("5a", ok, f"checks clean: {len(proved)}, violations: {bad or 0}, "
                   f"{elapsed:.1f} s")
    assert not bad, f"unexpected violations: {bad}"
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_5b_discord_dominance_clause(suite_1000):
    data, _ = suite_1000
    check = {c["name"]: c for c in data["checks"]}["discord_dominance"]
    violated = check["count_violated"]
    ok = violated == 0
    emit("5b", ok,
         f"violations: {violated}/{check['count_checked']}, "
         f"worst margin: {check['worst_margin']}")
    assert violated == 0, (
        "the pairwise-discord dominance statement does not hold universally: "
        f"{violated} of {check['count_checked']} Haar-random samples exceed "
        f"it (worst margin {check['worst_margin']}, reproducible via "
        f"sub-seed {check['worst_seed']}). The check is implemented exactly "
        "as stated and this failure is expected; see the 'Known property "
        "failure' section of the README."
    )


@pytest.mark.slow
def test_criterion_6_oracle_equivalence_200_samples():
    proc, elapsed = run_cli("verify", "--samples", "200", "--oracle",
                            "--format", "json")
    data = json.loads(proc.stdout)
    by_name = {c["name"]: c for c in data["checks"]}
    j_check = by_name["oracle_classical"]
    d_check = by_name["oracle_discord"]
    ok = (j_check["count_violated"] == 0 and d_check["count_violated"] == 0
          and elapsed < 600.0)
    emit(6, ok, f"classical violations: {j_check['count_violated']}, "
                f"discord violations: {d_check['count_violated']}, "
                f"{elapsed:.1f} s")
    assert j_check["count_violated"] == 0
    assert d_check["count_violated"] == 0
    assert j_check["count_checked"] == d_check["count_checked"] == 200
    assert elapsed < 600.0


def test_criterion_7_three_tangle_properties():
    tau_ghz = three_tangle(ghz_state())
    rng = np.random.default_rng(2026)
    worst_w_class = 0.0
    for _ in range(25):
        lams = np.abs(rng.standard_normal(4))
        lams = lams / np.linalg.norm(lams)
        form = AcinForm(*lams, 0.0, theta=float(rng.uniform(0.0, 6.28)))
        worst_w_class = max(worst_w_class, three_tangle(acin_state(form)))
    worst_spread = 0.0
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for k in range(100):
        psi = haar_random_pure(3, 10_000 + k)
        taus = []
        for perm in perms:
            amp = psi.amplitudes.reshape(2, 2, 2).transpose(perm).reshape(-1)
            taus.append(three_tangle(PureState(amp)))
        worst_spread = max(worst_spread, max(taus) - min(taus))
    ok = (abs(tau_ghz - 1.0) <= 1e-9 and worst_w_class <= 1e-8
          and worst_spread <= 1e-8)
    emit(7, ok, f"tau(ghz) = {tau_ghz!r}, max tau(lambda4=0) = "
                f"{worst_w_class:.3e}, max permutation spread = "
                f"{worst_spread:.3e}")
    assert abs(tau_ghz - 1.0) <= 1e-9
    assert worst_w_class <= 1e-8
    assert worst_spread <= 1e-8


@pytest.mark.slow
def test_criterion_8_pure_state_double_measurement():
    worst = 0.0
    for k in range(100):
        rho = density_of(haar_random_pure(3, 20_000 + k))
        worst = max(worst, min_double_conditional_entropy(rho, "c"))
    ok = worst < 1e-6
    emit(8, ok, f"max over 100 states = {worst:.3e}")
    assert worst < 1e-6


def test_criterion_9_four_party_extension():
    psi4 = ghz_state(4)
    t4 = genuine_total_n(psi4)
    qc4 = genuine_qc_n(psi4)
    worst = 0.0
    for k in range(50):
        psi = haar_random_pure(3, 30_000 + k)
        worst = max(worst, abs(genuine_total_n(psi)
                               - genuine_total(density_of(psi))))
    ok = (abs(t4 - 2.0) <= 1e-9 and abs(qc4 - 1.0) <= 1e-9
          and worst <= 1e-9)
    emit(9, ok, f"T4(ghz) = {t4!r}, qc4(ghz) = {qc4!r}, "
                f"max 3-qubit gap = {worst:.3e}")
    assert abs(t4 - 2.0) <= 1e-9
    assert abs(qc4 - 1.0) <= 1e-9
    assert worst <= 1e-9
