"""Monte-Carlo falsification harness for the correlation identities.

Samples Haar-random pure states and checks every proved identity and
inequality: the genuine-total equality against the relative-entropy route,
the entropy/entanglement-of-formation chain, the classical-correlation
ladder and the pairwise-discord dominance statement, the distributed
entanglement identity and monogamy, the decomposition identities, and
local-unitary invariance of the full report. Each failing sample carries a
reproducing sub-seed. The pairwise-discord dominance statement is checked
as stated but does not hold universally: a small fraction of random states violate
it (see README), so nonzero counts there indicate a property failure, not
an implementation bug.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .qstate import (
    DensityMatrix,
    PureState,
    density_of,
    haar_random_pure,
    partial_trace,
    von_neumann_entropy,
)
from .bipartite import (
    GRID_DEFAULT,
    REFINE_ITERS_DEFAULT,
    REFINE_TOL_DEFAULT,
    classical_correlation_directional,
    concurrence,
    eof_from_concurrence,
    koashi_winter_classical,
    koashi_winter_discord,
    mutual_information,
    one_to_rest_concurrence,
)
from .tripartite import (
    REPORT_FIELDS,
    _bipartitions,
    _entropies_and_pairs,
    _pair_lookup,
    correlation_report,
    genuine_total,
    genuine_total_via_relative_entropy,
    genuine_total_n,
)

ORACLE_TOL = 1e-3


@dataclass(frozen=True)
class PropertyCheck:
    """Aggregate outcome of one named check across all samples.

    worst_margin and worst_seed are set only when some sample violated the
    tolerance or came within a factor of ten of it; quiet checks keep them
    None so near-misses stand out.
    """

    name: str
    tolerance: float
    count_checked: int
    count_violated: int
    worst_margin: float | None = None
    worst_seed: int | None = None

    def __post_init__(self):
        if self.count_violated > self.count_checked:
            raise ValidationError(
                f"{self.name}: violated {self.count_violated} of "
                f"{self.count_checked}"
            )

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class ViolationReport:
    """Suite result: per-check aggregates plus the master seed."""

    seed: int
    n_samples: int
    checks: tuple
    elapsed: float

    @property
    def passes(self) -> bool:
        return all(c.count_violated == 0 for c in self.checks)

    @property
    def total_violations(self) -> int:
        return sum(c.count_violated for c in self.checks)

    def to_dict(self):
        # elapsed stays off the canonical dict so repeated runs with the
        # same flags serialize byte-identically
        return {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "passes": self.passes,
            "checks": [c.to_dict() for c in self.checks],
        }


class _Accumulator:
    """Running aggregate for one check; margin > tolerance is a violation."""

    __slots__ = ("name", "tolerance", "checked", "violated", "worst", "seed")

    def __init__(self, name, tolerance):
        self.name = name
        self.tolerance = tolerance
        self.checked = 0
        self.violated = 0
        self.worst = -math.inf
        self.seed = None

    def add(self, margin, sub_seed):
        self.checked += 1
        if margin > self.worst:
            self.worst = margin
            self.seed = sub_seed
        if margin > self.tolerance:
            self.violated += 1

    def finalize(self) -> PropertyCheck:
        noteworthy = self.checked > 0 and self.worst > self.tolerance / 10.0
        return PropertyCheck(
            name=self.name,
            tolerance=self.tolerance,
            count_checked=self.checked,
            count_violated=self.violated,
            worst_margin=self.worst if noteworthy else None,
            worst_seed=self.seed if noteworthy else None,
        )


def sub_seed(master_seed: int, index: int) -> int:
    """Counter-based split of the master seed; reproducible in isolation."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


THREE_QUBIT_CHECKS = (
    ("genuine_total_equality", 1e-9),
    ("entropy_eof_chain", 1e-8),
    ("classical_ladder", 1e-8),
    ("discord_dominance", 1e-8),
    ("directional_optima", 1e-8),
    ("residual_tangle_consistency", 1e-8),
    ("monogamy", 1e-9),
    ("decomposition_identities", 1e-9),
    ("entropy_ordering_consistency", 1e-8),
    ("report_nonnegative", 1e-9),
    ("local_unitary_invariance", 1e-8),
    ("numerics", 0.0),
)

N_PARTY_CHECKS = (
    ("bipartition_entropy_symmetry", 1e-9),
    ("genuine_total_n_consistency", 1e-9),
    ("genuine_total_n_nonnegative", 1e-9),
    ("numerics", 0.0),
)

ORACLE_CHECKS = (
    ("oracle_classical", ORACLE_TOL),
    ("oracle_discord", ORACLE_TOL),
    ("optimizer_beats_closed_form", ORACLE_TOL),
    ("numerics", 0.0),
)


def _haar_local_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _apply_local_unitaries(psi, unitaries):
    tensor = psi.amplitudes.reshape((2,) * psi.n_qubits)
    for axis, u in enumerate(unitaries):
        tensor = np.tensordot(u, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    return PureState(tensor.reshape(-1), psi.labels)


def evaluate_sample(psi: PureState, seed_for_sample: int) -> dict:
    """Margins of every three-qubit check on one pure state.

    Returns {"report": CorrelationReport, "margins": {check_name: margin}};
    a margin above the check's tolerance is a violation. The seed feeds the
    random local unitaries of the invariance check.
    """
    rho = density_of(psi)
    report = correlation_report(psi)
    a, b, c = report.ordering.permutation
    s = {
        x: von_neumann_entropy(partial_trace(rho, [x])) for x in psi.labels
    }
    margins = {}

    gt = genuine_total(rho)
    gt_re = genuine_total_via_relative_entropy(rho)
    margins["genuine_total_equality"] = abs(gt - gt_re)

    # chain S_a + E_bc <= S_b + E_ac <= S_c + E_ab in the canonical ordering
    e = {}
    for i, j in itertools.combinations(sorted(psi.labels), 2):
        e[frozenset((i, j))] = eof_from_concurrence(
            concurrence(partial_trace(rho, [i, j]))
        )

    def eof(i, j):
        return e[frozenset((i, j))]

    x1 = s[a] + eof(b, c)
    x2 = s[b] + eof(a, c)
    x3 = s[c] + eof(a, b)
    margins["entropy_eof_chain"] = max(x1 - x2, x2 - x3)

    j_ab = s[b] - eof(b, c)
    j_ac = s[c] - eof(b, c)
    j_bc = s[c] - eof(a, c)
    margins["classical_ladder"] = max(j_ac - j_ab, j_bc - j_ac)

    d_ab = s[a] - s[c] + eof(b, c)
    d_ac = s[a] - s[b] + eof(b, c)
    d_bc = s[b] - s[a] + eof(a, c)
    margins["discord_dominance"] = max(d_ac, d_bc) - d_ab

    # the stated optima of the directional quantities, via the closed forms
    realization_gaps = []
    for big, small in ((a, b), (a, c), (b, c)):
        realization_gaps.append(
            koashi_winter_classical(psi, big, small)
            - koashi_winter_classical(psi, small, big)
        )
        realization_gaps.append(
            koashi_winter_discord(psi, small, big)
            - koashi_winter_discord(psi, big, small)
        )
    margins["directional_optima"] = max(realization_gaps)

    taus = []
    for anchor in psi.labels:
        others = [x for x in psi.labels if x != anchor]
        c_one = one_to_rest_concurrence(partial_trace(rho, [anchor]))
        tau = c_one * c_one
        for other in others:
            c_pair = concurrence(partial_trace(rho, [anchor, other]))
            tau -= c_pair * c_pair
        taus.append(tau)
    margins["residual_tangle_consistency"] = max(
        abs(t1 - t2) for t1, t2 in itertools.combinations(taus, 2)
    )
    margins["monogamy"] = -min(taus)

    margins["decomposition_identities"] = max(
        abs(report.T - report.J - report.D),
        abs(report.T3 - (report.T - report.T2)),
        abs(report.J3 - (report.J - report.J2)),
        abs(report.D3 - (report.D - report.D2)),
        abs(report.J3 - s[c]),
        abs(report.D3 - s[c]),
        abs(report.T3 - 2.0 * s[c]),
    )

    margins["entropy_ordering_consistency"] = max(s[b] - s[a], s[c] - s[b])

    fields = [getattr(report, f) for f in REPORT_FIELDS]
    margins["report_nonnegative"] = -min(fields)

    rng = np.random.default_rng(seed_for_sample)
    rotated = _apply_local_unitaries(
        psi, [_haar_local_unitary(rng) for _ in range(3)]
    )
    rotated_report = correlation_report(rotated)
    margins["local_unitary_invariance"] = max(
        abs(getattr(report, f) - getattr(rotated_report, f))
        for f in REPORT_FIELDS
    )

    return {"report": report, "margins": margins}


def _evaluate_sample_n(psi: PureState) -> dict:
    """Margins of the n>3 checks: bipartition entropies and T_n consistency."""
    rho = density_of(psi)
    s_rho = von_neumann_entropy(rho)
    sym_gaps = []
    min_cut = math.inf
    min_half = math.inf
    for part, comp in _bipartitions(psi.labels):
        s_part = von_neumann_entropy(partial_trace(rho, part))
        s_comp = von_neumann_entropy(partial_trace(rho, comp))
        sym_gaps.append(abs(s_part - s_comp))
        min_cut = min(min_cut, s_part + s_comp - s_rho)
        min_half = min(min_half, s_part)
    t_n = genuine_total_n(psi)
    return {
        "bipartition_entropy_symmetry": max(sym_gaps),
        "genuine_total_n_consistency": abs(t_n - 2.0 * min_half),
        "genuine_total_n_nonnegative": -min(t_n, min_cut),
    }


def _sample_count(n_samples):
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValidationError(f"n_samples {n_samples!r} < 1")
    return n_samples


def _run_samples(checks, margins_of, n_samples, seed, n_qubits, states):
    """Aggregate margins_of(psi, sub_seed) -> {check: margin} over the samples.

    Sample i is states[i] while states last, else the Haar state of its
    sub-seed. A sample whose margins_of raises counts as one numerics
    violation and adds to no other check.
    """
    started = time.monotonic()
    acc = {name: _Accumulator(name, tol) for name, tol in checks}
    for index in range(n_samples):
        s_i = sub_seed(seed, index)
        if states is not None and index < len(states):
            psi = states[index]
        else:
            psi = haar_random_pure(n_qubits, s_i)
        try:
            margins = margins_of(psi, s_i)
        except Exception:
            acc["numerics"].add(1.0, s_i)
            continue
        acc["numerics"].add(0.0, s_i)
        for name, margin in margins.items():
            acc[name].add(margin, s_i)
    return ViolationReport(
        seed=int(seed),
        n_samples=n_samples,
        checks=tuple(acc[name].finalize() for name, _ in checks),
        elapsed=time.monotonic() - started,
    )


def run_suite(n_samples: int, seed: int, n_qubits: int = 3,
              states=None) -> ViolationReport:
    """Check every identity on n_samples Haar-random pure states.

    states, when given, is a sequence of PureState objects substituted for
    the first len(states) samples (used to pin known states into the run).
    Deterministic for fixed arguments.
    """
    n_samples = _sample_count(n_samples)
    n_qubits = int(n_qubits)
    if not 3 <= n_qubits <= 6:
        raise ValidationError(f"n_qubits {n_qubits!r} outside 3..6")
    if n_qubits == 3:
        return _run_samples(THREE_QUBIT_CHECKS,
                            lambda psi, s: evaluate_sample(psi, s)["margins"],
                            n_samples, seed, n_qubits, states)
    return _run_samples(N_PARTY_CHECKS, lambda psi, s: _evaluate_sample_n(psi),
                        n_samples, seed, n_qubits, states)


def oracle_crosscheck(n_samples: int, seed: int, states=None,
                      grid=GRID_DEFAULT,
                      refine_iters=REFINE_ITERS_DEFAULT,
                      tol=REFINE_TOL_DEFAULT) -> ViolationReport:
    """Optimizer-vs-closed-form comparison on every two-qubit reduction.

    For each sampled pure three-qubit state and each ordered party pair,
    the grid-plus-refinement optimizer values of the directional classical
    correlation and discord are compared with the conditional-entropy
    closed forms; a gap above 1e-3 counts as a violation.
    """
    def margins_of(psi, _):
        rho = density_of(psi)
        worst_j = 0.0
        worst_d = 0.0
        worst_beat = -math.inf
        for i, j in itertools.permutations(psi.labels, 2):
            red = partial_trace(rho, [i, j])
            direct = classical_correlation_directional(
                red, j, grid=grid, refine_iters=refine_iters, tol=tol
            )
            j_closed = koashi_winter_classical(psi, i, j)
            d_opt = mutual_information(red) - direct.value
            d_closed = koashi_winter_discord(psi, i, j)
            worst_j = max(worst_j, abs(direct.value - j_closed))
            worst_d = max(worst_d, abs(d_opt - d_closed))
            # projective measurements are a POVM subset, so the optimizer
            # exceeding the closed form signals a bug, not a property
            worst_beat = max(worst_beat, direct.value - j_closed)
        return {"oracle_classical": worst_j, "oracle_discord": worst_d,
                "optimizer_beats_closed_form": worst_beat}

    return _run_samples(ORACLE_CHECKS, margins_of, _sample_count(n_samples),
                        seed, 3, states)


def explore_pairwise_order_n(n_samples: int, seed: int,
                             n_qubits: int = 4) -> dict:
    """Exploratory, non-asserting scan of the n>3 ordering conjecture.

    For each sample, records whether sorting parties by one-qubit entropy
    also sorts every pairwise mutual information the way it does for three
    qubits. Returns counts only; nothing here is a violation.
    """
    n_samples = _sample_count(n_samples)
    n_qubits = int(n_qubits)
    if not 4 <= n_qubits <= 6:
        raise ValidationError(f"n_qubits {n_qubits!r} outside 4..6")
    consistent = 0
    records = []
    for index in range(n_samples):
        s_i = sub_seed(seed, index)
        psi = haar_random_pure(n_qubits, s_i)
        s, _, pair_i = _entropies_and_pairs(density_of(psi))
        by_entropy = sorted(psi.labels, key=lambda x: -s[x])
        ok = True
        # entropy-sorted parties should sort shared pairs: for x above y
        # (z any third), demand I(x,z) >= I(y,z)
        for x, y in itertools.combinations(by_entropy, 2):
            for z in psi.labels:
                if z in (x, y):
                    continue
                if (_pair_lookup(pair_i, x, z)
                        < _pair_lookup(pair_i, y, z) - 1e-10):
                    ok = False
        consistent += ok
        records.append({"sub_seed": s_i, "consistent": bool(ok)})
    return {
        "n_samples": n_samples,
        "seed": int(seed),
        "n_qubits": n_qubits,
        "consistent": consistent,
        "records": records,
    }
