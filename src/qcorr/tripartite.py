"""Total, bipartite, and genuinely tripartite correlation quantifiers.

Pure three-qubit states get exact closed forms built from one-qubit
entropies and pairwise entanglement of formation, after relabeling parties
so the pairwise mutual informations satisfy I(ab) >= I(ac) >= I(bc). Mixed
states fall back to measurement optimization and are flagged as such.
Includes the named state families, the five-amplitude canonical form, the
residual three-tangle, and the n-party generalization of the genuine-total
quantifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, UnsupportedInputError, ValidationError
from .qstate import (
    OPTIMIZER_SLACK,
    ROUNDING_SLACK,
    DensityMatrix,
    PureState,
    _as_density,
    _checked_spectrum,
    _clamp_unit,
    _entropy,
    _floor_zero,
    _int_arg,
    _outer,
    _real_arg,
    _trace_out,
    density_of,
    partial_trace,
    permute_parties,
    relative_entropy,
    von_neumann_entropy,
)
from .bipartite import (
    TIE_TOL,
    MeasurementBasis,
    _bloch_xyz,
    _hemisphere,
    _kw_forms,
    _min_conditional_entropy,
    _one_to_rest,
    _outcome_entropies,
    _outcome_entropy,
    _party_slot,
    _pauli_tensor,
    _pure_state,
    _root_lambdas,
    _search,
    _wootters,
    concurrence,
    eof_from_concurrence,
    one_to_rest_concurrence,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
)

CUT_PRODUCT_TOL = 1e-6
DOUBLE_GRID_DEFAULT = 30
# states per block of _pure_reports: bounds its stacks, about 1 MB, on a
# sweep of any length
_STATE_BLOCK = 256
# u points per block of the two-angle grid fill: 16 of the default 421 give
# 0.43 MB of buffers for the float32 screen (1.3 MB for a float64 pass over
# every row), reused from block to block
_BLOCK_ROWS = 16
# the float32 screen of the two-angle grid drops a u row only when its least
# value exceeds the screen's least value by more than this; see
# min_double_conditional_entropy for why no output can move
SCREEN_MARGIN = 1e-4
SWEEP_MAX_POINTS = 100_001
CROSSOVER_TOL = 1e-4

REPORT_FIELDS = ("T", "J", "D", "T2", "T3", "J2", "J3", "D2", "D3", "tangle")
CSV_HEADER = ",".join(("p", "family") + REPORT_FIELDS)


@dataclass(frozen=True)
class PartyOrdering:
    """Relabeling (a, b, c) under which I(ab) >= I(ac) >= I(bc).

    permutation holds the original labels in their canonical roles;
    sorted_mutual_infos are the pairwise mutual informations in that order.
    Ties break lexicographically on the original labels, with 1e-10 slack.
    """

    permutation: tuple
    sorted_mutual_infos: tuple

    def __post_init__(self):
        i_ab, i_ac, i_bc = self.sorted_mutual_infos
        if i_ab < i_ac - TIE_TOL or i_ac < i_bc - TIE_TOL:
            raise InternalInvariantError(
                f"mutual informations not descending: {self.sorted_mutual_infos!r}"
            )


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation quantifiers of a three-qubit state, in bits.

    tangle is dimensionless and None on the optimizer (mixed) path, where
    the residual formula does not apply.
    """

    T: float
    J: float
    D: float
    T2: float
    T3: float
    J2: float
    J3: float
    D2: float
    D3: float
    tangle: float | None
    pairwise_mutual: tuple
    cut_mutual: tuple
    ordering: PartyOrdering
    pure: bool
    method: str

    def __post_init__(self):
        # optimizer results carry grid/refinement noise; closed forms do not
        slack = ROUNDING_SLACK if self.method == "closed-form" else OPTIMIZER_SLACK
        checks = [self.T3 - (self.T - self.T2), self.J3 - (self.J - self.J2),
                  self.D3 - (self.D - self.D2)]
        if self.method == "closed-form":
            checks.append(self.T - (self.J + self.D))
        worst = max(abs(x) for x in checks)
        if worst > slack:
            raise InternalInvariantError(f"report decomposition off by {worst:.3e}")
        values = [getattr(self, name) for name in REPORT_FIELDS]
        low = min(x for x in values if x is not None)
        if low < -slack:
            raise InternalInvariantError(f"negative report field {low!r}")

    def to_dict(self):
        return {
            **{name: getattr(self, name) for name in REPORT_FIELDS},
            "pairwise_mutual": list(self.pairwise_mutual),
            "cut_mutual": list(self.cut_mutual),
            "ordering": {
                "permutation": list(self.ordering.permutation),
                "sorted_mutual_infos": list(self.ordering.sorted_mutual_infos),
            },
            "pure": self.pure,
            "method": self.method,
        }


@dataclass(frozen=True)
class AcinForm:
    """Five-amplitude canonical form of a three-qubit pure state.

    lambda0 |000> + lambda1 e^{i theta} |100> + lambda2 |101>
    + lambda3 |110> + lambda4 |111>, with nonnegative lambdas whose squares
    sum to one.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    theta: float = 0.0

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4", "theta"):
            hi = 2 * math.pi if name == "theta" else math.inf
            object.__setattr__(self, name, _real_arg(getattr(self, name), name, 0.0, hi))
        total = sum(x * x for x in self.lambdas)
        if not abs(total - 1.0) <= 1e-10:  # an inf coefficient fails too
            raise ValidationError(f"coefficient squares sum to {total!r}, not 1")

    @property
    def lambdas(self):
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3,
                self.lambda4)


def _entropies_and_pairs(rho):
    labels = rho.parties
    s1 = {x: von_neumann_entropy(partial_trace(rho, [x])) for x in labels}
    pair_rho = {pair: partial_trace(rho, pair) for pair in itertools.combinations(labels, 2)}
    pair_s = _pair_entropies(pair_rho)
    return s1, pair_rho, _mutual_infos(s1, pair_s), pair_s


def _pair_entropies(pair_rho):
    return {pair: von_neumann_entropy(red) for pair, red in pair_rho.items()}


def _mutual_infos(s1, pair_s):
    """{(i, j): I(i:j)} from the one-qubit entropies s1 and the pair entropies pair_s."""
    return {(i, j): s1[i] + s1[j] - s for (i, j), s in pair_s.items()}


def _pair_lookup(table, i, j):
    return table[(i, j)] if (i, j) in table else table[(j, i)]


def _pair_eofs(pair_rho):
    """{pair: entanglement of formation} of each pair reduction in pair_rho."""
    return {pair: eof_from_concurrence(concurrence(red)) for pair, red in pair_rho.items()}


def _kw_table(s1, eof):
    """{(i, j): floored (J_{i:j}, D_{i:j})} for the six ordered pairs of a pure state.

    The Koashi-Winter closed forms with j measured, from the one-qubit
    entropies s1 and the pair EoFs eof of a pure three-qubit state.
    """
    table = {}
    for i, j, k in itertools.permutations(s1):
        j_cl, d = _kw_forms(s1, _pair_lookup(eof, i, k), i, j, k)
        table[(i, j)] = (_floor_zero(j_cl, "closed-form classical correlation"),
                         _floor_zero(d, "closed-form discord"))
    return table


def total_information(rho) -> float:
    """T = S(rho_a) + S(rho_b) + S(rho_c) - S(rho)."""
    rho = _as_density(rho, "total_information", 3)
    s1 = [von_neumann_entropy(partial_trace(rho, [x])) for x in rho.parties]
    return _floor_zero(sum(s1) - von_neumann_entropy(rho), "total information")


def canonical_ordering(rho) -> PartyOrdering:
    """Relabeling making the pairwise mutual informations descending.

    Candidate permutations are scanned in lexicographic order of the
    original labels, so fully symmetric states keep the identity.
    """
    rho = _as_density(rho, "canonical_ordering", 3)
    return _ordering(rho.parties, _entropies_and_pairs(rho)[2])


def _ordering(labels, pair_i):
    """canonical_ordering from the pairwise mutual informations pair_i."""
    for perm in itertools.permutations(sorted(labels)):
        x, y, z = perm
        i_xy = _pair_lookup(pair_i, x, y)
        i_xz = _pair_lookup(pair_i, x, z)
        i_yz = _pair_lookup(pair_i, y, z)
        if i_xy >= i_xz - TIE_TOL and i_xz >= i_yz - TIE_TOL:
            # floored only after the raw values have chosen the permutation
            return PartyOrdering(perm, tuple(_floor_zero(x, "mutual information")
                                             for x in (i_xy, i_xz, i_yz)))
    raise InternalInvariantError("no permutation orders the mutual informations")


def genuine_total(rho) -> float:
    """T3 = T - max pairwise mutual information."""
    rho = _as_density(rho, "genuine_total", 3)
    _, _, pair_i, _ = _entropies_and_pairs(rho)
    return _floor_zero(total_information(rho) - max(pair_i.values()), "T3")


def genuine_total_via_relative_entropy(rho) -> float:
    """min over the three cuts of S(rho || rho_ij (x) rho_k).

    Independent route to genuine_total: builds each two-versus-one product
    state explicitly and measures the relative-entropy distance.
    """
    rho = _as_density(rho, "genuine_total_via_relative_entropy", 3)
    values = []
    for k in rho.parties:
        ij = [x for x in rho.parties if x != k]
        r_ij, r_k = partial_trace(rho, ij).matrix, partial_trace(rho, [k]).matrix
        product = (r_ij[:, None, :, None] * r_k[None, :, None, :]).reshape(8, 8)  # np.kron
        sigma = permute_parties(DensityMatrix(product, ij + [k]), rho.parties)
        values.append(relative_entropy(rho, sigma))
    return min(values)


def _cut_mutual(abc, s1, pair_s, s_rho):
    """I(xy:z) across the cuts ab|c, ac|b and bc|a of the ordering abc."""
    a, b, c = abc
    return tuple(_floor_zero(_pair_lookup(pair_s, x, y) + s1[z] - s_rho,
                             "cut mutual information")
                 for x, y, z in ((a, b, c), (a, c, b), (b, c, a)))


def total_discord_pure(psi) -> float:
    """D = S(rho_a) + E(rho_bc) in the canonical ordering."""
    return _pure_reports([_pure_state(psi, "total_discord_pure")])[0].D


def _last_party_entropy(psi, what):
    """S(rho_c), with c the last party of canonical_ordering."""
    rho = density_of(_pure_state(psi, what))
    s1, _, pair_i, _ = _entropies_and_pairs(rho)
    return s1[_ordering(rho.parties, pair_i).permutation[2]]


def genuine_classical(psi) -> float:
    """J3 = S(rho_c), the smallest one-qubit entropy."""
    return _last_party_entropy(psi, "genuine_classical")


def genuine_discord(psi) -> float:
    """D3 = S(rho_c); genuine classical and quantum correlations coincide."""
    return _last_party_entropy(psi, "genuine_discord")


def three_tangle(psi) -> float:
    """Residual tangle tau = C_a^2 - C_ab^2 - C_ac^2 of a pure state."""
    psi = _pure_state(psi, "three_tangle")
    rho = density_of(psi)
    first = psi.labels[0]
    return _residual_tangle(one_to_rest_concurrence(partial_trace(rho, [first])),
                            [concurrence(partial_trace(rho, [first, other]))
                             for other in psi.labels[1:]])


def _residual_tangle(c_one, c_pairs):
    """tau from the first party's one-to-rest concurrence and its pair concurrences."""
    tau = c_one * c_one
    for c_pair in c_pairs:
        tau -= c_pair * c_pair
    return _floor_zero(tau, "residual tangle")


def acin_state(form: AcinForm, labels=None) -> PureState:
    """State vector of the canonical five-amplitude form."""
    if not isinstance(form, AcinForm):
        raise ValidationError("acin_state expects an AcinForm")
    amp = np.zeros(8, dtype=complex)
    l0, l1, l2, l3, l4 = form.lambdas
    amp[0b000] = l0
    amp[0b100] = l1 * complex(math.cos(form.theta), math.sin(form.theta))
    amp[0b101] = l2
    amp[0b110] = l3
    amp[0b111] = l4
    return PureState(amp, labels)


def ghz_state(n_qubits: int = 3, labels=None) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    amp = np.zeros(2 ** _int_arg(n_qubits, "n_qubits", 2, 6), dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amp, labels)


def w_state(labels=None) -> PureState:
    """(|001> + |010> + |100>)/sqrt(3)."""
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = amp[0b100] = 1.0 / math.sqrt(3.0)
    return PureState(amp, labels)


def family_ghz_tilde(p: float, labels=None) -> PureState:
    """sqrt(p) GHZ + sqrt(1-p) |100>; the branches are orthogonal."""
    p = _clamp_unit(p, "p")
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b111] = math.sqrt(p / 2.0)
    amp[0b100] = math.sqrt(1.0 - p)
    return PureState(amp, labels)


def family_w_tilde(p: float, labels=None) -> PureState:
    """sqrt(p) W + sqrt(1-p) |000>; the branches are orthogonal."""
    p = _clamp_unit(p, "p")
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = amp[0b100] = math.sqrt(p / 3.0)
    amp[0b000] = math.sqrt(1.0 - p)
    return PureState(amp, labels)


FAMILIES = {"ghz_tilde": family_ghz_tilde, "w_tilde": family_w_tilde}


def correlation_report(state) -> CorrelationReport:
    """Assemble every quantifier for a three-qubit state.

    Pure inputs (largest eigenvalue above 1 - 1e-8) take the closed-form
    path; mixed inputs run the measurement optimizers and leave tangle unset.
    """
    rho = _as_density(state, "correlation_report", 3)
    try:
        psi = to_pure(state if isinstance(state, PureState) else rho)
    except UnsupportedInputError:
        return _report_mixed(rho)
    return _report_pure(psi)


def _report_pure(psi):
    """Closed-form report of a pure three-qubit state psi, one matrix at a time."""
    rho = density_of(psi)
    s1, pair_rho, _, _ = _entropies_and_pairs(rho)
    # Three repeats held only by perfbench's pinned 133/223 per-sample counts
    # (ROADMAP item 1), whose re-pin deletes them here: canonical_ordering
    # rebuilds the table that _entropies_and_pairs has just built, the
    # pair entropies are taken three times where once would do, and
    # three_tangle re-derives rho, two pair reductions and their concurrences.
    _pair_entropies(pair_rho)
    return _closed_form(canonical_ordering(rho), s1, _pair_entropies(pair_rho),
                        _pair_eofs(pair_rho), von_neumann_entropy(rho), three_tangle(psi))


def _pure_reports(states):
    """_report_pure of each three-qubit PureState in states, bit for bit.

    The states go _STATE_BLOCK at a time through the scalar route's
    arithmetic on stacks: one eigensolver call per kind of matrix, each
    spectrum's entropy summed on its own as von_neumann_entropy does, and
    one _closed_form per state.
    """
    states, reports = iter(states), []
    while block := list(itertools.islice(states, _STATE_BLOCK)):
        rho = _outer(np.array([psi.amplitudes for psi in block]))
        ones = np.stack([_trace_out(rho, [x]) for x in range(3)], 1)
        pairs = np.stack([_trace_out(rho, ij) for ij in itertools.combinations(range(3), 2)], 1)
        rows = zip(block, _checked_spectrum(rho)[:, ::-1], _checked_spectrum(ones)[..., ::-1],
                   _checked_spectrum(pairs)[..., ::-1], _root_lambdas(pairs).tolist(),
                   np.linalg.det(ones[:, 0]).real.tolist())
        for psi, vals, vals_1, vals_2, lambdas, det_a in rows:
            keys = list(itertools.combinations(psi.labels, 2))
            s1 = dict(zip(psi.labels, map(_entropy, vals_1)))
            pair_s = dict(zip(keys, map(_entropy, vals_2)))
            conc = [_wootters(*lam) for lam in lambdas]
            reports.append(_closed_form(
                _ordering(psi.labels, _mutual_infos(s1, pair_s)), s1, pair_s,
                dict(zip(keys, map(eof_from_concurrence, conc))),
                _entropy(vals), _residual_tangle(_one_to_rest(det_a), conc[:2])))
    return reports


def _closed_form(order, s1, pair_s, eof, s_rho, tangle):
    """The closed-form report from a pure state's canonical ordering, its
    one-qubit, pair and global entropies, pair EoFs and residual tangle.
    """
    cut = _cut_mutual(order.permutation, s1, pair_s, s_rho)
    kw = _kw_table(s1, eof)
    a, b, c = order.permutation
    e_bc = _pair_lookup(eof, b, c)
    j2, d2 = kw[(b, a)]
    if min(cut) <= CUT_PRODUCT_TOL:
        # the definition: the least directional discord D_{i:j}, j measured
        d2 = min(d for _, d in kw.values())
    return _assemble_report(sum(s1.values()) - s_rho, s1[b] + s1[c] - e_bc,
                            s1[a] + e_bc, j2, d2, order, cut, tangle)


def _report_mixed(rho):
    # one entropy table gives the ordering, T and the cuts
    s1, pair_rho, pair_i, pair_s = _entropies_and_pairs(rho)
    s_rho = von_neumann_entropy(rho)
    order = _ordering(rho.parties, pair_i)
    t = _floor_zero(sum(s1.values()) - s_rho, "T")  # floored like total_information
    j = _total_classical_mixed(rho, s1, pair_rho)
    j2 = max(symmetrized_classical(red) for red in pair_rho.values())
    d2 = min(symmetrized_discord(red) for red in pair_rho.values())
    cut = _cut_mutual(order.permutation, s1, pair_s, s_rho)
    return _assemble_report(t, j, t - j, j2, d2, order, cut, None)


def _assemble_report(t, j, d, j2, d2, order, cut, tangle):
    """The report of T = J + D and its bipartite and genuine shares.

    tangle is None on the optimizer path, whose J and D shares may dip below
    zero by the 1e-6 optimizer noise budget instead of the closed forms' 1e-9.
    """
    pure = tangle is not None
    soft = ROUNDING_SLACK if pure else OPTIMIZER_SLACK
    t2 = order.sorted_mutual_infos[0]
    return CorrelationReport(
        T=_floor_zero(t, "T"), J=_floor_zero(j, "J", soft),
        D=_floor_zero(d, "D", soft),
        T2=_floor_zero(t2, "T2"), T3=_floor_zero(t - t2, "T3"),
        J2=_floor_zero(j2, "J2", soft), J3=_floor_zero(j - j2, "J3", soft),
        D2=_floor_zero(d2, "D2", soft), D3=_floor_zero(d - d2, "D3", soft),
        tangle=tangle,
        pairwise_mutual=order.sorted_mutual_infos,
        cut_mutual=cut,
        ordering=order,
        pure=pure,
        method="closed-form" if pure else "optimizer",
    )


def sweep_grid(p_min, p_max, step):
    """The p values p_min, p_min + step, ... of a sweep, rounded to 12 digits.

    The last point may overshoot p_max by up to step / 2; it stops at p_max.
    Grids of more than SWEEP_MAX_POINTS points are refused before any is built.
    """
    p_min, p_max = _clamp_unit(p_min, "p_min"), _clamp_unit(p_max, "p_max")
    step = _real_arg(step, "step", 0.0)
    if not p_min <= p_max:
        raise ValidationError(f"need p_min <= p_max, got [{p_min}, {p_max}]")
    if not 0.0 < step < math.inf:
        raise ValidationError(f"step {step!r} must be positive and finite")
    span = (p_max - p_min) / step
    if span >= SWEEP_MAX_POINTS - 0.5:  # also inf, which round() rejects
        raise ValidationError(f"step {step!r} asks for {span + 1.0:.6g} grid "
                              f"points, more than {SWEEP_MAX_POINTS}")
    return [min(round(p_min + k * step, 12), p_max)
            for k in range(int(round(span)) + 1)]


def sweep_families(p_grid, families=("ghz_tilde", "w_tilde")):
    """Closed-form reports for each family at each p, as (p, family, report)."""
    rows, p_grid = [], list(p_grid)  # read once per family and once for p
    if isinstance(families, str):  # would loop over its letters
        raise ValidationError(f"families {families!r} must be a sequence of names, not a str")
    for name in families:
        if name not in FAMILIES:
            raise ValidationError(f"unknown family {name!r}")
    for name in families:  # one stacked pass per family
        reports = _pure_reports(map(FAMILIES[name], p_grid))
        rows += zip(map(float, p_grid), itertools.repeat(name), reports)
    return rows


def find_discord_crossover(rows):
    """Smallest p where the W-family total discord exceeds the GHZ-family's.

    Scans the sweep_families rows of both families, in order of p, for a sign
    change of the D difference and bisects it to CROSSOVER_TOL with one
    _pure_reports pass per step. Returns None when the rows hold none.
    """
    d = {(p, family): report.D for p, family, report in rows}
    gaps = []
    for p in sorted({p for p, _ in d}):
        if (p, "ghz_tilde") not in d or (p, "w_tilde") not in d:
            raise ValidationError(f"crossover needs both families' rows at p = {p!r}")
        gaps.append((p, d[p, "w_tilde"] - d[p, "ghz_tilde"]))
    for (lo, g_lo), (hi, g_hi) in zip(gaps, gaps[1:]):
        if g_lo <= 0.0 < g_hi:
            while hi - lo > CROSSOVER_TOL:
                mid = (lo + hi) / 2.0
                w, ghz = _pure_reports([family_w_tilde(mid), family_ghz_tilde(mid)])
                if w.D - ghz.D > 0.0:
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2.0
    return None


def _measured_tensor(rho, k, what):
    """Pauli tensor of rho with axes (measured i, measured j, kept k)."""
    rho = _as_density(rho, what, 3)
    slot_k = _party_slot(rho, k)
    return _pauli_tensor(rho.matrix, [x for x in range(3) if x != slot_k] + [slot_k])


def _two_angle_objective(r):
    """f(x): S(k | u at Bloch angles x[:2] on i, v at x[2:] on j), from r.

    Outcome +-1 of u leaves M = R_0 +- u.R on (j, k), R_mu = r[mu] flattened
    and unpacked as a, b, c, d; outcome +-1 of v then leaves k with
    M_0 +- v.M, M_nu the 4-blocks of M.
    """
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15), \
        (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15), \
        (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15), \
        (d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15) \
        = r.reshape(4, 16).tolist()

    def entropy(x):
        ux, uy, uz = _bloch_xyz(x[0], x[1])
        vx, vy, vz = _bloch_xyz(x[2], x[3])
        # u.R, entry by entry
        s0 = ux * b0 + uy * c0 + uz * d0
        s1 = ux * b1 + uy * c1 + uz * d1
        s2 = ux * b2 + uy * c2 + uz * d2
        s3 = ux * b3 + uy * c3 + uz * d3
        s4 = ux * b4 + uy * c4 + uz * d4
        s5 = ux * b5 + uy * c5 + uz * d5
        s6 = ux * b6 + uy * c6 + uz * d6
        s7 = ux * b7 + uy * c7 + uz * d7
        s8 = ux * b8 + uy * c8 + uz * d8
        s9 = ux * b9 + uy * c9 + uz * d9
        s10 = ux * b10 + uy * c10 + uz * d10
        s11 = ux * b11 + uy * c11 + uz * d11
        s12 = ux * b12 + uy * c12 + uz * d12
        s13 = ux * b13 + uy * c13 + uz * d13
        s14 = ux * b14 + uy * c14 + uz * d14
        s15 = ux * b15 + uy * c15 + uz * d15
        # outcome +1 of u: M = R_0 + u.R
        m0, m1, m2, m3 = a0 + s0, a1 + s1, a2 + s2, a3 + s3
        e0 = vx * (a4 + s4) + vy * (a8 + s8) + vz * (a12 + s12)
        e1 = vx * (a5 + s5) + vy * (a9 + s9) + vz * (a13 + s13)
        e2 = vx * (a6 + s6) + vy * (a10 + s10) + vz * (a14 + s14)
        e3 = vx * (a7 + s7) + vy * (a11 + s11) + vz * (a15 + s15)
        total = (0.0 + _outcome_entropy(m0 + e0, m1 + e1, m2 + e2, m3 + e3, 0.25)
                 + _outcome_entropy(m0 - e0, m1 - e1, m2 - e2, m3 - e3, 0.25))
        # outcome -1 of u: M = R_0 - u.R
        m0, m1, m2, m3 = a0 - s0, a1 - s1, a2 - s2, a3 - s3
        e0 = vx * (a4 - s4) + vy * (a8 - s8) + vz * (a12 - s12)
        e1 = vx * (a5 - s5) + vy * (a9 - s9) + vz * (a13 - s13)
        e2 = vx * (a6 - s6) + vy * (a10 - s10) + vz * (a14 - s14)
        e3 = vx * (a7 - s7) + vy * (a11 - s11) + vz * (a15 - s15)
        return (total + _outcome_entropy(m0 + e0, m1 + e1, m2 + e2, m3 + e3, 0.25)
                + _outcome_entropy(m0 - e0, m1 - e1, m2 - e2, m3 - e3, 0.25))

    return entropy


def _u_sides(r, rows):
    """(lambda, u row, nu) = (1, +-u).R for every outcome row, in float64."""
    return (rows @ r.reshape(4, 16)).reshape(len(rows), 4, 4).transpose(2, 0, 1)


def _sum_outcomes(w, out):
    """out[u, v] = the entropies of planes w[lambda, u row, b, v], four outcomes summed."""
    h = _outcome_entropies(w, 0.25).reshape(-1, 4, out.shape[1])
    np.add(h[:, 0], h[:, 1], out=out)
    out += h[:, 2]
    out += h[:, 3]


def _two_angle_values(r, rows, points=None):
    """_two_angle_objective at pairs of the outcome rows' points, vectorized.

    Returns the grid rows of the u points in points (all n when None), each
    against every v point: u on the first axis. The matrix product
    (1, +-u).R runs over every u row before points selects some, and the v
    side is contracted elementwise, not by a matrix product, whose rounding
    at the edges of BLAS tiles would depend on the shape; so no value
    depends on points or on a row's place in its block. u points are filled
    _BLOCK_ROWS at a time, into buffers reused from block to block, to bound
    the memory of one pass.
    """
    n = len(rows) // 2
    v = rows[0::2, 1:]
    ur = _u_sides(r, rows)
    if points is not None:
        ur = ur[:, np.add.outer(2 * np.asarray(points), (0, 1)).ravel()]
    values = np.empty((ur.shape[1] // 2, n))
    size = 2 * min(_BLOCK_ROWS, len(values))
    e_buf = np.empty((4, size, n))
    # w[lambda, u row, b, v] for the outcomes b = +1, -1 of v
    w_buf = np.empty((4, size, 2, n))
    for lo in range(0, len(values), _BLOCK_ROWS):
        m = ur[:, 2 * lo:2 * (lo + _BLOCK_ROWS), :, None]
        e, w = e_buf[:, :m.shape[1]], w_buf[:, :m.shape[1]]
        c, scratch = m[:, :, 0], w[:, :, 0]
        np.multiply(m[:, :, 1], v[:, 0], out=e)
        e += np.multiply(m[:, :, 2], v[:, 1], out=scratch)
        e += np.multiply(m[:, :, 3], v[:, 2], out=scratch)
        np.add(c, e, out=w[:, :, 0])
        np.subtract(c, e, out=w[:, :, 1])
        _sum_outcomes(w, values[lo:lo + _BLOCK_ROWS])
    return values


def _two_angle_screen(r, rows):
    """_two_angle_values at every pair of points, in float32, for _screen_rows.

    Each block of u rows gets its planes from one float32 matrix product of
    its (1, +-u).R rows with the v outcome rows, (1, v) for every v point
    and then (1, -v), written into a buffer reused from block to block.
    BLAS rounds that product differently from the float64 pass's
    elementwise sums; min_double_conditional_entropy bounds the error.
    """
    n = len(rows) // 2
    vt = np.concatenate([rows[0::2], rows[1::2]]).T.astype(np.float32)
    ur = np.ascontiguousarray(_u_sides(r, rows), dtype=np.float32)
    values = np.empty((n, n), np.float32)
    w_buf = np.empty((4, 2 * min(_BLOCK_ROWS, n), 2 * n), np.float32)
    for lo in range(0, n, _BLOCK_ROWS):
        m = ur[:, 2 * lo:2 * (lo + _BLOCK_ROWS)]
        w = w_buf[:, :m.shape[1]]
        np.matmul(m, vt, out=w)
        _sum_outcomes(w.reshape(4, -1, 2, n), values[lo:lo + _BLOCK_ROWS])
    return values


def double_conditional_entropy(rho, k, bases) -> float:
    """S(rho_k | product measurements on the other two parties).

    bases is a pair of MeasurementBasis for the two measured parties in
    their rho.parties order.
    """
    if not (isinstance(bases, (list, tuple)) and len(bases) == 2
            and all(isinstance(b, MeasurementBasis) for b in bases)):
        raise ValidationError(f"bases {bases!r} must be two MeasurementBasis objects")
    u, v = bases
    r = _measured_tensor(rho, k, "double_conditional_entropy")
    return _two_angle_objective(r)((u.theta, u.phi, v.theta, v.phi))


def _screen_rows(screen):
    """u rows of the float32 screen grid that can hold the exact grid minimum.

    A row is dropped only when its least value exceeds the least value of
    the whole grid by more than SCREEN_MARGIN. The test is negated so that
    nan drops nothing: a grid holding a nan has a nan minimum, and then
    every row is kept.
    """
    row_min = screen.min(axis=1).astype(np.float64)
    return np.flatnonzero(~(row_min > row_min.min() + SCREEN_MARGIN))


def min_double_conditional_entropy(rho, k) -> float:
    """Minimum of the double conditional entropy over product measurements.

    Each measured party is scanned over the upper half of a 30 x 30
    Bloch-angle grid (421 points), which holds every measurement of the
    full grid once up to an outcome swap, and Nelder-Mead refines the grid
    minimum (bipartite._search). For pure global states every product
    measurement already yields zero.

    The grid is first filled in float32 (_two_angle_screen), and only the u
    rows whose float32 minimum lies within SCREEN_MARGIN of the float32 grid
    minimum are filled again in float64 and scanned, which gives the dense
    float64 grid's start: see README "Measurement search".
    """
    r = _measured_tensor(rho, k, "min_double_conditional_entropy")
    th, ph, rows = _hemisphere(DOUBLE_GRID_DEFAULT, DOUBLE_GRID_DEFAULT)
    keep = _screen_rows(_two_angle_screen(r, rows))  # freed before the float64 rows exist
    return _search(_two_angle_objective(r), keep, _two_angle_values(r, rows, keep), th, ph)[0]


def total_classical_mixed(rho) -> float:
    """Best-effort total classical correlations of a possibly mixed state.

    Maximizes S(rho_j) - S(j|i) + S(rho_k) - S(k|ji) over the six party
    permutations with projective-measurement optimizers, so the result is a
    lower bound to the POVM-defined quantity.
    """
    rho = _as_density(rho, "total_classical_mixed", 3)
    s1, pair_rho, _, _ = _entropies_and_pairs(rho)
    return _total_classical_mixed(rho, s1, pair_rho)


def _total_classical_mixed(rho, s1, pair_rho):
    """total_classical_mixed from rho's one-party entropies and pair states."""
    labels = rho.parties
    single_min = {}
    for i, j in itertools.permutations(labels, 2):
        red = _pair_lookup(pair_rho, i, j)
        slot = red.parties.index(i)
        single_min[(j, i)], _ = _min_conditional_entropy(red, slot)
    double_min = {k: min_double_conditional_entropy(rho, k) for k in labels}
    best = 0.0
    for i, j, k in itertools.permutations(labels):
        value = s1[j] - single_min[(j, i)] + s1[k] - double_min[k]
        best = max(best, value)
    return best


def genuine_total_n(psi) -> float:
    """Smallest bipartite mutual information over all 2^(n-1)-1 cuts."""
    psi = _pure_state(psi, "genuine_total_n", (3, 6))
    rho = density_of(psi)
    s_rho = von_neumann_entropy(rho)
    best = min(von_neumann_entropy(partial_trace(rho, part))
               + von_neumann_entropy(partial_trace(rho, comp)) - s_rho
               for part, comp in _bipartitions(psi.labels))
    return _floor_zero(best, "genuine total")


def _bipartitions(labels):
    """Each cut of labels into two nonempty sides once: (side with labels[0], rest)."""
    rest = labels[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            part = (labels[0],) + combo
            yield part, [x for x in labels if x not in part]


def genuine_qc_n(psi) -> float:
    """Genuine n-party classical correlations = genuine discord = T_n / 2."""
    return genuine_total_n(_pure_state(psi, "genuine_qc_n", (3, 6))) / 2.0
