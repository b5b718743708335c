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
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInvariantError, UnsupportedInputError, ValidationError
from .qstate import (
    OPTIMIZER_SLACK,
    ROUNDING_SLACK,
    DensityMatrix,
    PureState,
    _clamp_unit,
    _floor_zero,
    density_of,
    partial_trace,
    permute_parties,
    relative_entropy,
    von_neumann_entropy,
)
from .bipartite import (
    TIE_TOL,
    _bloch_xyz,
    _hemisphere,
    _kw_forms,
    _min_conditional_entropy,
    _outcome_entropies,
    _outcome_entropy,
    _pauli_tensor,
    _search,
    concurrence,
    eof_from_concurrence,
    one_to_rest_concurrence,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
)

CUT_PRODUCT_TOL = 1e-6
DOUBLE_GRID_DEFAULT = 30
# u points per block of the two-angle grid fill: 16 of the default 421 give
# 0.65 MB of buffers in float32 (1.3 MB in float64), reused from block to
# block; 8, 32 and 64 filled the grid in the same time to within 10%
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
        lams = self.lambdas
        if min(lams) < -1e-12:
            raise ValidationError(f"negative coefficient in {lams!r}")
        total = sum(x * x for x in lams)
        if not abs(total - 1.0) <= 1e-10:  # nan fails too
            raise ValidationError(f"coefficient squares sum to {total!r}, not 1")
        if not -1e-12 <= self.theta < 2 * math.pi + 1e-12:
            raise ValidationError(f"theta {self.theta!r} outside [0, 2*pi)")

    @property
    def lambdas(self):
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3,
                self.lambda4)


def _as_three_party(rho, what):
    if isinstance(rho, PureState):
        rho = density_of(rho)
    if not isinstance(rho, DensityMatrix):
        raise ValidationError(f"{what} expects a PureState or DensityMatrix")
    if rho.n_parties != 3:
        raise ValidationError(f"{what} expects 3 parties, got {rho.n_parties}")
    return rho


def _pure_three(psi, what):
    if isinstance(psi, DensityMatrix):
        psi = to_pure(psi)  # raises UnsupportedInputError when mixed
    if not isinstance(psi, PureState):
        raise ValidationError(f"{what} expects a PureState or DensityMatrix")
    if psi.n_qubits != 3:
        raise ValidationError(f"{what} expects three qubits, got {psi.n_qubits}")
    return psi


def _entropies_and_pairs(rho):
    labels = rho.parties
    s1 = {x: von_neumann_entropy(partial_trace(rho, [x])) for x in labels}
    pair_rho = {}
    pair_i = {}
    for i, j in itertools.combinations(labels, 2):
        red = partial_trace(rho, [i, j])
        pair_rho[(i, j)] = red
        pair_i[(i, j)] = s1[i] + s1[j] - von_neumann_entropy(red)
    return s1, pair_rho, pair_i


def _pair_lookup(table, i, j):
    return table[(i, j)] if (i, j) in table else table[(j, i)]


def total_information(rho) -> float:
    """T = S(rho_a) + S(rho_b) + S(rho_c) - S(rho)."""
    rho = _as_three_party(rho, "total_information")
    s1 = [von_neumann_entropy(partial_trace(rho, [x])) for x in rho.parties]
    return _floor_zero(sum(s1) - von_neumann_entropy(rho), "total information")


def canonical_ordering(rho) -> PartyOrdering:
    """Relabeling making the pairwise mutual informations descending.

    Candidate permutations are scanned in lexicographic order of the
    original labels, so fully symmetric states keep the identity.
    """
    rho = _as_three_party(rho, "canonical_ordering")
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
    rho = _as_three_party(rho, "genuine_total")
    _, _, pair_i = _entropies_and_pairs(rho)
    return _floor_zero(total_information(rho) - max(pair_i.values()), "T3")


def genuine_total_via_relative_entropy(rho) -> float:
    """min over the three cuts of S(rho || rho_ij (x) rho_k).

    Independent route to genuine_total: builds each two-versus-one product
    state explicitly and measures the relative-entropy distance.
    """
    rho = _as_three_party(rho, "genuine_total_via_relative_entropy")
    values = []
    for k in rho.parties:
        ij = [x for x in rho.parties if x != k]
        product = np.kron(partial_trace(rho, ij).matrix,
                          partial_trace(rho, [k]).matrix)
        sigma = permute_parties(DensityMatrix(product, ij + [k]), rho.parties)
        values.append(relative_entropy(rho, sigma))
    return min(values)


def _cut_mutual(abc, s1, pair_rho, s_rho):
    """I(xy:z) across the cuts ab|c, ac|b and bc|a of the ordering abc."""
    a, b, c = abc
    return tuple(_floor_zero(von_neumann_entropy(_pair_lookup(pair_rho, x, y))
                             + s1[z] - s_rho, "cut mutual information")
                 for x, y, z in ((a, b, c), (a, c, b), (b, c, a)))


def total_classical_pure(psi) -> float:
    """J = S(rho_b) + S(rho_c) - E(rho_bc) in the canonical ordering."""
    return _report_pure(_pure_three(psi, "total_classical_pure")).J


def total_discord_pure(psi) -> float:
    """D = S(rho_a) + E(rho_bc) in the canonical ordering."""
    return _report_pure(_pure_three(psi, "total_discord_pure")).D


def bipartite_parts_pure(psi) -> tuple:
    """(J2, D2): the bipartite shares of the total correlations.

    J2 is the largest symmetrized pairwise classical correlation, which the
    closed form S(rho_b) - E(rho_bc) realizes exactly. D2 uses the ordered
    closed form S(rho_a) - S(rho_c) + E(rho_bc) whenever every cut mutual
    information exceeds 1e-6; on states that are product across some cut the
    definitional minimum over the three symmetrized pairwise discords is
    returned instead (for those states the ordered form and the definition
    disagree, and the definition wins).
    """
    report = _report_pure(_pure_three(psi, "bipartite_parts_pure"))
    return report.J2, report.D2


def _last_party_entropy(psi, what):
    """S(rho_c), with c the last party of canonical_ordering."""
    rho = density_of(_pure_three(psi, what))
    s1, _, pair_i = _entropies_and_pairs(rho)
    return s1[_ordering(rho.parties, pair_i).permutation[2]]


def genuine_classical(psi) -> float:
    """J3 = S(rho_c), the smallest one-qubit entropy."""
    return _last_party_entropy(psi, "genuine_classical")


def genuine_discord(psi) -> float:
    """D3 = S(rho_c); genuine classical and quantum correlations coincide."""
    return _last_party_entropy(psi, "genuine_discord")


def three_tangle(psi) -> float:
    """Residual tangle tau = C_a^2 - C_ab^2 - C_ac^2 of a pure state."""
    psi = _pure_three(psi, "three_tangle")
    rho = density_of(psi)
    first = psi.labels[0]
    c_one = one_to_rest_concurrence(partial_trace(rho, [first]))
    tau = c_one * c_one
    for other in psi.labels[1:]:
        c_pair = concurrence(partial_trace(rho, [first, other]))
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
    if not 2 <= int(n_qubits) <= 6:
        raise ValidationError(f"n_qubits {n_qubits!r} outside 2..6")
    amp = np.zeros(2 ** int(n_qubits), dtype=complex)
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
    rho = _as_three_party(state, "correlation_report")
    try:
        psi = to_pure(state if isinstance(state, PureState) else rho)
    except UnsupportedInputError:
        return _report_mixed(rho)
    return _report_pure(psi)


def _report_pure(psi):
    """Closed-form report of a pure three-qubit state psi."""
    rho = density_of(psi)
    s1, pair_rho, pair_i = _entropies_and_pairs(rho)
    s_rho = von_neumann_entropy(rho)
    # Three repeats held only by perfbench's pinned 133/223 per-sample counts
    # (ROADMAP item 1), whose re-pin deletes them here: canonical_ordering
    # rebuilds the table that _ordering(rho.parties, pair_i) would read, the
    # cuts are computed for the D2 branch and again for the report field, and
    # three_tangle re-derives rho, two pair reductions and their concurrences.
    order = canonical_ordering(rho)
    branch_cut = _cut_mutual(order.permutation, s1, pair_rho, s_rho)
    tangle = three_tangle(psi)

    eof = {pair: eof_from_concurrence(concurrence(red)) for pair, red in pair_rho.items()}
    a, b, c = order.permutation
    e_bc = _pair_lookup(eof, b, c)
    if min(branch_cut) > CUT_PRODUCT_TOL:
        d2 = s1[a] - s1[c] + e_bc
    else:
        # the definition: the least directional discord D_{i:j}, j measured
        d2 = min(_kw_forms(s1, _pair_lookup(eof, i, k), i, j, k)[1]
                 for i, j, k in itertools.permutations(psi.labels))
    cut = _cut_mutual(order.permutation, s1, pair_rho, s_rho)
    return _assemble_report(sum(s1.values()) - s_rho, s1[b] + s1[c] - e_bc,
                            s1[a] + e_bc, _floor_zero(s1[b] - e_bc, "J2"), d2,
                            order, cut, tangle)


def _report_mixed(rho):
    # one entropy table gives the ordering, T and the cuts
    s1, pair_rho, pair_i = _entropies_and_pairs(rho)
    s_rho = von_neumann_entropy(rho)
    order = _ordering(rho.parties, pair_i)
    t = _floor_zero(sum(s1.values()) - s_rho, "T")  # floored like total_information
    j = _total_classical_mixed(rho, s1, pair_rho)
    j2 = max(symmetrized_classical(red) for red in pair_rho.values())
    d2 = min(symmetrized_discord(red) for red in pair_rho.values())
    cut = _cut_mutual(order.permutation, s1, pair_rho, s_rho)
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
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise ValidationError(
            f"need 0 <= p_min <= p_max <= 1, got [{p_min}, {p_max}]"
        )
    if not step > 0.0:  # also catches nan
        raise ValidationError(f"step {step!r} must be positive")
    span = (p_max - p_min) / step
    if span >= SWEEP_MAX_POINTS - 0.5:  # also inf, which round() rejects
        raise ValidationError(f"step {step!r} asks for {span + 1.0:.6g} grid "
                              f"points, more than {SWEEP_MAX_POINTS}")
    return [min(round(p_min + k * step, 12), p_max)
            for k in range(int(round(span)) + 1)]


def sweep_families(p_grid, families=("ghz_tilde", "w_tilde")):
    """Closed-form reports for each family at each p, as (p, family, report)."""
    rows = []
    for name in families:
        if name not in FAMILIES:
            raise ValidationError(f"unknown family {name!r}")
    for name in families:
        build = FAMILIES[name]
        for p in p_grid:
            rows.append((float(p), name, correlation_report(build(p))))
    return rows


def find_discord_crossover(rows):
    """Smallest p where the W-family total discord exceeds the GHZ-family's.

    Scans the D values of sweep_families rows of both families, in order of
    p, for a sign change of the difference and bisects it with
    total_discord_pure down to CROSSOVER_TOL. Returns None when the rows hold none.
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
                if (total_discord_pure(family_w_tilde(mid))
                        - total_discord_pure(family_ghz_tilde(mid))) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2.0
    return None


def _measured_tensor(rho, k, what):
    """Pauli tensor of rho with axes (measured i, measured j, kept k)."""
    rho = _as_three_party(rho, what)
    k = str(k)
    if k not in rho.parties:
        raise ValidationError(f"unknown party {k!r}; have {rho.parties!r}")
    slot_k = rho.parties.index(k)
    return _pauli_tensor(rho.matrix, [x for x in range(3) if x != slot_k] + [slot_k])


def _two_angle_objective(r):
    """f(x): S(k | u at Bloch angles x[:2] on i, v at x[2:] on j), from r.

    Outcome a of u leaves M = R_0 + a u.R on (j, k), R_mu = r[mu] flattened;
    outcome b of v then leaves k with M_0 + b v.M, M_nu the 4-blocks of M.
    """
    r0, r1, r2, r3 = r.reshape(4, 16).tolist()

    def entropy(x):
        ux, uy, uz = _bloch_xyz(x[0], x[1])
        vx, vy, vz = _bloch_xyz(x[2], x[3])
        d = [ux * a + uy * b + uz * c for a, b, c in zip(r1, r2, r3)]
        total = 0.0
        for m in ([a + b for a, b in zip(r0, d)], [a - b for a, b in zip(r0, d)]):
            m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = m
            e0 = vx * m4 + vy * m8 + vz * m12
            e1 = vx * m5 + vy * m9 + vz * m13
            e2 = vx * m6 + vy * m10 + vz * m14
            e3 = vx * m7 + vy * m11 + vz * m15
            total += _outcome_entropy(m0 + e0, m1 + e1, m2 + e2, m3 + e3, 0.25)
            total += _outcome_entropy(m0 - e0, m1 - e1, m2 - e2, m3 - e3, 0.25)
        return total

    return entropy


def _two_angle_values(r, rows, points=None, dtype=np.float64, block=_BLOCK_ROWS):
    """_two_angle_objective at pairs of the outcome rows' points, vectorized.

    Returns the grid rows of the u points in points (all n when None), each
    against every v point, in dtype: u on the first axis. The matrix product
    (1, +-u).R runs in float64 over every u row before points selects some,
    and the v side is contracted elementwise, not by a matrix product, whose
    rounding at the edges of BLAS tiles would depend on the shape; so no
    value depends on points or block. u points are filled block at a time,
    into buffers reused from block to block, to bound the memory of one pass.
    """
    n = len(rows) // 2
    v = rows[0::2, 1:].astype(dtype)
    # (lambda, u row, nu): (1, +-u).R for every u row
    ur = (rows @ r.reshape(4, 16)).reshape(2 * n, 4, 4).transpose(2, 0, 1)
    if points is not None:
        ur = ur[:, np.add.outer(2 * np.asarray(points), (0, 1)).ravel()]
    ur = ur.astype(dtype)
    values = np.empty((ur.shape[1] // 2, n), dtype)
    size = 2 * min(block, len(values))
    e_buf = np.empty((4, size, n), dtype)
    # w[lambda, u row, b, v] for the outcomes b = +1, -1 of v
    w_buf = np.empty((4, size, 2, n), dtype)
    for lo in range(0, len(values), block):
        m = ur[:, 2 * lo:2 * (lo + block), :, None]
        e, w = e_buf[:, :m.shape[1]], w_buf[:, :m.shape[1]]
        c, scratch = m[:, :, 0], w[:, :, 0]
        np.multiply(m[:, :, 1], v[:, 0], out=e)
        e += np.multiply(m[:, :, 2], v[:, 1], out=scratch)
        e += np.multiply(m[:, :, 3], v[:, 2], out=scratch)
        np.add(c, e, out=w[:, :, 0])
        np.subtract(c, e, out=w[:, :, 1])
        h = _outcome_entropies(w, 0.25).reshape(-1, 4, n)
        out = values[lo:lo + len(h)]
        np.add(h[:, 0], h[:, 1], out=out)
        out += h[:, 2]
        out += h[:, 3]
    return values


def double_conditional_entropy(rho, k, bases) -> float:
    """S(rho_k | product measurements on the other two parties).

    bases is a pair of MeasurementBasis for the two measured parties in
    their rho.parties order.
    """
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


def _screened_values(r, rows):
    """The two-angle grid, exact in the rows that _screen_rows keeps, +inf in the rest."""
    screen = _two_angle_values(r, rows, dtype=np.float32)
    keep = _screen_rows(screen)
    values = np.full(screen.shape, np.inf)
    values[keep] = _two_angle_values(r, rows, keep)
    return values


def min_double_conditional_entropy(rho, k) -> float:
    """Minimum of the double conditional entropy over product measurements.

    Each measured party is scanned over the upper half of a 30 x 30
    Bloch-angle grid (421 points), which holds every measurement of the
    full grid once up to an outcome swap, and Nelder-Mead refines the grid
    minimum as in the one-party search. For pure global states every
    product measurement already yields zero.

    The 421 x 421 grid is first filled in float32, and only the u rows whose
    float32 minimum lies within SCREEN_MARGIN of the float32 grid minimum
    are filled again in float64; the others read +inf. Each float64 row is
    byte for byte the row of the dense float64 grid, so the search sees the
    same minimum, start point and start value. Why: let E bound the
    float32 error of every cell. A cell within TIE_TOL of the exact minimum
    m has float32 value at most m + TIE_TOL + E, and the float32 minimum is
    at least m - E, so its row is kept whenever SCREEN_MARGIN >= 2 E +
    TIE_TOL. The only ill-conditioned term is (1 - lam) log2(1 - lam) as
    lam -> 1: an error of about 1.2e-7 in lam moves it by about
    1.2e-7 * log2(1 / 1.2e-7), some 3e-6. The largest error measured was
    1.1e-6 over random mixed states and 2.8e-6 on near-pure and degenerate
    mixtures, so 2 E + TIE_TOL stays over 15 times below SCREEN_MARGIN. A
    flat landscape, such as that of I/8, keeps every row and pays for the
    float32 pass on top of the float64 one.
    """
    r = _measured_tensor(rho, k, "min_double_conditional_entropy")
    th, ph, rows = _hemisphere(DOUBLE_GRID_DEFAULT, DOUBLE_GRID_DEFAULT)
    return _search(_two_angle_objective(r), _screened_values(r, rows), th, ph)[0]


def total_classical_mixed(rho) -> float:
    """Best-effort total classical correlations of a possibly mixed state.

    Maximizes S(rho_j) - S(j|i) + S(rho_k) - S(k|ji) over the six party
    permutations with projective-measurement optimizers, so the result is a
    lower bound to the POVM-defined quantity.
    """
    rho = _as_three_party(rho, "total_classical_mixed")
    s1, pair_rho, _ = _entropies_and_pairs(rho)
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


def _pure_n(psi, what):
    if isinstance(psi, DensityMatrix):
        psi = to_pure(psi)
    if not isinstance(psi, PureState):
        raise ValidationError(f"{what} expects a PureState or DensityMatrix")
    if not 3 <= psi.n_qubits <= 6:
        raise UnsupportedInputError(
            f"{what} supports 3 to 6 parties, got {psi.n_qubits}"
        )
    return psi


def genuine_total_n(psi) -> float:
    """Smallest bipartite mutual information over all 2^(n-1)-1 cuts."""
    psi = _pure_n(psi, "genuine_total_n")
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
    return genuine_total_n(psi) / 2.0
