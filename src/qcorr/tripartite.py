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
    DensityMatrix,
    PureState,
    density_of,
    partial_trace,
    permute_parties,
    relative_entropy,
    von_neumann_entropy,
)
from .bipartite import (
    GRID_DEFAULT,
    REFINE_ITERS_DEFAULT,
    REFINE_TOL_DEFAULT,
    TIE_TOL,
    MeasurementBasis,
    _bloch_grid,
    _bloch_vector,
    _min_conditional_entropy,
    _nelder_mead,
    _outcome_entropy,
    concurrence,
    eof_from_concurrence,
    one_to_rest_concurrence,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
)

CUT_PRODUCT_TOL = 1e-6
DOUBLE_GRID_DEFAULT = 30
# (u, v) pairs per outcome block of the two-angle grid scan: 6 rows of the
# default 900-point grid, a 1.4 MB block that fits a 2 MB L2 cache
_BLOCK_PAIRS = 5400
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
        slack = 1e-9 if self.method == "closed-form" else 1e-6
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
        if abs(total - 1.0) > 1e-10:
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
    value = sum(s1) - von_neumann_entropy(rho)
    if value < -1e-9:
        raise InternalInvariantError(f"total information {value!r} < 0")
    return max(0.0, value)


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
            return PartyOrdering(perm, (i_xy, i_xz, i_yz))
    raise InternalInvariantError("no permutation orders the mutual informations")


def genuine_total(rho) -> float:
    """T3 = T - max pairwise mutual information."""
    rho = _as_three_party(rho, "genuine_total")
    _, _, pair_i = _entropies_and_pairs(rho)
    value = total_information(rho) - max(pair_i.values())
    return max(0.0, value)


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


class _ClosedForm:
    """Shared scaffolding for the pure-state closed forms."""

    __slots__ = ("psi", "rho", "s1", "pair_rho", "pair_i", "order", "eof",
                 "s_rho")

    def __init__(self, psi):
        self.psi = psi
        self.rho = density_of(psi)
        self.s1, self.pair_rho, self.pair_i = _entropies_and_pairs(self.rho)
        self.s_rho = von_neumann_entropy(self.rho)
        self.order = canonical_ordering(self.rho)
        self.eof = {
            pair: eof_from_concurrence(concurrence(red))
            for pair, red in self.pair_rho.items()
        }

    def e(self, i, j):
        return _pair_lookup(self.eof, i, j)

    def s(self, x):
        return self.s1[x]

    @property
    def abc(self):
        return self.order.permutation

    def discord_dir(self, i, j):
        # D_{i:j} with measurement on j; k is the remaining party
        (k,) = [x for x in self.psi.labels if x not in (i, j)]
        return self.s(j) - self.s(k) + self.e(i, k)

    def pair_discord(self, i, j):
        return min(self.discord_dir(i, j), self.discord_dir(j, i))

    def cut_mutual(self):
        return _cut_mutual(self.abc, self.s1, self.pair_rho, self.s_rho)

    # Shares of T in the canonical ordering. Only J2 is floored at zero here;
    # the accessors and the report floor the others.

    def total_classical(self):
        _, b, c = self.abc
        return self.s(b) + self.s(c) - self.e(b, c)

    def total_discord(self):
        a, b, c = self.abc
        return self.s(a) + self.e(b, c)

    def bipartite_classical(self):
        _, b, c = self.abc
        return max(0.0, self.s(b) - self.e(b, c))

    def bipartite_discord(self):
        a, b, c = self.abc
        if min(self.cut_mutual()) > CUT_PRODUCT_TOL:
            return self.s(a) - self.s(c) + self.e(b, c)
        return min(self.pair_discord(i, j)
                   for i, j in itertools.combinations(self.psi.labels, 2))

    def genuine(self):
        return self.s(self.abc[2])


def _cut_mutual(abc, s1, pair_rho, s_rho):
    """I(xy:z) across the cuts ab|c, ac|b and bc|a of the ordering abc."""
    a, b, c = abc
    return tuple(von_neumann_entropy(_pair_lookup(pair_rho, x, y)) + s1[z] - s_rho
                 for x, y, z in ((a, b, c), (a, c, b), (b, c, a)))


def total_classical_pure(psi) -> float:
    """J = S(rho_b) + S(rho_c) - E(rho_bc) in the canonical ordering."""
    return max(0.0, _ClosedForm(_pure_three(psi, "total_classical_pure"))
               .total_classical())


def total_discord_pure(psi) -> float:
    """D = S(rho_a) + E(rho_bc) in the canonical ordering."""
    return max(0.0, _ClosedForm(_pure_three(psi, "total_discord_pure"))
               .total_discord())


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
    cf = _ClosedForm(_pure_three(psi, "bipartite_parts_pure"))
    return cf.bipartite_classical(), max(0.0, cf.bipartite_discord())


def genuine_classical(psi) -> float:
    """J3 = S(rho_c), the smallest one-qubit entropy."""
    return _ClosedForm(_pure_three(psi, "genuine_classical")).genuine()


def genuine_discord(psi) -> float:
    """D3 = S(rho_c); genuine classical and quantum correlations coincide."""
    return _ClosedForm(_pure_three(psi, "genuine_discord")).genuine()


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
    if tau < -1e-9:
        raise InternalInvariantError(f"residual tangle {tau!r} < 0")
    return max(0.0, tau)


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


def _check_p(p):
    p = float(p)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValidationError(f"p {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def family_ghz_tilde(p: float, labels=None) -> PureState:
    """sqrt(p) GHZ + sqrt(1-p) |100>; the branches are orthogonal."""
    p = _check_p(p)
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b111] = math.sqrt(p / 2.0)
    amp[0b100] = math.sqrt(1.0 - p)
    return PureState(amp, labels)


def family_w_tilde(p: float, labels=None) -> PureState:
    """sqrt(p) W + sqrt(1-p) |000>; the branches are orthogonal."""
    p = _check_p(p)
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = amp[0b100] = math.sqrt(p / 3.0)
    amp[0b000] = math.sqrt(1.0 - p)
    return PureState(amp, labels)


FAMILIES = {"ghz_tilde": family_ghz_tilde, "w_tilde": family_w_tilde}


def correlation_report(state, require_pure=False, grid=GRID_DEFAULT,
                       refine_iters=REFINE_ITERS_DEFAULT,
                       tol=REFINE_TOL_DEFAULT) -> CorrelationReport:
    """Assemble every quantifier for a three-qubit state.

    Pure inputs (largest eigenvalue above 1 - 1e-8) take the closed-form
    path; mixed inputs run the measurement optimizers and leave tangle
    unset. require_pure turns a mixed input into an error instead.
    """
    rho = _as_three_party(state, "correlation_report")
    try:
        psi = to_pure(state if isinstance(state, PureState) else rho)
    except UnsupportedInputError:
        if require_pure:
            raise
        psi = None
    if psi is not None:
        return _report_pure(psi)
    return _report_mixed(rho, grid, refine_iters, tol)


def _clip(x, slack=1e-9):
    if x < -slack:
        raise InternalInvariantError(f"negative quantifier {x!r}")
    return max(0.0, float(x))


def _report_pure(psi):
    cf = _ClosedForm(psi)
    # the cuts are computed twice: for the D2 branch and for the report field
    return _assemble_report(sum(cf.s1.values()) - cf.s_rho, cf.total_classical(),
                            cf.total_discord(), cf.bipartite_classical(),
                            cf.bipartite_discord(), cf.order, cf.cut_mutual(),
                            three_tangle(psi))


def _report_mixed(rho, grid, refine_iters, tol):
    # one entropy table gives the ordering, T and the cuts
    s1, pair_rho, pair_i = _entropies_and_pairs(rho)
    s_rho = von_neumann_entropy(rho)
    order = _ordering(rho.parties, pair_i)
    t = _clip(sum(s1.values()) - s_rho)  # floored like total_information
    kwargs = dict(grid=grid, refine_iters=refine_iters, tol=tol)
    j = total_classical_mixed(rho, **kwargs)
    j2 = max(symmetrized_classical(red, **kwargs) for red in pair_rho.values())
    d2 = min(symmetrized_discord(red, **kwargs) for red in pair_rho.values())
    cut = _cut_mutual(order.permutation, s1, pair_rho, s_rho)
    return _assemble_report(t, j, t - j, j2, d2, order, cut, None)


def _assemble_report(t, j, d, j2, d2, order, cut, tangle):
    """The report of T = J + D and its bipartite and genuine shares.

    tangle is None on the optimizer path, whose J and D shares may dip below
    zero by the 1e-6 optimizer noise budget instead of the closed forms' 1e-9.
    """
    pure = tangle is not None
    soft = 1e-9 if pure else 1e-6
    t2 = order.sorted_mutual_infos[0]
    return CorrelationReport(
        T=_clip(t), J=_clip(j, soft), D=_clip(d, soft),
        T2=_clip(t2), T3=_clip(t - t2),
        J2=_clip(j2, soft), J3=_clip(j - j2, soft),
        D2=_clip(d2, soft), D3=_clip(d - d2, soft),
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


def find_discord_crossover(rows, tol=CROSSOVER_TOL):
    """Smallest p where the W-family total discord exceeds the GHZ-family's.

    Scans the D values of sweep_families rows of both families, in order of
    p, for a sign change of the difference and bisects it with
    total_discord_pure down to tol. Returns None when the rows hold none.
    """
    d = {(p, family): report.D for p, family, report in rows}
    gaps = []
    for p in sorted({p for p, _ in d}):
        if (p, "ghz_tilde") not in d or (p, "w_tilde") not in d:
            raise ValidationError(f"crossover needs both families' rows at p = {p!r}")
        gaps.append((p, d[p, "w_tilde"] - d[p, "ghz_tilde"]))
    for (lo, g_lo), (hi, g_hi) in zip(gaps, gaps[1:]):
        if g_lo <= 0.0 < g_hi:
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if (total_discord_pure(family_w_tilde(mid))
                        - total_discord_pure(family_ghz_tilde(mid))) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2.0
    return None


# Contractions of the measured tensor t (axes: measured i, measured j, kept k,
# then their column copies) with outcome vectors u on i and v on j.
_JOINT = "ax,by,xyzXYZ,aX,bY->abzZ"
_FIRST = "ax,xyzXyZ,aX->azZ"
_SECOND = "by,xyzxYZ,bY->bzZ"


def _measured_tensor(rho, k, what):
    """(t, rho_k): rho with axes (measured, measured, k) twice, and the state of k."""
    rho = _as_three_party(rho, what)
    k = str(k)
    if k not in rho.parties:
        raise ValidationError(f"unknown party {k!r}; have {rho.parties!r}")
    slot_k = rho.parties.index(k)
    perm = [x for x in range(3) if x != slot_k] + [slot_k]
    t = rho.matrix.reshape((2,) * 6).transpose(perm + [3 + p for p in perm])
    return t, np.einsum("xyzxyZ->zZ", t)


def _one_sided(spec, t, vecs):
    """k-conditioned states after one measured party projects on vecs, (2, 2, n)."""
    return np.einsum(spec, vecs.conj(), t, vecs, optimize=True).transpose(1, 2, 0)


def _double_entropies(cond, r_k, m_u, m_v):
    """S(k | u on i, v on j) for every pair of u and v vectors, (len(u), len(v)).

    cond is a (2, 2, 4, len(u), len(v)) array that holds the joint states
    m_uv as outcome 0 on entry; the other product outcomes (u v-perp, u-perp
    v, u-perp v-perp) are written after it, so every matrix entry of every
    outcome is a contiguous plane. m_u and m_v are the one-sided states
    _one_sided gives for the u and v vectors.
    """
    m_uv = cond[:, :, 0]
    m_u = m_u[..., None]
    m_v = m_v[:, :, None, :]
    np.subtract(m_u, m_uv, out=cond[:, :, 1])
    np.subtract(m_v, m_uv, out=cond[:, :, 2])
    last = cond[:, :, 3]
    np.subtract(r_k[..., None, None], m_u, out=last)
    last -= m_v
    last += m_uv
    # summed over outcomes in the order above; the grid's near-tied minima
    # make the rounding of this sum part of the search result
    return _outcome_entropy(cond[0, 0], cond[0, 1], cond[1, 0],
                            cond[1, 1]).sum(axis=0)


def _planned_double_entropy(t, r_k):
    """f(x): S(k | product measurement at Bloch angles x = (th_i, ph_i, th_j, ph_j)).

    f runs the pairwise contractions that einsum's greedy path makes for
    _JOINT, _FIRST and _SECOND on single vectors as the same reshape,
    transpose and matmul steps that numpy 2.4's einsum executes, on
    permuted copies of t made once here. It therefore returns the einsum
    result bit for bit, without einsum's per-call dispatch. Its rounding is
    part of the searched value, like the grid's chunk size, and the repr
    tests of double_conditional_entropy and the two-angle search pin it.
    """
    joint = t.transpose(1, 2, 3, 4, 5, 0).reshape(32, 2)
    first = np.einsum("xyzXyZ->zXZx", t).reshape(8, 2)
    second = np.einsum("xyzxYZ->zYZy", t).reshape(8, 2)
    cond = np.empty((2, 2, 4, 1, 1), dtype=complex)

    def one_sided(tensor, w, w_bar):
        s = (tensor @ w_bar).reshape(2, 2, 2).transpose(2, 0, 1)
        return (s.reshape(4, 2) @ w).reshape(2, 2, 1).transpose(1, 0, 2)

    def entropy(x):
        u = _bloch_vector(x[0], x[1]).reshape(2, 1)
        v = _bloch_vector(x[2], x[3]).reshape(2, 1)
        u_bar, v_bar = u.conj(), v.conj()
        s = (joint @ u_bar).reshape(2, 2, 2, 2, 2).transpose(2, 3, 4, 1, 0)
        s = (s.reshape(16, 2) @ v_bar).reshape(2, 2, 2, 2).transpose(1, 2, 3, 0)
        s = (s.reshape(8, 2) @ u).reshape(2, 2, 2).transpose(1, 2, 0)
        cond[:, :, 0, 0, 0] = (s.reshape(4, 2) @ v).reshape(2, 2).T
        return float(_double_entropies(cond, r_k, one_sided(first, u, u_bar),
                                       one_sided(second, v, v_bar))[0, 0])

    return entropy


def _chunk_filler(t, r_k, u_vecs, chunk, block):
    """f(start): S(k | u on i, v on j) for u in rows start..start+chunk, all v.

    f contracts _JOINT once per chunk, on the greedy path einsum plans for
    the chunk's shape, and evaluates the outcome entropies block rows at a
    time, so the outcome block stays cache-sized. Each value is an
    elementwise function of its own row's contractions, so the values of a
    chunk do not depend on block.
    """
    n = u_vecs.shape[0]
    u_bar = u_vecs.conj()
    m_u = _one_sided(_FIRST, t, u_vecs)
    m_v = _one_sided(_SECOND, t, u_vecs)
    paths = {}  # by chunk rows: the full chunks and a shorter last one
    buf = np.empty(16 * min(block, chunk) * n, dtype=complex)

    def fill(start):
        u_rows = u_vecs[start:start + chunk]
        rows = len(u_rows)
        operands = (u_rows.conj(), u_bar, t, u_rows, u_vecs)
        if rows not in paths:
            paths[rows] = np.einsum_path(_JOINT, *operands, optimize="greedy")[0]
        joint = np.einsum(_JOINT, *operands,
                          optimize=paths[rows]).transpose(2, 3, 0, 1)
        values = np.empty((rows, n))
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            cond = buf[:16 * (hi - lo) * n].reshape(2, 2, 4, hi - lo, n)
            cond[:, :, 0] = joint[:, :, lo:hi]
            values[lo:hi] = _double_entropies(cond, r_k,
                                              m_u[..., start + lo:start + hi], m_v)
        return values

    return fill


def double_conditional_entropy(rho, k, bases) -> float:
    """S(rho_k | product measurements on the other two parties).

    bases is a pair of MeasurementBasis for the two measured parties in
    their rho.parties order.
    """
    t, r_k = _measured_tensor(rho, k, "double_conditional_entropy")
    u, v = bases
    return _planned_double_entropy(t, r_k)((u.theta, u.phi, v.theta, v.phi))


def min_double_conditional_entropy(rho, k, grid=DOUBLE_GRID_DEFAULT,
                                   refine_iters=REFINE_ITERS_DEFAULT,
                                   tol=REFINE_TOL_DEFAULT) -> float:
    """Minimum of the double conditional entropy over product measurements.

    Four Bloch angles are scanned on a grid (grid points per angle) and the
    best point is refined with Nelder-Mead. For pure global states every
    product measurement already yields zero.

    Each party's grid holds every measurement twice, as (theta, phi) and
    with its outcomes swapped as (pi - theta, phi + pi), so the grid minimum
    comes as mirror pairs tied to rounding. Nelder-Mead starts from the
    first one found: the u grid is scanned in chunks of 131072 // (4 g^2)
    rows, and a later chunk wins only when it is lower by more than TIE_TOL.
    The chunk size and that rule therefore choose the start point and are
    part of the returned value. Within a chunk the values are filled in
    blocks of _BLOCK_PAIRS // g^2 rows; the block only sets how much memory
    one pass over the outcomes touches, and every value is the same for any
    block, so the block is not part of the output. The rounding of the
    objective, _planned_double_entropy, whose matmul chain reproduces
    einsum's greedy contraction path bit for bit, is; the repr tests of
    this search pin it and the chunk rule.
    """
    t, r_k = _measured_tensor(rho, k, "min_double_conditional_entropy")
    th_u, ph_u, u_vecs = _bloch_grid(grid, grid)
    n = u_vecs.shape[0]
    best = math.inf
    best_idx = (0, 0)
    chunk = max(1, 131072 // (n * 4))
    chunk_values = _chunk_filler(t, r_k, u_vecs, chunk,
                                 max(1, _BLOCK_PAIRS // n))
    for start in range(0, n, chunk):
        values = chunk_values(start)
        flat = int(values.argmin())
        v_min = float(values.reshape(-1)[flat])
        if v_min < best - TIE_TOL:
            best = v_min
            best_idx = (start + flat // n, flat % n)
    iu, iv = best_idx
    x0 = [th_u[iu], ph_u[iu], th_u[iv], ph_u[iv]]
    res = _nelder_mead(_planned_double_entropy(t, r_k), x0, refine_iters, tol)
    return min(best, float(res.fun))


def total_classical_mixed(rho, grid=GRID_DEFAULT,
                          refine_iters=REFINE_ITERS_DEFAULT,
                          tol=REFINE_TOL_DEFAULT) -> float:
    """Best-effort total classical correlations of a possibly mixed state.

    Maximizes S(rho_j) - S(j|i) + S(rho_k) - S(k|ji) over the six party
    permutations with projective-measurement optimizers, so the result is a
    lower bound to the POVM-defined quantity.
    """
    rho = _as_three_party(rho, "total_classical_mixed")
    labels = rho.parties
    s1, pair_rho, _ = _entropies_and_pairs(rho)
    single_min = {}
    for i, j in itertools.permutations(labels, 2):
        red = _pair_lookup(pair_rho, i, j)
        slot = red.parties.index(i)
        single_min[(j, i)], _ = _min_conditional_entropy(
            red, slot, grid, refine_iters, tol
        )
    double_min = {
        k: min_double_conditional_entropy(rho, k, refine_iters=refine_iters,
                                          tol=tol)
        for k in labels
    }
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
    return max(0.0, best)


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
