"""Two-qubit correlation measures.

Concurrence, entanglement of formation, mutual information, and the
directional/symmetrized classical correlation and discord, where the
measured party is scanned over rank-1 projective bases on a Bloch-angle
grid and refined with a simplex optimizer. Closed forms for reductions of
pure three-qubit states are provided for cross-checking the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, UnsupportedInputError, ValidationError
from .qstate import (
    DensityMatrix,
    PureState,
    binary_entropy,
    density_of,
    partial_trace,
    von_neumann_entropy,
)

GRID_DEFAULT = (60, 120)
REFINE_ITERS_DEFAULT = 200
REFINE_TOL_DEFAULT = 1e-10
TIE_TOL = 1e-10
DISCORD_CLIP = 1e-6

_SY = np.array([[0.0, -1.0], [1.0, 0.0]])  # i*sigma_y, real
_YY = np.kron(_SY, _SY)  # sigma_y (x) sigma_y up to a global sign squared away


def _bloch_vector(theta, phi):
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, for any real angles."""
    return np.array([math.cos(theta / 2.0),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)])


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective qubit measurement parameterized by Bloch angles.

    Projects onto |m0> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> and its
    orthogonal complement.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValidationError(f"theta {self.theta!r} outside [0, pi]")
        if not -1e-12 <= self.phi < 2 * math.pi + 1e-12:
            raise ValidationError(f"phi {self.phi!r} outside [0, 2*pi)")

    def vector(self):
        return _bloch_vector(self.theta, self.phi)

    def complement_vector(self):
        v = self.vector()
        return np.array([-v[1].conjugate(), v[0].conjugate()])

    def projectors(self):
        v0 = self.vector()
        v1 = self.complement_vector()
        return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


@dataclass(frozen=True)
class DirectionalResult:
    """One directional correlation value with its optimal measurement."""

    value: float
    optimal_basis: MeasurementBasis
    method: str

    def __post_init__(self):
        if self.value < -1e-9:
            raise InternalInvariantError(f"negative correlation {self.value!r}")


def _require_parties(rho, n, what):
    if not isinstance(rho, DensityMatrix):
        raise ValidationError(f"{what} expects a DensityMatrix")
    if rho.n_parties != n:
        raise ValidationError(f"{what} expects {n} parties, got {rho.n_parties}")


def mutual_information(rho_ab: DensityMatrix) -> float:
    """I = S(rho_a) + S(rho_b) - S(rho_ab), in bits."""
    _require_parties(rho_ab, 2, "mutual_information")
    a, b = rho_ab.parties
    return (
        von_neumann_entropy(partial_trace(rho_ab, [a]))
        + von_neumann_entropy(partial_trace(rho_ab, [b]))
        - von_neumann_entropy(rho_ab)
    )


def _sqrt_psd(m, clip=1e-12):
    vals, vecs = np.linalg.eigh(m)
    vals = np.where(vals < clip, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def concurrence(rho_ab: DensityMatrix) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The lambdas are the root eigenvalues of the Hermitian sandwich
    sqrt(rho) rho_tilde sqrt(rho); they are computed here as the singular
    values of sqrt(rho) @ sqrt(rho_tilde), which is the same quantity but
    keeps the near-zero lambdas at machine accuracy instead of the 1e-8
    floor that taking sqrt of eigensolver noise would impose.
    """
    _require_parties(rho_ab, 2, "concurrence")
    m = rho_ab.matrix
    m_tilde = _YY @ m.conj() @ _YY
    lam = np.linalg.svd(_sqrt_psd(m) @ _sqrt_psd(m_tilde), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def one_to_rest_concurrence(rho_i: DensityMatrix) -> float:
    """C_i = 2 sqrt(det rho_i) for one qubit of a pure multipartite state."""
    _require_parties(rho_i, 1, "one_to_rest_concurrence")
    det = float(np.linalg.det(rho_i.matrix).real)
    return 2.0 * math.sqrt(max(det, 0.0))


def eof_from_concurrence(c: float) -> float:
    """E = h[(1 + sqrt(1 - C^2)) / 2], monotone in C, E(0)=0, E(1)=1."""
    c = float(c)
    if c < -1e-12 or c > 1.0 + 1e-12:
        raise ValidationError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def _h2_vec(lam):
    lam = np.minimum(np.maximum(lam, 0.0), 1.0)  # np.clip, minus its call overhead
    rest = 1.0 - lam
    # -lam*log2(lam) - rest*log2(rest) in place; the endpoints give
    # 0 * -inf = nan, which the mask replaces by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.log2(lam)
        np.negative(np.multiply(h, lam, out=h), out=h)
        tail = np.log2(rest)
        h -= np.multiply(tail, rest, out=tail)
    return np.where((lam > 0.0) & (lam < 1.0), h, 0.0)


def _outcome_entropy(m00, m01, m10, m11):
    """p S(m/p) of unnormalized 2x2 states m, given entry by entry."""
    # complex sums act on real and imaginary parts apart, so only the
    # products need complex arithmetic; the in-place steps are the IEEE
    # operations of lam = (p + sqrt(max(p*p - 4 det, 0))) / (2 p), in order
    p = m00.real + m11.real
    det = np.subtract((m00 * m11).real, (m01 * m10).real)
    lam = p * p
    lam -= np.multiply(det, 4.0, out=det)
    np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam)
    lam += p
    valid = p > 1e-12
    safe = np.where(valid, p, 1.0)
    lam /= np.multiply(safe, 2.0, out=safe)
    h = _h2_vec(lam)
    h *= p
    return np.where(valid, h, 0.0)


def _outcome_entropy_sum(conditionals):
    """Sum of p_i S(rho_i/p_i) over a batch of unnormalized 2x2 outcomes."""
    c = conditionals
    return _outcome_entropy(c[..., 0, 0], c[..., 0, 1], c[..., 1, 0],
                            c[..., 1, 1]).sum(axis=-1)


def _conditioner(matrix, slot):
    """f(vectors, out): unnormalized post-measurement states of the other qubit.

    f writes the states after outcome vectors (..., 2) and after their
    orthogonal complements on the outcome axis -3 of out, (..., 2, 2, 2).
    """
    tensor = matrix.reshape(2, 2, 2, 2)
    if slot == 1:
        spec, marginal = "...j,ijkl,...l->...ik", np.einsum("ijkj->ik", tensor)
    else:
        spec, marginal = "...i,ijkl,...k->...jl", np.einsum("ijil->jl", tensor)

    def conditioned(vectors, out):
        out[..., 0, :, :] = np.einsum(spec, vectors.conj(), tensor, vectors)
        np.subtract(marginal, out[..., 0, :, :], out=out[..., 1, :, :])
        return out

    return conditioned


def conditional_entropy_measured(
    rho_ab: DensityMatrix, basis: MeasurementBasis, measured_party=None
) -> float:
    """S(other | measurement on measured_party) = sum_i p_i S(rho_{other|i}).

    measured_party defaults to the second party of rho_ab. Outcomes with
    probability below 1e-12 contribute zero.
    """
    _require_parties(rho_ab, 2, "conditional_entropy_measured")
    if measured_party is None:
        measured_party = rho_ab.parties[1]
    slot = _party_slot(rho_ab, measured_party)
    cond = _conditioner(rho_ab.matrix, slot)(basis.vector(),
                                             np.empty((2, 2, 2), dtype=complex))
    return float(_outcome_entropy_sum(cond))


def _party_slot(rho, party):
    party = str(party)
    if party not in rho.parties:
        raise ValidationError(f"unknown party {party!r}; have {rho.parties!r}")
    return rho.parties.index(party)


def _normalize_angles(theta, phi):
    # (theta, phi) and (2*pi - theta, phi + pi) describe the same vector up
    # to phase; fold theta into [0, pi] first, then phi into [0, 2*pi).
    theta = theta % (2.0 * math.pi)
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi = phi + math.pi
    return theta, phi % (2.0 * math.pi)


def _bloch_grid(n_theta, n_phi):
    """(theta, phi, _bloch_vector) at each point of the theta-major angle grid."""
    thetas = np.linspace(0.0, math.pi, int(n_theta))
    phis = np.linspace(0.0, 2.0 * math.pi, int(n_phi), endpoint=False)
    th = np.repeat(thetas, phis.size)
    ph = np.tile(phis, thetas.size)
    vectors = np.empty((th.size, 2), dtype=complex)
    vectors[:, 0] = np.cos(th / 2.0)
    vectors[:, 1] = np.exp(1j * ph) * np.sin(th / 2.0)
    return th, ph, vectors


def _nelder_mead(objective, x0, refine_iters, tol):
    """scipy's Nelder-Mead from x0, with both convergence tolerances at tol."""
    from scipy.optimize import minimize  # deferred: keep closed-form paths scipy-free

    return minimize(objective, x0, method="Nelder-Mead",
                    options={"maxiter": int(refine_iters), "xatol": tol,
                             "fatol": tol})


def _min_conditional_entropy(rho, slot, grid, refine_iters, tol):
    """Grid scan plus simplex refinement; returns (value, basis)."""
    th, ph, vectors = _bloch_grid(*grid)
    conditioned = _conditioner(rho.matrix, slot)
    values = _outcome_entropy_sum(
        conditioned(vectors, np.empty((th.size, 2, 2, 2), dtype=complex)))
    best = float(values.min())
    # lexicographically smallest (theta, phi) among ties; the grid is theta-
    # major so the first tied flat index is that point
    tie_idx = int(np.nonzero(values <= best + TIE_TOL)[0][0])
    g_theta, g_phi = float(th[tie_idx]), float(ph[tie_idx])
    g_value = float(values[tie_idx])

    out = np.empty((2, 2, 2), dtype=complex)

    def objective(x):
        return float(_outcome_entropy_sum(conditioned(_bloch_vector(x[0], x[1]), out)))

    res = _nelder_mead(objective, [g_theta, g_phi], refine_iters, tol)
    if res.fun < g_value - TIE_TOL:
        theta, phi = _normalize_angles(float(res.x[0]), float(res.x[1]))
        return float(res.fun), MeasurementBasis(theta, phi)
    return g_value, MeasurementBasis(g_theta, g_phi)


def classical_correlation_directional(
    rho_ab: DensityMatrix,
    measured_party=None,
    grid=GRID_DEFAULT,
    refine_iters=REFINE_ITERS_DEFAULT,
    tol=REFINE_TOL_DEFAULT,
) -> DirectionalResult:
    """J_{other:measured} = S(rho_other) - min over bases of S(other|measured).

    Maximizes over rank-1 projective measurements on measured_party with a
    theta x phi grid followed by Nelder-Mead refinement. Ties within 1e-10
    resolve to the lexicographically smallest (theta, phi) grid point.
    """
    _require_parties(rho_ab, 2, "classical_correlation_directional")
    if measured_party is None:
        measured_party = rho_ab.parties[1]
    slot = _party_slot(rho_ab, measured_party)
    other = rho_ab.parties[1 - slot]
    s_other = von_neumann_entropy(partial_trace(rho_ab, [other]))
    cond, basis = _min_conditional_entropy(rho_ab, slot, grid, refine_iters, tol)
    value = s_other - cond
    if value < -1e-9:
        raise InternalInvariantError(
            f"classical correlation {value!r} below zero beyond tolerance"
        )
    return DirectionalResult(max(0.0, value), basis, "optimizer")


def discord_from(mi, classical) -> float:
    """D = I - J floored at zero; below -1e-6 the optimizer has failed."""
    value = mi - classical
    if value < -DISCORD_CLIP:
        raise InternalInvariantError(f"discord {value!r} below -1e-6")
    return max(0.0, value)


def discord_directional(
    rho_ab: DensityMatrix,
    measured_party=None,
    grid=GRID_DEFAULT,
    refine_iters=REFINE_ITERS_DEFAULT,
    tol=REFINE_TOL_DEFAULT,
) -> DirectionalResult:
    """delta_{other:measured} = I - J_{other:measured}, same optimal basis."""
    j = classical_correlation_directional(
        rho_ab, measured_party, grid=grid, refine_iters=refine_iters, tol=tol
    )
    return DirectionalResult(discord_from(mutual_information(rho_ab), j.value),
                             j.optimal_basis, "optimizer")


def symmetrized_classical(rho_ab: DensityMatrix, **kwargs) -> float:
    """max[J_{a:b}, J_{b:a}] over the two measurement directions."""
    _require_parties(rho_ab, 2, "symmetrized_classical")
    return max(
        classical_correlation_directional(rho_ab, p, **kwargs).value
        for p in rho_ab.parties
    )


def symmetrized_discord(rho_ab: DensityMatrix, **kwargs) -> float:
    """min[D_{a:b}, D_{b:a}] = I - max[J_{a:b}, J_{b:a}]."""
    _require_parties(rho_ab, 2, "symmetrized_discord")
    return discord_from(mutual_information(rho_ab),
                        symmetrized_classical(rho_ab, **kwargs))


def _unsupported(what):
    return UnsupportedInputError(
        f"{what} requires a pure three-qubit state (closed form is only valid there)"
    )


def to_pure(state, tol=1e-8) -> PureState:
    """Dominant eigenvector of an almost-pure density matrix as a PureState.

    A matrix counts as pure when its largest eigenvalue exceeds 1 - 1e-8.
    """
    if isinstance(state, PureState):
        return state
    if not isinstance(state, DensityMatrix):
        raise ValidationError("expected a PureState or DensityMatrix")
    vals, vecs = np.linalg.eigh(state.matrix)
    if vals[-1] <= 1.0 - tol:
        raise UnsupportedInputError(
            f"state is mixed (largest eigenvalue {vals[-1]!r})"
        )
    amp = vecs[:, -1]
    return PureState(amp / np.linalg.norm(amp), state.parties)


def _kw_parts(psi, i, j, what):
    if isinstance(psi, DensityMatrix):
        psi = to_pure(psi)
    if not isinstance(psi, PureState) or psi.n_qubits != 3:
        raise _unsupported(what)
    i, j = str(i), str(j)
    if i == j or i not in psi.labels or j not in psi.labels:
        raise ValidationError(f"parties {i!r}, {j!r} must be distinct labels of {psi.labels!r}")
    (k,) = [x for x in psi.labels if x not in (i, j)]
    rho = density_of(psi)
    ent = {x: von_neumann_entropy(partial_trace(rho, [x])) for x in psi.labels}
    e_ik = eof_from_concurrence(concurrence(partial_trace(rho, [i, k])))
    return ent, e_ik, k


def koashi_winter_classical(psi, i, j) -> float:
    """Closed form J_{i:j} = S(rho_i) - E(rho_{i,k}) for pure tripartite psi."""
    ent, e_ik, _ = _kw_parts(psi, i, j, "koashi_winter_classical")
    value = ent[str(i)] - e_ik
    if value < -1e-9:
        raise InternalInvariantError(f"closed-form classical correlation {value!r} < 0")
    return max(0.0, value)


def koashi_winter_discord(psi, i, j) -> float:
    """Closed form D_{i:j} = S(rho_j) - S(rho_k) + E(rho_{i,k})."""
    ent, e_ik, k = _kw_parts(psi, i, j, "koashi_winter_discord")
    value = ent[str(j)] - ent[k] + e_ik
    if value < -1e-9:
        raise InternalInvariantError(f"closed-form discord {value!r} < 0")
    return max(0.0, value)

