"""Two-qubit correlation measures.

Concurrence, entanglement of formation, mutual information, and the
directional/symmetrized classical correlation and discord, where the
measured party's projective basis comes from a descent over the Bloch
sphere started at the best point of a small grid. Closed forms for
reductions of pure three-qubit states are provided for cross-checking the
optimizer. No search imports scipy.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, UnsupportedInputError, ValidationError
from .qstate import (
    OPTIMIZER_SLACK,
    ROUNDING_SLACK,
    DensityMatrix,
    PureState,
    _as_density,
    _clamp_unit,
    _floor_zero,
    _real_arg,
    binary_entropy,
    density_of,
    partial_trace,
    von_neumann_entropy,
)

REFINE_ITERS_DEFAULT = 200
REFINE_TOL_DEFAULT = 1e-10
TIE_TOL = 1e-10
_DESCENT_OPTIONS = {"maxiter": 200, "tol": 1e-15}

_SY = np.array([[0.0, -1.0], [1.0, 0.0]])  # i*sigma_y, real
# sigma_y (x) sigma_y up to a global sign squared away; complex, as matmul casts it
_YY = np.kron(_SY, _SY).astype(complex)


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
        for name, hi in (("theta", math.pi), ("phi", 2 * math.pi)):
            object.__setattr__(self, name, _real_arg(getattr(self, name), name, 0.0, hi))

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
        if not self.value >= -ROUNDING_SLACK:
            raise InternalInvariantError(f"negative correlation {self.value!r}")


def mutual_information(rho_ab: DensityMatrix) -> float:
    """I = S(rho_a) + S(rho_b) - S(rho_ab), in bits."""
    rho_ab = _as_density(rho_ab, "mutual_information", 2)
    a, b = rho_ab.parties
    return (
        von_neumann_entropy(partial_trace(rho_ab, [a]))
        + von_neumann_entropy(partial_trace(rho_ab, [b]))
        - von_neumann_entropy(rho_ab)
    )


def _sqrt_psd(m, clip=1e-12):
    """The root of each positive semidefinite matrix in m (..., d, d)."""
    vals, vecs = np.linalg.eigh(m)
    vals[vals < clip] = 0.0
    np.sqrt(vals, out=vals)
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def concurrence(rho_ab: DensityMatrix) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The lambdas are the root eigenvalues of the Hermitian sandwich
    sqrt(rho) rho_tilde sqrt(rho); they are computed here as the singular
    values of sqrt(rho) @ sqrt(rho_tilde), which is the same quantity but
    keeps the near-zero lambdas at machine accuracy instead of the 1e-8
    floor that taking sqrt of eigensolver noise would impose.
    """
    rho_ab = _as_density(rho_ab, "concurrence", 2)
    return _wootters(*_root_lambdas(rho_ab.matrix).tolist())


def _root_lambdas(m):
    """concurrence's descending lambdas of each 4x4 matrix in m (..., 4, 4)."""
    m_tilde = _YY @ m.conj() @ _YY
    return np.linalg.svd(_sqrt_psd(m) @ _sqrt_psd(m_tilde), compute_uv=False)


def _wootters(l1, l2, l3, l4):
    return max(0.0, l1 - l2 - l3 - l4)


def one_to_rest_concurrence(rho_i: DensityMatrix) -> float:
    """C_i = 2 sqrt(det rho_i) for one qubit of a pure multipartite state."""
    rho_i = _as_density(rho_i, "one_to_rest_concurrence", 1)
    return _one_to_rest(float(np.linalg.det(rho_i.matrix).real))


def _one_to_rest(det):
    """C_i from the determinant det of rho_i."""
    return 2.0 * math.sqrt(max(det, 0.0))


def eof_from_concurrence(c: float) -> float:
    """E = h[(1 + sqrt(1 - C^2)) / 2], monotone in C, E(0)=0, E(1)=1."""
    c = _clamp_unit(c, "concurrence")
    return binary_entropy((1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def _outcome_entropies(w, weight):
    """p h((1 + |w_vec| / w_0) / 2) per outcome, p = weight * w_0, for planes w[0..3].

    w holds the Pauli components of the unnormalized conditional states;
    outcomes with p at or below 1e-12 give 0. The result is written over
    w[3] and the other planes serve as scratch. Every constant takes w's
    dtype, so a float32 stack is computed in float32 under numpy 1.x
    value-based casting and under NEP 50 alike.
    """
    t = w.dtype.type
    rest, lam, p, h = w  # rest holds w_0 until lam is divided by it
    lam *= lam
    p *= p
    lam += p
    np.multiply(h, h, out=p)
    lam += p
    np.sqrt(lam, out=lam)
    np.multiply(rest, t(weight), out=p)
    valid = p > t(1e-12)
    np.divide(lam, rest, out=lam, where=valid)  # elsewhere lam / 1.0
    lam += t(1.0)
    lam *= t(0.5)
    # lam >= 1/2 for every outcome, so only the upper end needs a clip. h(1)
    # comes out as 0 * log2(0) = nan, and so does a nan lam: both give 0
    np.minimum(lam, t(1.0), out=lam)
    valid &= lam < t(1.0)
    np.subtract(t(1.0), lam, out=rest)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(lam, out=h)
        np.negative(np.multiply(h, lam, out=h), out=h)
        np.log2(rest, out=lam)
        h -= np.multiply(lam, rest, out=lam)
    h *= p
    np.copyto(h, t(0.0), where=~valid)
    return h


def _outcome_entropy(w0, w1, w2, w3, weight):
    """One outcome of _outcome_entropies, in plain floats.

    The expressions of p * binary_entropy(min(lam, 1.0)), written out; a nan
    lam still raises through _clamp_unit.
    """
    p = weight * w0
    if not p > 1e-12:
        return 0.0
    lam = (1.0 + math.sqrt(w1 * w1 + w2 * w2 + w3 * w3) / w0) * 0.5
    if lam < 1.0:  # and lam >= 1/2, since w0 > 0
        return p * (-lam * math.log2(lam) - (1.0 - lam) * math.log2(1.0 - lam))
    _clamp_unit(min(lam, 1.0), "binary entropy argument")
    return 0.0


_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]])


def _pauli_tensor(matrix, slots):
    """R[mu, nu, ...] = Tr rho (sigma_mu (x) sigma_nu (x) ...), parties in slots order.

    R is real because rho is Hermitian. Outcome a = +-1 of measuring the first
    party along the Bloch vector u leaves the others with the tensor
    R[0] + a u.R[1:], up to normalization; both searches evaluate that.
    """
    n = len(slots)
    rows, cols, out = "abc"[:n], "ABC"[:n], "mnl"[:n]
    spec = (rows + cols + "".join(f",{o}{c}{r}" for r, c, o in zip(rows, cols, out))
            + "->" + out)
    t = matrix.reshape((2,) * (2 * n)).transpose(list(slots) + [n + s for s in slots])
    return np.ascontiguousarray(np.einsum(spec, t, *[_PAULI] * n).real)


def _bloch_xyz(theta, phi):
    s = math.sin(theta)
    return s * math.cos(phi), s * math.sin(phi), math.cos(theta)


def _outcome_slope(w0, w1, w2, w3):
    """(f, f0, c1, c2, n): f = _outcome_entropy(w0, w1, w2, w3, 0.5) and its derivatives.

    f = w0 phi(n / w0), n = |(w1, w2, w3)| and phi(x) = h((1 + x) / 2) / 2,
    has slopes f0 and c1 w_k and the Hessian c2 v v^T + c1 (diag(0, 1, 1, 1)
    - q q^T), q = (0, w1, w2, w3) / n, v = q - (n / w0, 0, 0, 0). A pure
    outcome takes those at the largest double below 1, where h' is finite.
    """
    p = 0.5 * w0
    if not p > 1e-12:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    n = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)
    lam = (1.0 + n / w0) * 0.5
    if lam < 1.0:  # and lam >= 1/2, since w0 > 0
        l1, l0 = math.log2(lam), math.log2(1.0 - lam)
        h = -lam * l1 - (1.0 - lam) * l0
    else:
        _clamp_unit(min(lam, 1.0), "binary entropy argument")
        lam, l1, l0, h = 1.0 - 2.0 ** -53, 0.0, -53.0, 0.0
    s = 0.25 * (l0 - l1)  # phi'
    c2 = -0.18033688011112042 / (lam * (1.0 - lam) * w0)  # phi'' / w0 = h'' / (8 w0)
    return p * h, 0.5 * h - s * n / w0, s / n if n > 0.0 else c2, c2, n


def _one_angle_objective(r):
    """fun(u): f at the Bloch vector u; fun(u, True): f, grad f and the 3 x 3 Hessian.

    f = S(other | measured along u) from the 4x4 tensor r, whose rows R_mu
    give outcome +-1 the state w = R_0 +- R^T u. f is concave over the unit
    ball: p S(sigma / p) = -D(sigma || Tr sigma I) is, by the joint
    convexity of relative entropy (Lindblad, CMP 39, 111, 1974). Both modes
    give f the same bits: fun(u) sums _outcome_entropy, the value that
    _outcome_slope also returns. The Hessian is written out entry by entry,
    each a left fold in the order of the formula, never sum().
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r.tolist()
    rt = ((b1, b2, b3), (c1, c2, c3), (d1, d2, d3))
    (gxx, gxy, gxz), (gyx, gyy, gyz), (gzx, gzy, gzz) = [
        [x * y + x2 * y2 + x3 * y3 for y, y2, y3 in rt] for x, x2, x3 in rt]

    def entropy(u, hessian=False):
        ux, uy, uz = u
        e0 = ux * b0 + uy * c0 + uz * d0
        e1 = ux * b1 + uy * c1 + uz * d1
        e2 = ux * b2 + uy * c2 + uz * d2
        e3 = ux * b3 + uy * c3 + uz * d3
        if not hessian:
            return (_outcome_entropy(a0 + e0, a1 + e1, a2 + e2, a3 + e3, 0.5)
                    + _outcome_entropy(a0 - e0, a1 - e1, a2 - e2, a3 - e3, 0.5))
        fp, p0, pk, p2, pn = _outcome_slope(a0 + e0, a1 + e1, a2 + e2, a3 + e3)
        fm, m0, mk, m2, mn = _outcome_slope(a0 - e0, a1 - e1, a2 - e2, a3 - e3)
        q0, q1 = p0 - m0, pk * (a1 + e1) - mk * (a1 - e1)
        q2, q3 = pk * (a2 + e2) - mk * (a2 - e2), pk * (a3 + e3) - mk * (a3 - e3)
        grad = (b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3,
                c0 * q0 + c1 * q1 + c2 * q2 + c3 * q3,
                d0 * q0 + d1 * q1 + d2 * q2 + d3 * q3)
        s = pk + mk
        hxx, hxy, hxz = s * gxx, s * gxy, s * gxz
        hyx, hyy, hyz = s * gyx, s * gyy, s * gyz
        hzx, hzy, hzz = s * gzx, s * gzy, s * gzz
        for k1, k2, n, w0, w1, w2, w3 in ((pk, p2, pn, a0 + e0, a1 + e1, a2 + e2, a3 + e3),
                                          (mk, m2, mn, a0 - e0, a1 - e1, a2 - e2, a3 - e3)):
            if n > 0.0:  # H += k2 v v^T - k1 q q^T, q and v of _outcome_slope taken through R
                w1, w2, w3 = w1 / n, w2 / n, w3 / n
                qx = b1 * w1 + b2 * w2 + b3 * w3
                qy = c1 * w1 + c2 * w2 + c3 * w3
                qz = d1 * w1 + d2 * w2 + d3 * w3
                t = n / w0
                vx, vy, vz = qx - t * b0, qy - t * c0, qz - t * d0
                kx, ky, kz, lx, ly, lz = k2 * vx, k2 * vy, k2 * vz, k1 * qx, k1 * qy, k1 * qz
                hxx, hxy, hxz = (hxx + kx * vx - lx * qx, hxy + kx * vy - lx * qy,
                                 hxz + kx * vz - lx * qz)
                hyx, hyy, hyz = (hyx + ky * vx - ly * qx, hyy + ky * vy - ly * qy,
                                 hyz + ky * vz - ly * qz)
                hzx, hzy, hzz = (hzx + kz * vx - lz * qx, hzy + kz * vy - lz * qy,
                                 hzz + kz * vz - lz * qz)
        return fp + fm, grad, ((hxx, hxy, hxz), (hyx, hyy, hyz), (hzx, hzy, hzz))

    return entropy


def conditional_entropy_measured(
    rho_ab: DensityMatrix, basis: MeasurementBasis, measured_party=None
) -> float:
    """S(other | measurement on measured_party) = sum_i p_i S(rho_{other|i}).

    measured_party defaults to the second party of rho_ab. Outcomes with
    probability below 1e-12 contribute zero.
    """
    rho_ab = _as_density(rho_ab, "conditional_entropy_measured", 2)
    if not isinstance(basis, MeasurementBasis):
        raise ValidationError(f"basis {basis!r} is not a MeasurementBasis")
    if measured_party is None:
        measured_party = rho_ab.parties[1]
    slot = _party_slot(rho_ab, measured_party)
    r = _pauli_tensor(rho_ab.matrix, [slot, 1 - slot])
    return _one_angle_objective(r)(_bloch_xyz(basis.theta, basis.phi))


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


@functools.lru_cache(maxsize=2)
def _hemisphere(n_theta, n_phi):
    """(theta, phi, outcome rows) of the upper half of a theta-major angle grid.

    The half is the theta rows 0..(n_theta + 1) // 2 - 1 of the n_theta x n_phi
    grid, with the theta = 0 row kept as one point. The outcome rows of point i
    are rows 2i and 2i+1: (1, u) and (1, -u) for its Bloch vector u. Row i
    mirrors row n_theta - 1 - i shifted by pi in phi, and u -> -u only swaps the
    outcomes, so for even grid sizes the half holds every measurement of the
    full grid once. The arrays are read-only.
    """
    keep = np.r_[0, n_phi:(n_theta + 1) // 2 * n_phi]
    th = np.repeat(np.linspace(0.0, math.pi, n_theta), n_phi)[keep]
    ph = np.tile(np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False), n_theta)[keep]
    u = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    rows = np.ones((th.size, 2, 4))
    rows[:, 0, 1:] = u
    rows[:, 1, 1:] = -u
    rows = rows.reshape(-1, 4)
    for a in (th, ph, rows):
        a.setflags(write=False)
    return th, ph, rows


# the one-party search's starts: the 25 points of the 7 x 8 hemisphere but its
# last four, which lie on the equator at phi >= pi, each the measurement of the
# point at phi - pi with its outcomes swapped
_STARTS = _hemisphere(7, 8)[2][0:42:2, 1:].tolist()

_Run = namedtuple("_Run", "x fun nit nfev success")


def _argsort(fsim):
    """np.argsort(fsim).tolist(), the reorder scipy's Nelder-Mead makes."""
    return np.array(fsim).argsort().tolist()


def _place_last(sim, fsim):
    """Move the last vertex into the sorted rest when that leaves fsim strictly increasing.

    Returns False, with nothing moved, otherwise: on a tie or NaN, or when
    the rest was not strictly increasing. A strictly increasing fsim is the
    one ascending order, which _argsort would also find.
    """
    f = fsim.pop()
    k = bisect.bisect_left(fsim, f)
    fsim.insert(k, f)
    if all(map(operator.lt, fsim, fsim[1:])):
        sim.insert(k, sim.pop())
        return True
    fsim.append(fsim.pop(k))
    return False


def _simplex(fun, x0, *, maxiter, xatol, fatol, **_scipy_fixed):
    """scipy 1.17's Nelder-Mead (non-adaptive, maxfev unset) on four plain floats, bit for bit.

    Vertices are tuples of floats, the centroid a left fold, never sum()
    (README "Measurement search"); _scipy_fixed takes minimize's keywords.
    """
    x0 = tuple(float(v) for v in x0)
    sim = [x0] + [x0[:k] + ((1 + 0.05) * v if v != 0 else 0.00025,) + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [fun(x) for x in sim]
    for _ in range(2):  # scipy sorts twice before the first step
        order = _argsort(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    nfev, nit = 5, 1
    while nit < maxiter:
        (b0, b1, b2, b3), (p0, p1, p2, p3), (q0, q1, q2, q3), (s0, s1, s2, s3), \
            (w0, w1, w2, w3) = sim
        fb, fp, fq, fs, fw = fsim
        if (abs(fb - fp) <= fatol and abs(fb - fq) <= fatol
                and abs(fb - fs) <= fatol and abs(fb - fw) <= fatol
                and abs(p0 - b0) <= xatol and abs(p1 - b1) <= xatol
                and abs(p2 - b2) <= xatol and abs(p3 - b3) <= xatol
                and abs(q0 - b0) <= xatol and abs(q1 - b1) <= xatol
                and abs(q2 - b2) <= xatol and abs(q3 - b3) <= xatol
                and abs(s0 - b0) <= xatol and abs(s1 - b1) <= xatol
                and abs(s2 - b2) <= xatol and abs(s3 - b3) <= xatol
                and abs(w0 - b0) <= xatol and abs(w1 - b1) <= xatol
                and abs(w2 - b2) <= xatol and abs(w3 - b3) <= xatol):
            break
        c0 = (((b0 + p0) + q0) + s0) / 4
        c1 = (((b1 + p1) + q1) + s1) / 4
        c2 = (((b2 + p2) + q2) + s2) / 4
        c3 = (((b3 + p3) + q3) + s3) / 4
        xr = (2 * c0 - w0, 2 * c1 - w1, 2 * c2 - w2, 2 * c3 - w3)
        fr = fun(xr)
        nfev += 1
        if fr < fb:
            xe = (3 * c0 - 2 * w0, 3 * c1 - 2 * w1, 3 * c2 - 2 * w2, 3 * c3 - 2 * w3)
            fe = fun(xe)
            nfev += 1
            sim[4], fsim[4] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs:
            sim[4], fsim[4] = xr, fr
        else:
            if fr < fw:  # outside contraction, kept unless worse than xr
                xc = (1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1,
                      1.5 * c2 - 0.5 * w2, 1.5 * c3 - 0.5 * w3)
                fc = fun(xc)
                keep = fc <= fr
            else:  # inside contraction, kept if better than the worst vertex
                xc = (0.5 * c0 + 0.5 * w0, 0.5 * c1 + 0.5 * w1,
                      0.5 * c2 + 0.5 * w2, 0.5 * c3 + 0.5 * w3)
                fc = fun(xc)
                keep = fc < fw
            nfev += 1
            if keep:
                sim[4], fsim[4] = xc, fc
            else:  # shrink toward the best vertex
                sim[1] = (b0 + 0.5 * (p0 - b0), b1 + 0.5 * (p1 - b1),
                          b2 + 0.5 * (p2 - b2), b3 + 0.5 * (p3 - b3))
                sim[2] = (b0 + 0.5 * (q0 - b0), b1 + 0.5 * (q1 - b1),
                          b2 + 0.5 * (q2 - b2), b3 + 0.5 * (q3 - b3))
                sim[3] = (b0 + 0.5 * (s0 - b0), b1 + 0.5 * (s1 - b1),
                          b2 + 0.5 * (s2 - b2), b3 + 0.5 * (s3 - b3))
                sim[4] = (b0 + 0.5 * (w0 - b0), b1 + 0.5 * (w1 - b1),
                          b2 + 0.5 * (w2 - b2), b3 + 0.5 * (w3 - b3))
                fsim[1] = fun(sim[1])
                fsim[2] = fun(sim[2])
                fsim[3] = fun(sim[3])
                fsim[4] = fun(sim[4])
                nfev += 4
        nit += 1
        if not _place_last(sim, fsim):
            order = _argsort(fsim)
            sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    return _Run(list(sim[0]), fsim[0], nit, nfev, nit < maxiter)


_REFINE_OPTIONS = {"maxiter": REFINE_ITERS_DEFAULT, "xatol": REFINE_TOL_DEFAULT,
                   "fatol": REFINE_TOL_DEFAULT}


def _minimize(method, fun, x0, options):
    """method(fun, x0, **options), through scipy.optimize.minimize only when already loaded.

    There a tracer that patched minimize counts searches; minimize only
    makes x0 a float64 array, so both routes give the same bits.
    """
    optimize = sys.modules.get("scipy.optimize")
    if optimize is None:
        return method(fun, x0, **options)
    return optimize.minimize(fun, x0, method=method, options=options)


def _nelder_mead(objective, x0):
    """_simplex from x0 with tolerances 1e-10, through _minimize."""
    return _minimize(_simplex, objective, x0, _REFINE_OPTIONS)


def _sphere_descent(fun, x0, *, maxiter, tol, **_scipy_fixed):
    """Minimize a concave f over unit vectors from x0; fun(u) is f, fun(u, True) f, grad f, H.

    Each move goes to the first of these that lowers f by more than tol: the
    Newton point on the sphere at full, 1/4 and 1/16 step, and s = -grad f /
    |grad f|, which never raises f, as concavity gives f(s) <= f(u) +
    grad f . (s - u) <= f(u), but crawls where f is flat. The Newton step,
    at most 1 long, solves |M| d = -P grad f for the Hessian on the sphere
    M = P H P - (grad f . u) P with absolute eigenvalues, so as to head
    downhill beside a saddle. success is False after maxiter moves.
    """
    u = tuple(float(v) for v in x0)
    f, g, hess = fun(u, True)
    nit = nfev = 0
    while nit < maxiter:
        norm = math.sqrt(_dot(g, g))
        if not 0.0 < norm < math.inf:
            break
        # Frisvad's orthonormal basis of the plane orthogonal to u, from u or -u
        px, py, pz = u if u[2] >= 0.0 else (-u[0], -u[1], -u[2])
        k = -px * py / (1.0 + pz)
        e1, e2 = (1.0 - px * px / (1.0 + pz), k, -px), (k, 1.0 - py * py / (1.0 + pz), -py)
        he1, he2 = ([_dot(row, e) for row in hess] for e in (e1, e2))
        gu, b1, b2 = _dot(g, u), _dot(g, e1), _dot(g, e2)
        m11, m12, m22 = _dot(e1, he1) - gu, _dot(e1, he2), _dot(e2, he2) - gu
        det = abs(m11 * m22 - m12 * m12)  # = det |M|, |M| = (M^2 + det) / sqrt(tr M^2 + 2 det)
        scale = math.sqrt(m11 * m11 + m22 * m22 + 2.0 * (m12 * m12 + det)) * det
        tries = []
        if 0.0 < scale < math.inf:
            d1 = (m12 * (m11 + m22) * b2 - (m12 * m12 + m22 * m22 + det) * b1) / scale
            d2 = (m12 * (m11 + m22) * b1 - (m11 * m11 + m12 * m12 + det) * b2) / scale
            step = [d1 * p + d2 * q for p, q in zip(e1, e2)]
            t = 1.0 / max(1.0, math.sqrt(_dot(step, step)))
            tries = [[v + c * t * d for v, d in zip(u, step)] for c in (1.0, 0.25, 0.0625)]
        for x in tries + [[-c / norm for c in g]]:
            n = math.sqrt(_dot(x, x))
            x = (x[0] / n, x[1] / n, x[2] / n)
            nfev += 1
            if fun(x) < f - tol:  # value alone; the Hessian only where the run moves
                u, (f, g, hess), nit, nfev = x, fun(x, True), nit + 1, nfev + 1
                break
        else:
            break
    return _Run(list(u), f, nit, nfev + 1, nit < maxiter)


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _search(objective, keep, values, th, ph):
    """Two-party grid minimum refined by Nelder-Mead; returns (value, angles).

    values[i, j] holds objective at grid points keep[i] (ascending) and j.
    Nelder-Mead starts from the first point within TIE_TOL of the minimum
    and replaces it only when lower by more than TIE_TOL.
    """
    i, j = divmod(int(np.flatnonzero(values <= values.min() + TIE_TOL)[0]), values.shape[1])
    x0 = [float(th[keep[i]]), float(ph[keep[i]]), float(th[j]), float(ph[j])]
    g_value = float(values[i, j])
    res = _nelder_mead(objective, x0)
    if res.fun < g_value - TIE_TOL:
        return float(res.fun), [float(x) for x in res.x]
    return g_value, x0


def _min_conditional_entropy(rho, slot):
    """Least S(other | measured) over projective measurements of slot; returns (value, basis).

    _sphere_descent, tol 1e-15, from the first of the 21 distinct _STARTS
    within TIE_TOL of their minimum; the value is f at the basis. The starts
    and the value read f alone, the descent's derivatives only where it moves.
    """
    fun = _one_angle_objective(_pauli_tensor(rho.matrix, [slot, 1 - slot]))
    values = [fun(u) for u in _STARTS]
    low = min(values) + TIE_TOL
    u0 = next(u for u, value in zip(_STARTS, values) if value <= low)
    x, y, z = _minimize(_sphere_descent, fun, u0, _DESCENT_OPTIONS).x
    if z < 0.0:  # -u is the same measurement, its outcomes swapped
        x, y, z = -x, -y, -z
    basis = MeasurementBasis(*_normalize_angles(math.atan2(math.hypot(x, y), z),
                                                math.atan2(y, x)))
    return fun(_bloch_xyz(basis.theta, basis.phi)), basis


def classical_correlation_directional(rho_ab: DensityMatrix,
                                      measured_party=None) -> DirectionalResult:
    """J_{other:measured} = S(rho_other) - min over bases of S(other|measured).

    Maximizes over rank-1 projective measurements on measured_party by a
    descent over the Bloch sphere from the best of 21 distinct grid
    measurements, the first among ties within 1e-10, where a flat landscape
    such as Werner's stays.
    """
    rho_ab = _as_density(rho_ab, "classical_correlation_directional", 2)
    if measured_party is None:
        measured_party = rho_ab.parties[1]
    slot = _party_slot(rho_ab, measured_party)
    other = rho_ab.parties[1 - slot]
    s_other = von_neumann_entropy(partial_trace(rho_ab, [other]))
    cond, basis = _min_conditional_entropy(rho_ab, slot)
    return DirectionalResult(_floor_zero(s_other - cond, "classical correlation"),
                             basis, "optimizer")


def discord_from(mi, classical) -> float:
    """D = I - J floored at zero; below -1e-6 the optimizer has failed."""
    return _floor_zero(mi - classical, "discord", OPTIMIZER_SLACK)


def discord_directional(rho_ab: DensityMatrix,
                        measured_party=None) -> DirectionalResult:
    """delta_{other:measured} = I - J_{other:measured}, same optimal basis."""
    j = classical_correlation_directional(rho_ab, measured_party)
    return DirectionalResult(discord_from(mutual_information(rho_ab), j.value),
                             j.optimal_basis, "optimizer")


def symmetrized_classical(rho_ab: DensityMatrix) -> float:
    """max[J_{a:b}, J_{b:a}] over the two measurement directions."""
    rho_ab = _as_density(rho_ab, "symmetrized_classical", 2)
    return max(classical_correlation_directional(rho_ab, p).value
               for p in rho_ab.parties)


def symmetrized_discord(rho_ab: DensityMatrix) -> float:
    """min[D_{a:b}, D_{b:a}] = I - max[J_{a:b}, J_{b:a}]."""
    rho_ab = _as_density(rho_ab, "symmetrized_discord", 2)
    return discord_from(mutual_information(rho_ab), symmetrized_classical(rho_ab))


def to_pure(state) -> PureState:
    """Dominant eigenvector of an almost-pure density matrix as a PureState.

    A matrix counts as pure when its largest eigenvalue exceeds 1 - 1e-8.
    """
    if isinstance(state, PureState):
        return state
    vals, vecs = np.linalg.eigh(_as_density(state, "to_pure").matrix)
    if vals[-1] <= 1.0 - 1e-8:
        raise UnsupportedInputError(
            f"state is mixed (largest eigenvalue {float(vals[-1])!r})"
        )
    amp = vecs[:, -1]
    return PureState(amp / np.linalg.norm(amp), state.parties)


def _pure_state(state, what, qubits=(3, 3)):
    """Pure state of qubits[0]..qubits[1] qubits as a PureState, else UnsupportedInputError."""
    psi = state if isinstance(state, PureState) else to_pure(_as_density(state, what))
    if not qubits[0] <= psi.n_qubits <= qubits[1]:
        raise UnsupportedInputError(f"{what} has no closed form for {psi.n_qubits} qubits")
    return psi


def _kw_parts(psi, i, j, what):
    """Unfloored (J_{i:j}, D_{i:j}) of psi, from its own entropies and E(rho_ik)."""
    psi = _pure_state(psi, what)
    i, j = str(i), str(j)
    if i == j or i not in psi.labels or j not in psi.labels:
        raise ValidationError(f"parties {i!r}, {j!r} must be distinct labels of {psi.labels!r}")
    (k,) = [x for x in psi.labels if x not in (i, j)]
    rho = density_of(psi)
    ent = {x: von_neumann_entropy(partial_trace(rho, [x])) for x in psi.labels}
    e_ik = eof_from_concurrence(concurrence(partial_trace(rho, [i, k])))
    return _kw_forms(ent, e_ik, i, j, k)


def _kw_forms(s, e_ik, i, j, k):
    """Koashi-Winter J_{i:j} = S_i - E_ik and D_{i:j} = S_j - S_k + E_ik, unfloored.

    s maps each party of a pure three-qubit state to its one-qubit entropy,
    e_ik is the entanglement of formation of parties i and k, and j is measured.
    """
    return s[i] - e_ik, s[j] - s[k] + e_ik


def koashi_winter_classical(psi, i, j) -> float:
    """Closed form J_{i:j} = S(rho_i) - E(rho_{i,k}) for pure tripartite psi."""
    return _floor_zero(_kw_parts(psi, i, j, "koashi_winter_classical")[0],
                       "closed-form classical correlation")


def koashi_winter_discord(psi, i, j) -> float:
    """Closed form D_{i:j} = S(rho_j) - S(rho_k) + E(rho_{i,k})."""
    return _floor_zero(_kw_parts(psi, i, j, "koashi_winter_discord")[1],
                       "closed-form discord")
