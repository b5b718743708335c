"""Labeled multi-qubit states: composition, reduction, spectra, entropies,
distances, seeded Haar-random sampling, and the [re, im] JSON file formats
of states and two-qubit matrices.

Basis convention: party 0 is the most significant bit of the computational
basis index, so |100> on three qubits is index 4. All entropies are in bits
(logarithms base 2).
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ParseError, ValidationError

NORM_TOL = 1e-10
HERM_TOL = 1e-10
EIG_CLIP = 1e-10
FILE_NORM_TOL = 1e-8
ROUNDING_SLACK = 1e-9  # how far a closed form or entropy sum may round below 0
OPTIMIZER_SLACK = 1e-6  # the same for measurement-search results


def _floor_zero(x, what, slack=ROUNDING_SLACK):
    """max(0.0, x) of a nonnegative quantity; nan or x below -slack raises."""
    x = float(x)
    if not x >= -slack:  # nan fails too
        bound = f"{slack:.0e}".replace("e-0", "e-")
        raise InternalInvariantError(f"{what} {x!r} below -{bound}")
    return max(0.0, x)


def _clamp_unit(x, what):
    """x clamped to [0, 1]; nan or a value beyond 1e-12 outside raises."""
    x = float(x)
    if not -1e-12 <= x <= 1.0 + 1e-12:  # nan fails too
        raise ValidationError(f"{what} {x!r} outside [0, 1]")
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x  # min(max(x, 0), 1), -0.0 kept


def _nonnegative_seed(seed):
    """seed itself, after a ValidationError if it is negative."""
    if int(seed) < 0:
        raise ValidationError(f"seed {seed!r} must be nonnegative")
    return seed


def _party_labels(labels, n):
    """n distinct party labels as strings; None gives a, b, c, ..."""
    if labels is None:
        if n > 26:
            raise ValidationError(f"no default labels for {n} parties")
        return tuple(string.ascii_lowercase[:n])
    if isinstance(labels, (str, dict)):  # iterable, but not a list of names
        raise ValidationError(f"party labels {labels!r} are not a list")
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError:  # not iterable
        raise ValidationError(f"party labels {labels!r} are not a list") from None
    if len(labels) != n or len(set(labels)) != n:
        raise ValidationError(f"need {n} distinct party labels, got {labels!r}")
    return labels


class PureState:
    """Normalized amplitude vector of an n-qubit register with party labels."""

    __slots__ = ("amplitudes", "labels")

    def __init__(self, amplitudes, labels=None):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        n = int(amp.size).bit_length() - 1
        if amp.size != 2**n or amp.size < 2:
            raise ValidationError(
                f"amplitude vector length {amp.size} is not a power of two"
            )
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_TOL:  # nan fails too
            raise ValidationError(f"state vector norm {norm!r} deviates from 1")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "labels", _party_labels(labels, n))

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def n_qubits(self):
        return len(self.labels)

    def __repr__(self):
        return f"PureState(n={self.n_qubits}, labels={self.labels})"


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator on labeled parties."""

    __slots__ = ("matrix", "parties")

    def __init__(self, matrix, parties=None):
        m = np.asarray(matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        n = int(m.shape[0]).bit_length() - 1
        if m.shape[0] != 2**n or n < 1:
            raise ValidationError(
                f"dimension {m.shape[0]} is not a power of two qubit dimension"
            )
        herm_dev = float(np.abs(m - m.conj().T).max())
        if not herm_dev <= HERM_TOL:  # nan fails each test, before eigvalsh
            raise ValidationError(f"hermiticity violated by {herm_dev:.3e}")
        tr_dev = abs(complex(np.trace(m)) - 1.0)
        if not tr_dev <= HERM_TOL:
            raise ValidationError(f"unit trace violated by {tr_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -EIG_CLIP:
            raise ValidationError(f"positivity violated: eigenvalue {min_eig:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "parties", _party_labels(parties, n))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_parties(self):
        return len(self.parties)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(parties={self.parties})"


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending; clipped marks negative-noise rounding."""

    eigenvalues: np.ndarray
    clipped: bool


def _as_array(rho):
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, complex)


def density_of(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| carrying psi's party labels."""
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.labels)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the `keep` parties, in their original order.

    keep must be a nonempty proper subset of rho.parties. Trace and
    hermiticity are preserved by construction.
    """
    keep = [str(x) for x in (keep if not isinstance(keep, str) else [keep])]
    unknown = [x for x in keep if x not in rho.parties]
    if unknown:
        raise ValidationError(f"unknown parties {unknown!r}; have {rho.parties!r}")
    if len(set(keep)) != len(keep):
        raise ValidationError(f"duplicate parties in keep: {keep!r}")
    if not keep or len(keep) == rho.n_parties:
        raise ValidationError("keep must be a nonempty proper subset of the parties")
    keep_idx = sorted(rho.parties.index(x) for x in keep)
    reduced = _partial_trace_array(rho.matrix, rho.n_parties, keep_idx)
    return DensityMatrix(reduced, [rho.parties[i] for i in keep_idx])


def _partial_trace_array(m, n, keep_idx):
    tensor = m.reshape((2,) * (2 * n))
    dims = n
    for idx in sorted(set(range(n)) - set(keep_idx), reverse=True):
        tensor = np.trace(tensor, axis1=idx, axis2=idx + dims)
        dims -= 1
    d = 2 ** len(keep_idx)
    return tensor.reshape(d, d)


def permute_parties(rho: DensityMatrix, new_order) -> DensityMatrix:
    """Relabel-preserving reordering of the tensor factors."""
    new_order = tuple(str(x) for x in new_order)
    if sorted(new_order) != sorted(rho.parties):
        raise ValidationError(
            f"new order {new_order!r} is not a permutation of {rho.parties!r}"
        )
    n = rho.n_parties
    perm = [rho.parties.index(x) for x in new_order]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return DensityMatrix(tensor.reshape(2**n, 2**n), new_order)


def eig_hermitian(m) -> Spectrum:
    """Descending real spectrum of a Hermitian matrix.

    Eigenvalues in [-1e-10, 0), which are numerical noise for positive
    semidefinite inputs, are clipped to zero and the clipped flag is set.
    More negative values pass through unchanged (the input may be a general
    Hermitian operator). Raw arrays must be Hermitian within HERM_TOL; a
    DensityMatrix passed that check when it was built.
    """
    if isinstance(m, DensityMatrix):
        arr = m.matrix  # checked against HERM_TOL when built, then frozen
    else:
        arr = np.asarray(m, complex)
        herm_dev = float(np.abs(arr - arr.conj().T).max())
        if not herm_dev <= HERM_TOL:  # nan fails too
            raise ValidationError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
    vals = np.linalg.eigvalsh(arr)[::-1].copy()
    noise = (vals < 0.0) & (vals >= -EIG_CLIP)
    clipped = bool(noise.any())
    vals[noise] = 0.0
    vals.flags.writeable = False
    return Spectrum(eigenvalues=vals, clipped=clipped)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i, in bits, with 0 log 0 = 0."""
    vals = eig_hermitian(rho).eigenvalues
    pos = vals[vals > 0.0]
    if pos.size == 0:
        return 0.0
    # + 0.0 normalizes -0.0 from a pure state's single unit eigenvalue
    return float(-(pos * np.log2(pos)).sum()) + 0.0


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x); symmetric about 1/2."""
    x = _clamp_unit(x, "binary entropy argument")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr[rho (log2 rho - log2 sigma)] in bits.

    Returns math.inf when the support of rho leaks outside the support of
    sigma (a sigma eigenvalue below 1e-12 carrying rho weight above 1e-9).
    """
    if isinstance(rho, DensityMatrix) and isinstance(sigma, DensityMatrix):
        if rho.parties != sigma.parties:
            raise ValidationError(
                f"party mismatch: {rho.parties!r} vs {sigma.parties!r}"
            )
    r = _as_array(rho)
    s = _as_array(sigma)
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: {r.shape} vs {s.shape}")
    s_vals, s_vecs = np.linalg.eigh(s)
    # rho weight in each sigma eigendirection
    weights = np.einsum("ij,jk,ki->i", s_vecs.conj().T, r, s_vecs).real
    small = s_vals < 1e-12
    if bool((weights[small] > 1e-9).any()):
        return math.inf
    keep = ~small
    cross = float((weights[keep] * np.log2(s_vals[keep])).sum())
    value = -von_neumann_entropy(r) - cross
    return max(0.0, value)


def haar_random_pure(n_qubits: int, seed: int) -> PureState:
    """Haar-distributed pure state from seeded standard complex Gaussians."""
    if not 1 <= int(n_qubits) <= 6:
        raise ValidationError(f"n_qubits {n_qubits!r} outside supported range 1..6")
    rng = np.random.default_rng(_nonnegative_seed(seed))
    d = 2 ** int(n_qubits)
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(amp / np.linalg.norm(amp))


def random_mixed_state(n_qubits: int, seed: int) -> DensityMatrix:
    """Convex mixture of two to four Haar-random pure states."""
    rng = np.random.default_rng(_nonnegative_seed(seed))
    k = int(rng.integers(2, 5))
    d = 2 ** int(n_qubits)
    weights = rng.random(k)
    weights /= weights.sum()
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp /= np.linalg.norm(amp)
        m += w * np.outer(amp, amp.conj())
    return DensityMatrix(m)


def _decode_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", offset=exc.pos) from exc


def _float_array(raw, what):
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"non-numeric {what} entry: {exc}") from exc
    # json reads NaN and Infinity, and numpy turns null into nan
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite {what} entry")
    return arr


def _to_pairs(values):
    """Nested [re, im] pairs of a complex array, one pair per entry."""
    return np.stack((values.real, values.imag), axis=-1).tolist()


def parse_state_json(text: str) -> PureState:
    """Parse the state file format.

    {"n": 3, "labels": ["a","b","c"], "amplitudes": [[re, im], ...]}

    Rejects wrong-length amplitude arrays and norm deviations above 1e-8;
    accepted vectors are renormalized to machine precision.
    """
    data = _decode_json(text)
    if not isinstance(data, dict):
        raise ValidationError("state file must be a JSON object")
    missing = [k for k in ("n", "labels", "amplitudes") if k not in data]
    if missing:
        raise ValidationError(f"state file missing keys: {missing}")
    n = data["n"]
    if type(n) is not int or not 1 <= n <= 6:  # bool is an int
        raise ValidationError(f"field n must be an integer in 1..6, got {n!r}")
    raw = data["amplitudes"]
    if not isinstance(raw, list) or len(raw) != 2**n:
        raise ValidationError(
            f"amplitudes must be a list of {2**n} [re, im] pairs"
        )
    pairs = _float_array(raw, "amplitude")
    if pairs.shape != (2**n, 2):
        raise ValidationError(f"amplitudes must have shape ({2**n}, 2)")
    amp = pairs[:, 0] + 1j * pairs[:, 1]
    norm = float(np.linalg.norm(amp))
    if abs(norm - 1.0) > FILE_NORM_TOL:
        raise ValidationError(f"state file norm {norm!r} deviates from 1 beyond 1e-8")
    return PureState(amp / norm, data["labels"])


def load_state(path) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_json(fh.read())


def state_to_json(psi: PureState) -> str:
    data = {
        "n": psi.n_qubits,
        "labels": list(psi.labels),
        "amplitudes": _to_pairs(psi.amplitudes),
    }
    return json.dumps(data)


def parse_matrix_json(text: str) -> DensityMatrix:
    """Parse the standalone two-qubit matrix format.

    {"parties": ["a", "b"], "matrix": [[[re, im], ...4 entries] ...4 rows]}

    Validation failures name the violated invariant (hermiticity, unit
    trace, positivity).
    """
    data = _decode_json(text)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValidationError("matrix file must be a JSON object with a matrix field")
    arr = _float_array(data["matrix"], "matrix")
    if arr.shape != (4, 4, 2):
        raise ValidationError(
            f"matrix must be 4x4 entries of [re, im] pairs, got shape {arr.shape}"
        )
    parties = data.get("parties", ["a", "b"])
    return DensityMatrix(arr[..., 0] + 1j * arr[..., 1], parties)


def load_matrix(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_json(fh.read())


def matrix_to_json(rho: DensityMatrix) -> str:
    data = {"parties": list(rho.parties), "matrix": _to_pairs(rho.matrix)}
    return json.dumps(data)
