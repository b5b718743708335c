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


def _real_arg(value, what, lo, hi=math.inf):
    """float(value) of a real scalar within 1e-12 of [lo, hi]; a bool, string,
    None, complex number, array (0-d too) or nan raises, naming what."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise ValidationError(f"{what} {value!r} must be a real number")
    x = float(value)
    if not lo - 1e-12 <= x <= hi + 1e-12:  # nan fails too
        raise ValidationError(f"{what} {x!r} outside [{lo:g}, {hi:g}]")
    return x


def _clamp_unit(x, what):
    """_real_arg(x, what, 0, 1) clamped to [0, 1]."""
    x = _real_arg(x, what, 0.0, 1.0)
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x  # min(max(x, 0), 1), -0.0 kept


def _int_arg(value, what, lo, hi=math.inf):
    """int(value) in lo..hi. Integral numbers pass, 3.0 and np.int64(3) too; a bool,
    fraction, nan, inf, None, string or value out of range raises, naming what."""
    try:
        n = int(value)  # None, "x", nan and inf raise
    except (TypeError, ValueError, OverflowError):
        n = None
    if (n is None or n != value or isinstance(value, (bool, np.bool_))  # int("3") != "3"
            or not lo <= n <= hi):
        bound = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ValidationError(f"{what} {value!r} must be an integer {bound}")
    return n


def _label_list(labels):
    """Party labels as a tuple of strings, in the order given."""
    # iterable, but not an ordered list of names: str and bytes split into
    # characters or byte values, dict gives its keys, a set its hash order
    if isinstance(labels, (str, bytes, bytearray, dict, set, frozenset)):
        raise ValidationError(f"party labels {labels!r} are not a list")
    try:
        return tuple(map(str, labels))
    except TypeError:  # not iterable
        raise ValidationError(f"party labels {labels!r} are not a list") from None


def _party_labels(labels, n):
    """n distinct party labels as strings; None gives a, b, c, ..."""
    if labels is None:
        if n > 26:
            raise ValidationError(f"no default labels for {n} parties")
        return tuple(string.ascii_lowercase[:n])
    labels = _label_list(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise ValidationError(f"need {n} distinct party labels, got {labels!r}")
    return labels


def _complex_array(x, what):
    """x as a complex array; an entry that is not an int, float or complex number,
    such as a bool or a numeric string, raises, and so do ragged nested lists."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iufc"):
        x = np.asarray(x, dtype=object)
        for v in x.flat:
            if isinstance(v, (list, tuple)) or getattr(v, "ndim", 0):  # ragged below here
                raise ValidationError(f"ragged {what} array: shape {x.shape} "
                                      "plus an inhomogeneous part")
            if isinstance(v, bool) or not isinstance(v, (int, float, complex, np.number)):
                raise ValidationError(f"non-numeric {what} entry {v!r}")
    try:
        return np.asarray(x, dtype=complex)
    except OverflowError as exc:
        raise ValidationError(f"{what} entry out of range: {exc}") from exc


class PureState:
    """Normalized amplitude vector of an n-qubit register with party labels."""

    __slots__ = ("amplitudes", "labels")

    def __init__(self, amplitudes, labels=None):
        amp = _complex_array(amplitudes, "amplitude").reshape(-1).copy()
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
        m = _complex_array(matrix, "matrix").copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        n = int(m.shape[0]).bit_length() - 1
        if m.shape[0] != 2**n or n < 1:
            raise ValidationError(
                f"dimension {m.shape[0]} is not a power of two qubit dimension"
            )
        _checked_spectrum(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "parties", _party_labels(parties, n))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_parties(self):
        return len(self.parties)

    def __repr__(self):
        return f"DensityMatrix(parties={self.parties})"


# as a decorator, errstate skips building a context object on every call
@np.errstate(invalid="ignore", over="ignore")
def _checked_spectrum(m):
    """Ascending eigenvalues of the matrices m (..., d, d), each a density matrix.

    The tests of DensityMatrix, on every matrix of the stack at once; a
    stack fails on its worst matrix.
    """
    # the reductions .max() and np.trace call, without their wrappers. A
    # nan or inf entry makes herm_dev nan or inf, so entries are tested
    # for finiteness only once that test fails; finite entries whose
    # difference or diagonal sum overflows give inf. Neither warns here
    herm_dev = float(np.maximum.reduce(np.abs(m - m.conj().swapaxes(-1, -2)), None))
    tr_dev = abs(np.add.reduce(m.diagonal(0, -2, -1), -1) - 1.0)
    tr_dev = tr_dev if m.ndim == 2 else tr_dev.max()
    if not herm_dev <= HERM_TOL:  # nan fails each test, before eigvalsh
        if not np.isfinite(m).all():
            raise ValidationError("non-finite entry")
        raise ValidationError(f"hermiticity violated by {herm_dev:.3e}")
    if not tr_dev <= HERM_TOL:
        raise ValidationError(f"unit trace violated by {tr_dev:.3e}")
    vals = np.linalg.eigvalsh(m)
    min_eig = vals[0] if m.ndim == 2 else vals[..., 0].min()
    if not min_eig >= -EIG_CLIP:
        raise ValidationError(f"positivity violated: eigenvalue {min_eig:.3e}")
    return vals


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending; clipped marks negative-noise rounding."""

    eigenvalues: np.ndarray
    clipped: bool


def _as_density(state, what, n=None):
    """state as a DensityMatrix of n parties (any number when None); a
    PureState becomes density_of(state), and anything else raises."""
    if isinstance(state, PureState):
        state = density_of(state)
    elif not isinstance(state, DensityMatrix):
        raise ValidationError(f"{what} expects a PureState or DensityMatrix")
    if n is not None and state.n_parties != n:
        raise ValidationError(f"{what} expects {n} parties, got {state.n_parties}")
    return state


def density_of(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi| carrying psi's party labels."""
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    return DensityMatrix(_outer(psi.amplitudes), psi.labels)


def _outer(amp):
    """|psi><psi| of each amplitude vector in amp (..., d): np.outer's product."""
    return amp[..., None] * amp[..., None, :].conj()


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the `keep` parties, in their original order.

    keep must be a nonempty proper subset of rho.parties. Trace and
    hermiticity are preserved by construction.
    """
    rho = _as_density(rho, "partial_trace")
    parties = rho.parties
    keep = [str(keep)] if isinstance(keep, str) else list(map(str, keep))
    unknown = [x for x in keep if x not in parties]
    if unknown:
        raise ValidationError(f"unknown parties {unknown!r}; have {parties!r}")
    if len(set(keep)) != len(keep):
        raise ValidationError(f"duplicate parties in keep: {keep!r}")
    n = len(parties)
    if not keep or len(keep) == n:
        raise ValidationError("keep must be a nonempty proper subset of the parties")
    keep_idx = sorted(map(parties.index, keep))
    return DensityMatrix(_trace_out(rho.matrix, keep_idx), [parties[i] for i in keep_idx])


def _trace_out(m, keep_idx):
    """The reduction of each matrix in m (..., 2^n, 2^n) to the sorted qubits keep_idx."""
    lead = m.shape[:-2]
    n = m.shape[-1].bit_length() - 1
    tensor = m.reshape(lead + (2,) * (2 * n))
    row = len(lead)  # the axis of the first row index
    col = row + n  # and of the first column index
    for idx in range(n - 1, -1, -1):  # the traced qubits, last first
        if idx not in keep_idx:
            # what np.trace(tensor, axis1=..., axis2=...) calls
            tensor = tensor.trace(0, row + idx, col + idx)
            col -= 1
    d = 1 << len(keep_idx)
    return tensor.reshape(lead + (d, d))


def permute_parties(rho: DensityMatrix, new_order) -> DensityMatrix:
    """Relabel-preserving reordering of the tensor factors."""
    rho = _as_density(rho, "permute_parties")
    new_order = _label_list(new_order)
    if sorted(new_order) != sorted(rho.parties):
        raise ValidationError(
            f"new order {new_order!r} is not a permutation of {rho.parties!r}"
        )
    n = len(new_order)
    perm = list(map(rho.parties.index, new_order))
    tensor = rho.matrix.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return DensityMatrix(tensor.reshape(1 << n, 1 << n), new_order)


def eig_hermitian(m) -> Spectrum:
    """Descending real spectrum of a Hermitian matrix.

    Eigenvalues in [-1e-10, 0), which are numerical noise for positive
    semidefinite inputs, are clipped to zero and the clipped flag is set.
    More negative values pass through unchanged (the input may be a general
    Hermitian operator). Raw arrays must be square and Hermitian within
    HERM_TOL; a DensityMatrix passed those checks when it was built.
    """
    if isinstance(m, DensityMatrix):
        arr = m.matrix  # checked against HERM_TOL when built, then frozen
    else:
        arr = _complex_array(m, "matrix")
        if arr.ndim != 2 or not arr.shape[0] == arr.shape[1] > 0:
            raise ValidationError(f"matrix must be square, got shape {arr.shape}")
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
    """S(rho) = -sum_i lambda_i log2 lambda_i, in bits, with 0 log 0 = 0; a
    PureState is read as its density matrix and a raw matrix as a DensityMatrix."""
    if isinstance(rho, PureState):
        rho = density_of(rho)
    elif not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return _entropy(np.linalg.eigvalsh(rho.matrix)[::-1])


def _entropy(vals):
    """-sum lambda log2 lambda over the positive entries of one descending spectrum.

    Stacks are summed one spectrum at a time: a masked sum over a stack's
    rows adds in another order and can change the last bit.
    """
    pos = vals[vals > 0.0]
    if pos.size == 0:
        return 0.0
    # + 0.0 normalizes -0.0 from a pure state's single unit eigenvalue; the
    # reduction .sum() calls, without its wrapper
    return float(-np.add.reduce(pos * np.log2(pos))) + 0.0


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
    A PureState is read as its density matrix, and a raw matrix as a
    DensityMatrix, with the other's parties if it has any.
    """
    rho, sigma = (density_of(x) if isinstance(x, PureState) else x for x in (rho, sigma))
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, sigma.parties if isinstance(sigma, DensityMatrix) else None)
    if not isinstance(sigma, DensityMatrix):
        sigma = DensityMatrix(sigma, rho.parties)
    if rho.parties != sigma.parties:
        raise ValidationError(f"party mismatch: {rho.parties!r} vs {sigma.parties!r}")
    s_vals, s_vecs = np.linalg.eigh(sigma.matrix)
    # rho weight in each sigma eigendirection
    weights = np.einsum("ij,jk,ki->i", s_vecs.conj().T, rho.matrix, s_vecs).real
    small = s_vals < 1e-12
    if bool((weights[small] > 1e-9).any()):
        return math.inf
    keep = ~small
    cross = float((weights[keep] * np.log2(s_vals[keep])).sum())
    value = -von_neumann_entropy(rho) - cross
    return max(0.0, value)


def haar_random_pure(n_qubits: int, seed: int) -> PureState:
    """Haar-distributed pure state from seeded standard complex Gaussians."""
    d = 2 ** _int_arg(n_qubits, "n_qubits", 1, 6)
    rng = np.random.default_rng(_int_arg(seed, "seed", 0))
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(amp / np.linalg.norm(amp))


def random_mixed_state(n_qubits: int, seed: int) -> DensityMatrix:
    """Convex mixture of two to four Haar-random pure states."""
    d = 2 ** _int_arg(n_qubits, "n_qubits", 1, 6)
    rng = np.random.default_rng(_int_arg(seed, "seed", 0))
    k = int(rng.integers(2, 5))
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


def _pair_array(raw, what):
    """_complex_array of a file's [re, im] pairs; json's NaN and Infinity raise."""
    pairs = _complex_array(raw, what)
    if not np.isfinite(pairs).all():
        raise ValidationError(f"non-finite {what} entry")
    return pairs


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
    pairs = _pair_array(raw, "amplitude")
    if pairs.shape != (2**n, 2):
        raise ValidationError(f"amplitudes must have shape ({2**n}, 2)")
    amp = pairs[:, 0] + 1j * pairs[:, 1]
    norm = float(np.linalg.norm(amp))
    if abs(norm - 1.0) > FILE_NORM_TOL:
        raise ValidationError(f"state file norm {norm!r} deviates from 1 beyond 1e-8")
    # _label_list rejects null, which the constructor reads as the default labels
    return PureState(amp / norm, _label_list(data["labels"]))


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
    arr = _pair_array(data["matrix"], "matrix")
    if arr.shape != (4, 4, 2):
        raise ValidationError(
            f"matrix must be 4x4 entries of [re, im] pairs, got shape {arr.shape}"
        )
    # null, unlike a missing key, is not a list of names
    parties = _label_list(data.get("parties", ["a", "b"]))
    return DensityMatrix(arr[..., 0] + 1j * arr[..., 1], parties)


def load_matrix(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_json(fh.read())


def matrix_to_json(rho: DensityMatrix) -> str:
    data = {"parties": list(rho.parties), "matrix": _to_pairs(rho.matrix)}
    return json.dumps(data)
