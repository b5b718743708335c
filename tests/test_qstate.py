import json
import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    ParseError,
    PureState,
    ValidationError,
    binary_entropy,
    density_of,
    eig_hermitian,
    ghz_state,
    haar_random_pure,
    load_state,
    oracle_crosscheck,
    parse_matrix_json,
    parse_state_json,
    partial_trace,
    permute_parties,
    random_mixed_state,
    relative_entropy,
    run_suite,
    state_to_json,
    sub_seed,
    von_neumann_entropy,
)
from qcorr.qstate import EIG_CLIP, HERM_TOL, _checked_spectrum

H13 = math.log2(3.0) - 2.0 / 3.0  # binary entropy of 1/3


def bell_vec():
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


class TestPureState:
    def test_defaults_and_labels(self):
        psi = PureState(np.array([1.0, 0.0], dtype=complex))
        assert psi.labels == ("a",)
        assert psi.n_qubits == 1
        psi3 = PureState(np.zeros(8, complex) + np.eye(8, 1).ravel())
        assert psi3.labels == ("a", "b", "c")

    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0], dtype=complex))

    def test_norm_tolerance_boundary(self):
        amp = np.array([1.0 + 5e-11, 0.0], dtype=complex)
        PureState(amp)  # within 1e-10

    def test_length_power_of_two(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 0.0, 0.0], dtype=complex))

    def test_distinct_labels(self):
        with pytest.raises(ValidationError):
            PureState(bell_vec(), labels=("a", "a"))

    def test_labels_must_be_iterable(self):
        with pytest.raises(ValidationError, match="party labels 5"):
            PureState(bell_vec(), labels=5)
        with pytest.raises(ValidationError, match="party labels 5"):
            DensityMatrix(np.eye(4) / 4.0, 5)

    @pytest.mark.parametrize("labels", [
        {"x", "y"}, frozenset({"x", "y"}), b"xy", bytearray(b"xy")],
        ids=["set", "frozenset", "bytes", "bytearray"])
    def test_unordered_and_byte_labels_rejected(self, labels):
        # a set would give its hash order, which PYTHONHASHSEED changes, and
        # bytes their byte values ('120', '121')
        message = f"party labels {labels!r} are not a list"
        with pytest.raises(ValidationError) as exc:
            PureState(bell_vec(), labels)
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            DensityMatrix(np.eye(4) / 4.0, labels)
        assert str(exc.value) == message

    def test_ordered_iterables_accepted(self):
        psi = PureState(bell_vec(), iter(["x", "y"]))
        assert psi.labels == ("x", "y")
        assert DensityMatrix(np.eye(4) / 4.0, {"x": 0, "y": 1}.keys()).parties == ("x", "y")

    def test_immutable(self):
        psi = PureState(bell_vec())
        with pytest.raises(AttributeError):
            psi.labels = ("x", "y")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_valid(self):
        rho = density_of(PureState(bell_vec()))
        assert rho.parties == ("a", "b")
        assert rho.matrix.shape == (4, 4)

    def test_immutable(self):
        rho = density_of(PureState(bell_vec()))
        with pytest.raises(AttributeError, match="DensityMatrix is immutable"):
            rho.parties = ("x", "y")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_hermiticity_named(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        m = m / np.trace(m)
        with pytest.raises(ValidationError, match="hermiticity"):
            DensityMatrix(m, ("a", "b"))

    def test_trace_named(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex), ("a", "b"))

    def test_positivity_named(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="positivity"):
            DensityMatrix(m, ("a", "b"))

    def test_tiny_negative_eigenvalue_accepted(self):
        m = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
        DensityMatrix(m, ("a", "b"))


def _herm_off_by(dev):
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] += dev
    return m


def _trace_off_by(dev):
    m = np.eye(4, dtype=complex) / 4.0
    m[3, 3] += dev
    return m


def _least_eigenvalue(lo):
    return np.diag([1.0 - lo, lo, 0.0, 0.0]).astype(complex)


def _with_entry(i, j, value):
    m = np.eye(4, dtype=complex) / 4.0
    m[i, j] = value
    return m


def _with_pair(i, j, upper, lower):
    m = _with_entry(i, j, upper)
    m[j, i] = lower
    return m


_RHO3 = density_of(haar_random_pure(3, 5))

# DensityMatrix and partial_trace inputs with the exception type, message
# and number of eigvalsh calls that commit 23fc16b gave for each: the
# checks run in the order shape, hermiticity, trace, positivity, labels.
# Since then a nan or inf entry is rejected as non-finite, not as a
# hermiticity violation, and entries whose difference or diagonal sum
# overflows read inf there, with no RuntimeWarning, before any eigensolve
ERROR_CONTRACT = [
    ("herm inside", lambda: DensityMatrix(_herm_off_by(0.9 * HERM_TOL)), None, "", 1),
    ("herm at", lambda: DensityMatrix(_herm_off_by(HERM_TOL)), None, "", 1),
    ("herm outside", lambda: DensityMatrix(_herm_off_by(1.1 * HERM_TOL)),
     ValidationError, "hermiticity violated by 1.100e-10", 0),
    ("herm imag outside", lambda: DensityMatrix(_herm_off_by(1.1j * HERM_TOL)),
     ValidationError, "hermiticity violated by 1.100e-10", 0),
    ("trace inside", lambda: DensityMatrix(_trace_off_by(0.9 * HERM_TOL)), None, "", 1),
    ("trace outside", lambda: DensityMatrix(_trace_off_by(1.1 * HERM_TOL)),
     ValidationError, "unit trace violated by 1.100e-10", 0),
    ("eig above", lambda: DensityMatrix(_least_eigenvalue(-0.9 * EIG_CLIP)), None, "", 1),
    ("eig below", lambda: DensityMatrix(_least_eigenvalue(-1.1 * EIG_CLIP)),
     ValidationError, "positivity violated: eigenvalue -1.100e-10", 1),
    ("nan diagonal", lambda: DensityMatrix(_with_entry(0, 0, math.nan)),
     ValidationError, "non-finite entry", 0),
    ("nan off-diagonal", lambda: DensityMatrix(_with_entry(1, 2, math.nan)),
     ValidationError, "non-finite entry", 0),
    ("nan imaginary part", lambda: DensityMatrix(_with_entry(2, 2, complex(0.25, math.nan))),
     ValidationError, "non-finite entry", 0),
    ("inf off-diagonal", lambda: DensityMatrix(_with_entry(1, 2, math.inf)),
     ValidationError, "non-finite entry", 0),
    ("inf diagonal", lambda: DensityMatrix(np.diag([math.inf, 0.0, 0.0, 0.0])),
     ValidationError, "non-finite entry", 0),
    ("mirrored inf off-diagonal", lambda: DensityMatrix(_with_pair(0, 1, math.inf, math.inf)),
     ValidationError, "non-finite entry", 0),
    ("overflowing trace", lambda: DensityMatrix(np.diag([1e308, 1e308, 0.0, 0.0])),
     ValidationError, "unit trace violated by inf", 0),
    ("overflowing difference", lambda: DensityMatrix(_with_pair(0, 1, 1e308, -1e308)),
     ValidationError, "hermiticity violated by inf", 0),
    ("non-square", lambda: DensityMatrix(np.zeros((2, 3))),
     ValidationError, "density matrix must be square, got (2, 3)", 0),
    ("vector", lambda: DensityMatrix(np.array([1.0, 0.0])),
     ValidationError, "density matrix must be square, got (2,)", 0),
    ("three axes", lambda: DensityMatrix(np.zeros((2, 2, 2))),
     ValidationError, "density matrix must be square, got (2, 2, 2)", 0),
    ("dimension 3", lambda: DensityMatrix(np.eye(3) / 3.0),
     ValidationError, "dimension 3 is not a power of two qubit dimension", 0),
    ("dimension 1", lambda: DensityMatrix(np.ones((1, 1))),
     ValidationError, "dimension 1 is not a power of two qubit dimension", 0),
    ("dimension 6", lambda: DensityMatrix(np.eye(6) / 6.0),
     ValidationError, "dimension 6 is not a power of two qubit dimension", 0),
    ("too few labels", lambda: DensityMatrix(np.eye(4) / 4.0, ["a"]),
     ValidationError, "need 2 distinct party labels, got ('a',)", 1),
    ("repeated label", lambda: DensityMatrix(np.eye(4) / 4.0, ["x", "x"]),
     ValidationError, "need 2 distinct party labels, got ('x', 'x')", 1),
    ("str labels", lambda: DensityMatrix(np.eye(4) / 4.0, "ab"),
     ValidationError, "party labels 'ab' are not a list", 1),
    ("dict labels", lambda: DensityMatrix(np.eye(4) / 4.0, {"a": 1, "b": 2}),
     ValidationError, "party labels {'a': 1, 'b': 2} are not a list", 1),
    ("keep unknown", lambda: partial_trace(_RHO3, ["z"]),
     ValidationError, "unknown parties ['z']; have ('a', 'b', 'c')", 0),
    ("keep unknown str", lambda: partial_trace(_RHO3, "ab"),
     ValidationError, "unknown parties ['ab']; have ('a', 'b', 'c')", 0),
    ("keep unknown twice", lambda: partial_trace(_RHO3, ["z", "z"]),
     ValidationError, "unknown parties ['z', 'z']; have ('a', 'b', 'c')", 0),
    ("keep unknown and duplicate", lambda: partial_trace(_RHO3, ["a", "a", "q"]),
     ValidationError, "unknown parties ['q']; have ('a', 'b', 'c')", 0),
    ("keep number", lambda: partial_trace(_RHO3, [1]),
     ValidationError, "unknown parties ['1']; have ('a', 'b', 'c')", 0),
    ("keep duplicate", lambda: partial_trace(_RHO3, ["a", "a"]),
     ValidationError, "duplicate parties in keep: ['a', 'a']", 0),
    ("keep empty", lambda: partial_trace(_RHO3, []),
     ValidationError, "keep must be a nonempty proper subset of the parties", 0),
    ("keep all", lambda: partial_trace(_RHO3, ["c", "b", "a"]),
     ValidationError, "keep must be a nonempty proper subset of the parties", 0),
    ("keep str", lambda: partial_trace(_RHO3, "b"), None, "", 1),
]


@pytest.mark.parametrize("case, call, error, message, eigvalsh_calls", ERROR_CONTRACT,
                         ids=[case[0] for case in ERROR_CONTRACT])
def test_error_contract(monkeypatch, case, call, error, message, eigvalsh_calls):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    if error is None:
        call()
    else:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message
    assert len(calls) == eigvalsh_calls


# one failing matrix of a 2 x 2 stack, and the message DensityMatrix gives for it
STACK_CONTRACT = [
    ("herm", _herm_off_by(1.1 * HERM_TOL), "hermiticity violated by 1.100e-10"),
    ("trace", _trace_off_by(1.1 * HERM_TOL), "unit trace violated by 1.100e-10"),
    ("eig", _least_eigenvalue(-1.1 * EIG_CLIP), "positivity violated: eigenvalue -1.100e-10"),
    ("nan", _with_entry(1, 2, math.nan), "non-finite entry"),
    ("overflowing trace", np.diag([1e308, 1e308, 0.0, 0.0]), "unit trace violated by inf"),
]


@pytest.mark.parametrize("case, bad, message", STACK_CONTRACT,
                         ids=[case[0] for case in STACK_CONTRACT])
def test_stack_check_names_the_failing_matrix(case, bad, message):
    good = _trace_off_by(0.9 * HERM_TOL)
    with pytest.raises(ValidationError) as exc:
        DensityMatrix(bad)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        _checked_spectrum(np.array([[good, good], [bad, good]], dtype=complex))
    assert str(exc.value) == message
    stack = np.array([[good, good], [_least_eigenvalue(-0.9 * EIG_CLIP), good]])
    assert _checked_spectrum(stack).shape == (2, 2, 4)


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = density_of(PureState(bell_vec()))
        red = partial_trace(rho, ["a"])
        assert red.parties == ("a",)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_keep_order_is_state_order(self):
        psi = haar_random_pure(3, 5)
        rho = density_of(psi)
        r1 = partial_trace(rho, ["c", "a"])
        r2 = partial_trace(rho, ["a", "c"])
        assert r1.parties == ("a", "c")
        np.testing.assert_allclose(r1.matrix, r2.matrix, atol=1e-14)

    def test_keep_validation(self):
        rho = density_of(haar_random_pure(2, 1))
        with pytest.raises(ValidationError):
            partial_trace(rho, [])
        with pytest.raises(ValidationError):
            partial_trace(rho, ["a", "b"])
        with pytest.raises(ValidationError):
            partial_trace(rho, ["z"])

    def test_product_state_factorizes(self):
        amp = np.kron(np.array([1.0, 0.0]), bell_vec())
        rho = density_of(PureState(amp.astype(complex)))
        red = partial_trace(rho, ["b", "c"])
        np.testing.assert_allclose(
            red.matrix, density_of(PureState(bell_vec())).matrix, atol=1e-12
        )


class TestPermuteParties:
    def test_amplitude_relabeling(self):
        # |100> with parties (a, b, c); swapping a and c gives |001>
        amp = np.zeros(8, complex)
        amp[0b100] = 1.0
        rho = density_of(PureState(amp))
        out = permute_parties(rho, ["c", "b", "a"])
        assert out.parties == ("c", "b", "a")
        expect = np.zeros((8, 8))
        expect[0b001, 0b001] = 1.0
        np.testing.assert_allclose(out.matrix, expect, atol=1e-14)

    def test_roundtrip(self):
        rho = density_of(haar_random_pure(3, 9))
        back = permute_parties(permute_parties(rho, ["b", "c", "a"]),
                               ["a", "b", "c"])
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_validation(self):
        rho = density_of(haar_random_pure(2, 2))
        with pytest.raises(ValidationError):
            permute_parties(rho, ["a"])

    @pytest.mark.parametrize("order", [
        "cba", b"cba", bytearray(b"cba"), {"c": 0, "b": 1, "a": 2},
        {"a", "b", "c"}, frozenset("abc"), 3])
    def test_order_must_be_a_list(self, order):
        # a set would permute in hash order, a str or bytes by its characters
        rho = random_mixed_state(3, 0)
        with pytest.raises(ValidationError, match="party labels .* are not a list"):
            permute_parties(rho, order)

    @pytest.mark.parametrize("make", [list, tuple, lambda s: (c for c in s)],
                             ids=["list", "tuple", "generator"])
    def test_ordered_iterables_are_accepted(self, make):
        rho = random_mixed_state(3, 0)
        out = permute_parties(rho, make("cab"))
        assert out.parties == ("c", "a", "b")
        np.testing.assert_array_equal(
            out.matrix, permute_parties(rho, ["c", "a", "b"]).matrix)


class TestSpectraAndEntropies:
    def test_eig_clipping(self):
        spec = eig_hermitian(np.diag([1.0 + 5e-11, -5e-11]))
        assert spec.clipped
        assert spec.eigenvalues[-1] == 0.0

    def test_eig_rejects_non_hermitian_raw_array(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            eig_hermitian(np.array([[0.5, 1e-9], [0.0, 0.5]]))
        with pytest.raises(ValidationError, match="hermiticity violated"):
            von_neumann_entropy(np.array([[0.5, 1j], [1j, 0.5]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2), (0, 0)])
    def test_eig_rejects_a_raw_array_that_is_not_a_square_matrix(self, shape):
        with pytest.raises(ValidationError, match=r"matrix must be square, got shape \("):
            eig_hermitian(np.ones(shape))

    def test_eig_density_matrix_matches_its_raw_array(self):
        rho = random_mixed_state(3, 4)
        got = eig_hermitian(rho)
        want = eig_hermitian(np.array(rho.matrix))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.clipped == want.clipped

    @pytest.mark.parametrize("seed", range(4))
    def test_entropy_of_density_matrix_matches_its_raw_array(self, seed):
        # a DensityMatrix skips eig_hermitian's check and clipping; pure
        # states and their reductions carry clipped noise eigenvalues
        psi = density_of(haar_random_pure(3, seed))
        mixed = random_mixed_state(3, seed)
        for rho in (psi, partial_trace(psi, ["a", "c"]), partial_trace(psi, ["b"]),
                    mixed, partial_trace(mixed, ["a", "b"])):
            got = von_neumann_entropy(rho)
            want = von_neumann_entropy(np.array(rho.matrix))
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    def test_eig_no_clip_needed(self):
        spec = eig_hermitian(np.diag([0.25, 0.75]))
        assert not spec.clipped
        np.testing.assert_allclose(spec.eigenvalues, [0.75, 0.25])

    def test_entropy_pure_is_positive_zero(self):
        # a pure state has entropy 0, and the sign must not be -0.0, the
        # value of |0>'s single term -(1.0 * log2(1.0))
        for rho in (density_of(PureState(bell_vec())),
                    density_of(PureState(np.array([1.0, 0.0])))):
            for s in (von_neumann_entropy(rho), von_neumann_entropy(rho.matrix)):
                assert abs(s) < 1e-12
                assert math.copysign(1.0, s) > 0.0

    def test_entropy_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0, ("a",))
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_entropy_known_spectrum(self):
        rho = DensityMatrix(np.diag([1 / 3, 2 / 3]).astype(complex), ("a",))
        assert abs(von_neumann_entropy(rho) - H13) < 1e-12

    def test_binary_entropy_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15
        assert abs(binary_entropy(1 / 3) - H13) < 1e-15
        assert binary_entropy(1 / 3) == binary_entropy(2 / 3)

    def test_binary_entropy_domain(self):
        binary_entropy(-5e-13)  # inside slack
        with pytest.raises(ValidationError):
            binary_entropy(1.1)


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        rho = density_of(haar_random_pure(2, 3))
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_bell_to_maximally_mixed(self):
        rho = density_of(PureState(bell_vec()))
        sigma = DensityMatrix(np.eye(4, dtype=complex) / 4.0, ("a", "b"))
        assert abs(relative_entropy(rho, sigma) - 2.0) < 1e-12

    def test_infinite_on_disjoint_support(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), ("a",))
        sigma = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), ("a",))
        assert relative_entropy(rho, sigma) == math.inf

    def test_infinity_requires_weight(self):
        # sigma has a near-null direction, but rho puts no weight on it
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), ("a",))
        sigma = DensityMatrix(np.diag([1.0 - 1e-13, 1e-13]).astype(complex),
                              ("a",))
        assert math.isfinite(relative_entropy(rho, sigma))

    def test_weight_above_threshold_is_infinite(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0, ("a",))
        sigma = DensityMatrix(np.diag([1.0 - 1e-13, 1e-13]).astype(complex),
                              ("a",))
        assert relative_entropy(rho, sigma) == math.inf


class TestSampling:
    def test_haar_deterministic(self):
        p1 = haar_random_pure(3, 42)
        p2 = haar_random_pure(3, 42)
        np.testing.assert_array_equal(p1.amplitudes, p2.amplitudes)

    def test_haar_seeds_differ(self):
        p1 = haar_random_pure(3, 1)
        p2 = haar_random_pure(3, 2)
        assert not np.allclose(p1.amplitudes, p2.amplitudes)

    def test_haar_normalized(self):
        for seed in range(5):
            psi = haar_random_pure(4, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_haar_qubit_range(self):
        with pytest.raises(ValidationError):
            haar_random_pure(0, 1)
        with pytest.raises(ValidationError):
            haar_random_pure(7, 1)

    def test_negative_seed_is_a_validation_error(self):
        for make in (haar_random_pure, random_mixed_state):
            with pytest.raises(ValidationError, match="seed -1 must be an integer >= 0"):
                make(3, -1)

    def test_random_mixed_is_valid_and_mixed(self):
        rho = random_mixed_state(3, 7)
        assert rho.n_parties == 3
        assert von_neumann_entropy(rho) > 0.1
        rho2 = random_mixed_state(3, 7)
        np.testing.assert_array_equal(rho.matrix, rho2.matrix)


# every integer argument of the library: the call with that argument set to
# v, the name its message gives it, and its range lo..hi (hi None: no bound)
INTEGER_ARGUMENTS = [
    ("haar_random_pure n_qubits", lambda v: haar_random_pure(v, 0), "n_qubits", 1, 6),
    ("haar_random_pure seed", lambda v: haar_random_pure(3, v), "seed", 0, None),
    ("random_mixed_state n_qubits", lambda v: random_mixed_state(v, 0), "n_qubits", 1, 6),
    ("random_mixed_state seed", lambda v: random_mixed_state(3, v), "seed", 0, None),
    ("ghz_state n_qubits", lambda v: ghz_state(v), "n_qubits", 2, 6),
    ("run_suite n_samples", lambda v: run_suite(v, 0), "n_samples", 1, None),
    ("run_suite seed", lambda v: run_suite(1, v), "seed", 0, None),
    ("run_suite n_qubits", lambda v: run_suite(1, 0, v), "n_qubits", 3, 6),
    ("oracle_crosscheck n_samples", lambda v: oracle_crosscheck(v, 0), "n_samples", 1, None),
    ("oracle_crosscheck seed", lambda v: oracle_crosscheck(1, v), "seed", 0, None),
    ("sub_seed master seed", lambda v: sub_seed(v, 0), "seed", 0, None),
    ("sub_seed index", lambda v: sub_seed(0, v), "index", 0, None),
]
INVALID_INTEGERS = [
    ("bool", lambda lo, hi: True),
    ("fraction", lambda lo, hi: lo + 0.5),
    ("nan", lambda lo, hi: math.nan),
    ("inf", lambda lo, hi: math.inf),
    ("None", lambda lo, hi: None),
    ("str", lambda lo, hi: "3"),
    ("below", lambda lo, hi: lo - 1),
    ("above", lambda lo, hi: hi + 1),
]


def _no_allocation(*args, **kwargs):
    raise AssertionError("an array was allocated before the argument check")


INTEGER_CONTRACT = [(*argument, kind, make(argument[3], argument[4]))
                    for argument in INTEGER_ARGUMENTS for kind, make in INVALID_INTEGERS
                    if not (kind == "above" and argument[4] is None)]


@pytest.mark.parametrize("case, call, name, lo, hi, kind, value", INTEGER_CONTRACT,
                         ids=[f"{case[0]}-{case[5]}" for case in INTEGER_CONTRACT])
def test_integer_argument_contract(monkeypatch, case, call, name, lo, hi, kind, value):
    # the first allocation of each entry point: its rng, its seed
    # sequence, or ghz_state's amplitudes
    for owner, attr in ((np.random, "default_rng"), (np.random, "SeedSequence"), (np, "zeros")):
        monkeypatch.setattr(owner, attr, _no_allocation)
    with pytest.raises(ValidationError) as exc:
        call(value)
    bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    assert str(exc.value) == f"{name} {value!r} must be an integer {bound}"


def test_integral_values_of_any_type_pass():
    reference = haar_random_pure(3, 5).amplitudes
    for n, seed in ((np.int64(3), np.uint64(5)), (3.0, 5.0), (np.float64(3.0), np.int32(5))):
        np.testing.assert_array_equal(haar_random_pure(n, seed).amplitudes, reference)
    np.testing.assert_array_equal(random_mixed_state(np.int64(3), 7.0).matrix,
                                  random_mixed_state(3, 7).matrix)
    np.testing.assert_array_equal(ghz_state(4.0).amplitudes, ghz_state(4).amplitudes)
    assert sub_seed(np.int64(42), 7.0) == sub_seed(42, 7)
    assert run_suite(2.0, np.int64(1), np.int8(3)).to_dict() == run_suite(2, 1).to_dict()
    assert oracle_crosscheck(np.int64(1), 2.0).to_dict() == oracle_crosscheck(1, 2).to_dict()


def _state_file(amplitudes, labels=("a",)):
    """A one-qubit state file."""
    return json.dumps({"n": 1, "labels": labels, "amplitudes": amplitudes})


def _matrix_file(entry=(0.25, 0.0), parties=("a", "b")):
    """The file of the maximally mixed two-qubit matrix, its first entry replaced."""
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][0] = list(entry)
    return json.dumps({"parties": parties, "matrix": rows})


# (id, reader, file text, whole message) of files that each reader rejects;
# the entries that the constructors' rule rejects run through both readers
READER_REJECTIONS = [
    ("not an object", parse_state_json, "[1, 2]", "state file must be a JSON object"),
    ("missing keys", parse_state_json, '{"n": 1}',
     "state file missing keys: ['labels', 'amplitudes']"),
    ("wrong length", parse_state_json, _state_file([[1, 0]]),
     "amplitudes must be a list of 2 [re, im] pairs"),
    ("not pairs", parse_state_json, _state_file([[1, 0, 0], [0, 0, 0]]),
     "amplitudes must have shape (2, 2)"),
    ("no matrix", parse_matrix_json, '{"parties": ["a", "b"]}',
     "matrix file must be a JSON object with a matrix field"),
]
for kind, bad, message in (("null", None, "non-numeric {} entry None"),
                           ("NaN", math.nan, "non-finite {} entry"),
                           ("Infinity", math.inf, "non-finite {} entry"),
                           ("-Infinity", -math.inf, "non-finite {} entry"),
                           ("400 digits", 10**400,
                            "{} entry out of range: int too large to convert to float")):
    READER_REJECTIONS += [
        (f"state {kind}", parse_state_json, _state_file([[1, 0], [bad, 0]]),
         message.format("amplitude")),
        (f"matrix {kind}", parse_matrix_json, _matrix_file(entry=(bad, 0.0)),
         message.format("matrix")),
    ]
READER_REJECTIONS += [
    ("state ragged", parse_state_json, _state_file([[1, 0], [0, 0, 0]]),
     "ragged amplitude array: shape (2,) plus an inhomogeneous part"),
    ("matrix ragged", parse_matrix_json, _matrix_file(entry=(0.25, 0.0, 0.0)),
     "ragged matrix array: shape (4, 4) plus an inhomogeneous part"),
    ("state null labels", parse_state_json, _state_file([[1, 0], [0, 0]], labels=None),
     "party labels None are not a list"),
    ("matrix null parties", parse_matrix_json, _matrix_file(parties=None),
     "party labels None are not a list"),
]


class TestStateSerialization:
    def test_round_trip(self):
        psi = haar_random_pure(3, 11)
        back = parse_state_json(state_to_json(psi))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)
        assert back.labels == psi.labels

    def test_parse_error_carries_byte_offset(self):
        with pytest.raises(ParseError, match="byte offset"):
            parse_state_json('{"n": 3, "amplitudes": [[0.5')

    def test_norm_gate(self):
        amps = [[0.9, 0.0]] + [[0.0, 0.0]] * 7
        blob = json.dumps({"n": 3, "labels": ["a", "b", "c"],
                           "amplitudes": amps})
        with pytest.raises(ValidationError, match="norm"):
            parse_state_json(blob)

    def test_file_labels_must_be_a_list(self):
        # strings and objects are iterable, and read as characters or keys
        # they would pass for a list; null would pass for the default labels
        amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        for labels in ("ab", {"a": 0, "b": 1}, None):
            blob = json.dumps({"n": 2, "labels": labels, "amplitudes": amps})
            with pytest.raises(ValidationError, match="party labels .* are not a list"):
                parse_state_json(blob)
            blob = json.dumps({"parties": labels, "matrix": rows})
            with pytest.raises(ValidationError, match="party labels .* are not a list"):
                parse_matrix_json(blob)

    def test_boolean_qubit_count_rejected(self):
        blob = json.dumps({"n": True, "labels": ["a"],
                           "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ValidationError, match="field n must be an integer"):
            parse_state_json(blob)

    def test_small_norm_deviation_renormalized(self):
        scale = 1.0 + 5e-9
        amps = [[scale / math.sqrt(2.0), 0.0], [0.0, 0.0], [0.0, 0.0],
                [scale / math.sqrt(2.0), 0.0]]
        blob = json.dumps({"n": 2, "labels": ["a", "b"], "amplitudes": amps})
        psi = parse_state_json(blob)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_non_finite_entries_rejected(self):
        # NaN and Infinity are json.loads literals; null is no number at all
        for bad, message in (("null", "non-numeric {} entry None"),
                             ("NaN", "non-finite {} entry"),
                             ("Infinity", "non-finite {} entry")):
            blob = ('{"n": 1, "labels": ["a"], "amplitudes": [[1, 0], [%s, 0]]}'
                    % bad)
            with pytest.raises(ValidationError,
                               match=message.format("amplitude")):
                parse_state_json(blob)
            rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                    for i in range(4)]
            blob = json.dumps({"matrix": rows}).replace("0.25", bad, 1)
            with pytest.raises(ValidationError, match=message.format("matrix")):
                parse_matrix_json(blob)

    @pytest.mark.parametrize("bad", ['"1"', '" 0.25 "', "true", "false", '{"re": 1}'])
    def test_non_numeric_entries_rejected(self, bad):
        # numpy reads numeric strings and booleans as numbers, so each is
        # checked before the array is built
        blob = '{"n": 1, "labels": ["a"], "amplitudes": [[1, 0], [%s, 0]]}' % bad
        with pytest.raises(ValidationError, match="non-numeric amplitude entry"):
            parse_state_json(blob)
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        blob = json.dumps({"matrix": rows}).replace("0.0", bad, 1)
        with pytest.raises(ValidationError, match="non-numeric matrix entry"):
            parse_matrix_json(blob)

    def test_integer_too_large_for_a_float_rejected(self):
        blob = '{"n": 1, "labels": ["a"], "amplitudes": [[1, 0], [%s, 0]]}' % ("9" * 400)
        with pytest.raises(ValidationError, match="amplitude entry out of range"):
            parse_state_json(blob)

    @pytest.mark.parametrize("call, text, message", [case[1:] for case in READER_REJECTIONS],
                             ids=[case[0] for case in READER_REJECTIONS])
    def test_reader_rejections(self, call, text, message):
        with pytest.raises(ValidationError) as exc:
            call(text)
        assert str(exc.value) == message

    def test_load_state_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_state(tmp_path / "missing.json")

    def test_load_state(self, tmp_path):
        psi = haar_random_pure(2, 8)
        path = tmp_path / "s.json"
        path.write_text(state_to_json(psi))
        back = load_state(path)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


class TestNonnegativePolicy:
    def test_floor_passes_nonnegative_values_through(self):
        from qcorr.qstate import _floor_zero

        for x in (0.0, 5e-324, 1e-17, 0.1, 2.0, 1e300, math.inf):
            assert repr(_floor_zero(x, "x")) == repr(x)
        assert type(_floor_zero(np.float64(0.25), "x")) is float

    def test_floor_zeroes_noise_within_each_slack(self):
        from qcorr.qstate import OPTIMIZER_SLACK, ROUNDING_SLACK, _floor_zero

        for slack in (ROUNDING_SLACK, OPTIMIZER_SLACK):
            for x in (-0.0, -1e-300, -0.5 * slack, -slack):
                got = _floor_zero(x, "x", slack)
                assert got == 0.0 and math.copysign(1.0, got) > 0.0
        assert _floor_zero(-1e-7, "x", OPTIMIZER_SLACK) == 0.0

    def test_floor_rejects_failures_and_nan(self):
        from qcorr import InternalInvariantError
        from qcorr.qstate import OPTIMIZER_SLACK, _floor_zero

        with pytest.raises(InternalInvariantError, match="T -2e-09 below -1e-9"):
            _floor_zero(-2e-9, "T")
        with pytest.raises(InternalInvariantError, match="below -1e-6"):
            _floor_zero(-2e-6, "discord", OPTIMIZER_SLACK)
        for x in (math.nan, -math.inf):
            with pytest.raises(InternalInvariantError):
                _floor_zero(x, "x")

    def test_clamp_unit(self):
        from qcorr.qstate import _clamp_unit

        assert _clamp_unit(-1e-12, "p") == 0.0
        assert _clamp_unit(1.0 + 1e-12, "p") == 1.0
        assert repr(_clamp_unit(0.3, "p")) == "0.3"
        for x in (math.nan, -2e-12, 1.0 + 2e-12, math.inf):
            with pytest.raises(ValidationError, match=r"p .* outside \[0, 1\]"):
                _clamp_unit(x, "p")

    def test_binary_entropy_rejects_nan(self):
        with pytest.raises(ValidationError, match="binary entropy argument nan"):
            binary_entropy(math.nan)


class TestNanInputs:
    def test_pure_state_rejects_nan(self):
        with pytest.raises(ValidationError, match="norm nan"):
            PureState(np.full(8, np.nan))

    def test_density_matrix_rejects_nan_before_eigensolve(self):
        with pytest.raises(ValidationError, match="non-finite entry"):
            DensityMatrix(np.full((4, 4), np.nan))
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_eig_hermitian_rejects_nan_raw_array(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            eig_hermitian(np.full((2, 2), np.nan))
