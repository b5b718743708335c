import json
import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    ParseError,
    PureState,
    UnsupportedInputError,
    ValidationError,
    binary_entropy,
    density_of,
    eig_hermitian,
    haar_random_pure,
    load_state,
    parse_matrix_json,
    parse_state_json,
    partial_trace,
    permute_parties,
    random_mixed_state,
    relative_entropy,
    state_to_json,
    von_neumann_entropy,
)

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


class TestSpectraAndEntropies:
    def test_eig_clipping(self):
        spec = eig_hermitian(np.diag([1.0 + 5e-11, -5e-11]))
        assert spec.clipped
        assert spec.eigenvalues[-1] == 0.0

    def test_eig_rejects_non_hermitian_raw_array(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            eig_hermitian(np.array([[0.5, 1e-9], [0.0, 0.5]]))
        with pytest.raises(ValidationError, match="not Hermitian"):
            von_neumann_entropy(np.array([[0.5, 1j], [1j, 0.5]]))

    def test_eig_density_matrix_matches_its_raw_array(self):
        rho = random_mixed_state(3, 4)
        got = eig_hermitian(rho)
        want = eig_hermitian(np.array(rho.matrix))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.clipped == want.clipped

    def test_eig_no_clip_needed(self):
        spec = eig_hermitian(np.diag([0.25, 0.75]))
        assert not spec.clipped
        np.testing.assert_allclose(spec.eigenvalues, [0.75, 0.25])

    def test_entropy_pure_is_positive_zero(self):
        # a pure state has entropy 0, and the sign must not be -0.0
        rho = density_of(PureState(bell_vec()))
        s = von_neumann_entropy(rho)
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
            with pytest.raises(ValidationError, match="seed -1 must be nonnegative"):
                make(3, -1)

    def test_random_mixed_is_valid_and_mixed(self):
        rho = random_mixed_state(3, 7)
        assert rho.n_parties == 3
        assert von_neumann_entropy(rho) > 0.1
        rho2 = random_mixed_state(3, 7)
        np.testing.assert_array_equal(rho.matrix, rho2.matrix)


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
        # they would pass for a list
        amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        for labels in ("ab", {"a": 0, "b": 1}):
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
        # null becomes nan in numpy; NaN and Infinity are json.loads literals
        for bad in ("null", "NaN", "Infinity"):
            blob = ('{"n": 1, "labels": ["a"], "amplitudes": [[1, 0], [%s, 0]]}'
                    % bad)
            with pytest.raises(ValidationError,
                               match="non-finite amplitude entry"):
                parse_state_json(blob)
            rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                    for i in range(4)]
            blob = json.dumps({"matrix": rows}).replace("0.25", bad, 1)
            with pytest.raises(ValidationError, match="non-finite matrix entry"):
                parse_matrix_json(blob)

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
        with pytest.raises(ValidationError, match="hermiticity violated by nan"):
            DensityMatrix(np.full((4, 4), np.nan))
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            DensityMatrix(m)

    def test_eig_hermitian_rejects_nan_raw_array(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            eig_hermitian(np.full((2, 2), np.nan))
