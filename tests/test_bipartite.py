import json
import math

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    InternalInvariantError,
    MeasurementBasis,
    ParseError,
    PureState,
    UnsupportedInputError,
    ValidationError,
    binary_entropy,
    classical_correlation_directional,
    concurrence,
    conditional_entropy_measured,
    density_of,
    discord_directional,
    eof_from_concurrence,
    koashi_winter_classical,
    koashi_winter_discord,
    load_matrix,
    matrix_to_json,
    mutual_information,
    one_to_rest_concurrence,
    parse_matrix_json,
    partial_trace,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
    von_neumann_entropy,
)
from qcorr.bipartite import discord_from
from test_pins import bell_state, werner

H13 = math.log2(3.0) - 2.0 / 3.0
# entanglement of formation at concurrence 2/3, i.e. h((3 + sqrt 5) / 6)
E_W_PAIR = 0.5500477595827576


def ghz():
    amp = np.zeros(8, complex)
    amp[0] = amp[7] = 1.0 / math.sqrt(2.0)
    return PureState(amp)


def w3():
    amp = np.zeros(8, complex)
    amp[0b001] = amp[0b010] = amp[0b100] = 1.0 / math.sqrt(3.0)
    return PureState(amp)


def product_state():
    rho_a = np.diag([0.75, 0.25]).astype(complex)
    rho_b = np.diag([0.5, 0.5]).astype(complex)
    return DensityMatrix(np.kron(rho_a, rho_b), ("a", "b"))


def classical_quantum():
    # classical on a; conditionals |0> and |+> on b are non-orthogonal, so
    # discord vanishes only when a is the measured party
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    m = 0.5 * np.outer(np.kron([1, 0], zero), np.kron([1, 0], zero))
    m = m + 0.5 * np.outer(np.kron([0, 1], plus), np.kron([0, 1], plus))
    return DensityMatrix(m.astype(complex), ("a", "b"))


class TestMeasurementBasis:
    def test_orthonormal(self):
        basis = MeasurementBasis(1.1, 2.3)
        v0, v1 = basis.vector(), basis.complement_vector()
        assert abs(np.vdot(v0, v0) - 1.0) < 1e-12
        assert abs(np.vdot(v1, v1) - 1.0) < 1e-12
        assert abs(np.vdot(v0, v1)) < 1e-12

    def test_projectors_complete(self):
        p0, p1 = MeasurementBasis(0.4, 5.0).projectors()
        np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)

    def test_z_basis(self):
        np.testing.assert_allclose(
            MeasurementBasis(0.0, 0.0).vector(), [1.0, 0.0], atol=1e-15
        )

    def test_angle_validation(self):
        with pytest.raises(ValidationError):
            MeasurementBasis(3.5, 0.0)
        with pytest.raises(ValidationError):
            MeasurementBasis(0.5, -0.2)


class TestMutualInformation:
    def test_bell(self):
        assert abs(mutual_information(density_of(bell_state())) - 2.0) < 1e-12

    def test_product(self):
        assert abs(mutual_information(product_state())) < 1e-12

    def test_party_count_checked(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0, ("a",))
        with pytest.raises(ValidationError):
            mutual_information(rho)


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence(density_of(bell_state())) - 1.0) < 1e-10

    def test_w_pair(self):
        rho = partial_trace(density_of(w3()), ["a", "b"])
        assert abs(concurrence(rho) - 2.0 / 3.0) < 1e-10

    def test_separable_ghz_pair_is_exact_zero(self):
        rho = partial_trace(density_of(ghz()), ["a", "b"])
        assert concurrence(rho) == 0.0

    def test_werner_above_threshold(self):
        assert abs(concurrence(werner(0.8)) - 0.7) < 1e-10

    def test_werner_below_threshold(self):
        assert concurrence(werner(0.2)) == 0.0

    def test_one_to_rest_w(self):
        rho_a = partial_trace(density_of(w3()), ["a"])
        expect = 2.0 * math.sqrt(2.0) / 3.0
        assert abs(one_to_rest_concurrence(rho_a) - expect) < 1e-12


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert abs(eof_from_concurrence(1.0) - 1.0) < 1e-15

    def test_w_pair_value(self):
        assert abs(eof_from_concurrence(2.0 / 3.0) - E_W_PAIR) < 1e-12
        analytic = binary_entropy((3.0 + math.sqrt(5.0)) / 6.0)
        assert abs(E_W_PAIR - analytic) < 1e-12

    def test_monotone(self):
        values = [eof_from_concurrence(c) for c in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValidationError):
            eof_from_concurrence(1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match=r"concurrence nan outside \[0, 1\]"):
            eof_from_concurrence(math.nan)


class TestConditionalEntropy:
    def test_bell_z_measurement(self):
        rho = density_of(bell_state())
        basis = MeasurementBasis(0.0, 0.0)
        assert abs(conditional_entropy_measured(rho, basis)) < 1e-12

    def test_product_state_is_marginal_entropy(self):
        rho = product_state()
        s_a = von_neumann_entropy(partial_trace(rho, ["a"]))
        for theta in (0.0, 1.0, 2.5):
            basis = MeasurementBasis(theta, 0.7)
            got = conditional_entropy_measured(rho, basis, measured_party="b")
            assert abs(got - s_a) < 1e-10

    def test_measured_party_selects_slot(self):
        rho = classical_quantum()
        z = MeasurementBasis(0.0, 0.0)
        # measuring a in z leaves pure conditionals on b
        assert abs(conditional_entropy_measured(rho, z, "a")) < 1e-12
        assert conditional_entropy_measured(rho, z, "b") > 0.1

    def test_unknown_party(self):
        with pytest.raises(ValidationError):
            conditional_entropy_measured(
                product_state(), MeasurementBasis(0.0, 0.0), "z"
            )

    def test_basis_must_be_a_measurement_basis(self):
        with pytest.raises(ValidationError, match="basis 'x' is not a MeasurementBasis"):
            conditional_entropy_measured(product_state(), "x")


class TestDirectionalCorrelations:
    def test_bell(self):
        rho = density_of(bell_state())
        j = classical_correlation_directional(rho)
        d = discord_directional(rho)
        assert abs(j.value - 1.0) < 1e-9
        assert abs(d.value - 1.0) < 1e-9
        assert j.method == "optimizer"

    def test_product_is_zero(self):
        rho = product_state()
        assert classical_correlation_directional(rho).value < 1e-9
        assert discord_directional(rho).value < 1e-9

    def test_classical_mixture(self):
        # rho = (|00><00| + |11><11|) / 2 has I = J = 1 and zero discord
        m = np.zeros((4, 4), complex)
        m[0, 0] = m[3, 3] = 0.5
        rho = DensityMatrix(m, ("a", "b"))
        assert abs(classical_correlation_directional(rho).value - 1.0) < 1e-9
        assert discord_directional(rho).value < 1e-9

    def test_classical_quantum_is_one_way(self):
        rho = classical_quantum()
        d_measure_a = discord_directional(rho, "a")
        d_measure_b = discord_directional(rho, "b")
        assert d_measure_a.value < 1e-8
        assert d_measure_b.value > 0.01
        # default measured party is the second label
        assert abs(discord_directional(rho).value - d_measure_b.value) < 1e-12

    def test_classical_quantum_j_hits_marginal_entropy(self):
        rho = classical_quantum()
        s_b = von_neumann_entropy(partial_trace(rho, ["b"]))
        j = classical_correlation_directional(rho, "a")
        assert abs(j.value - s_b) < 1e-9

    def test_w_reduction_matches_closed_form(self):
        psi = w3()
        rho = partial_trace(density_of(psi), ["a", "b"])
        j = classical_correlation_directional(rho, "b")
        d = discord_directional(rho, "b")
        assert abs(j.value - koashi_winter_classical(psi, "a", "b")) < 1e-6
        assert abs(d.value - koashi_winter_discord(psi, "a", "b")) < 1e-6

    def test_symmetrized(self):
        rho = classical_quantum()
        j_a = classical_correlation_directional(rho, "a").value
        j_b = classical_correlation_directional(rho, "b").value
        d_a = discord_directional(rho, "a").value
        d_b = discord_directional(rho, "b").value
        assert abs(symmetrized_classical(rho) - max(j_a, j_b)) < 1e-12
        assert abs(symmetrized_discord(rho) - min(d_a, d_b)) < 1e-12

    def test_discord_from_floors_noise_and_rejects_failures(self):
        assert discord_from(0.5, 0.25) == 0.25
        assert discord_from(0.5, 0.5 + 1e-7) == 0.0
        with pytest.raises(InternalInvariantError, match="below -1e-6"):
            discord_from(0.5, 0.5 + 1e-5)

    def test_negative_value_rejected(self):
        from qcorr.bipartite import DirectionalResult

        with pytest.raises(InternalInvariantError):
            DirectionalResult(-1e-3, MeasurementBasis(0.0, 0.0), "optimizer")

    def test_ties_resolve_to_the_first_grid_point(self):
        # every measurement gives the same conditional entropy on these
        # states, so their grid values differ only by rounding; the search
        # keeps the first grid point within 1e-10 of the minimum, theta =
        # phi = 0, not the point that happened to round lowest
        for rho in (werner(0.8), product_state(), DensityMatrix(np.eye(4) / 4.0)):
            for party in rho.parties:
                basis = classical_correlation_directional(rho, party).optimal_basis
                assert basis == MeasurementBasis(0.0, 0.0), (rho, party)


class TestKoashiWinter:
    def test_ghz_values(self):
        psi = ghz()
        # pair reductions of GHZ are classical mixtures: J = 1, D = 0
        for i, j in (("a", "b"), ("b", "c"), ("a", "c")):
            assert abs(koashi_winter_classical(psi, i, j) - 1.0) < 1e-12
            assert abs(koashi_winter_discord(psi, i, j)) < 1e-12

    def test_w_values(self):
        psi = w3()
        assert abs(koashi_winter_classical(psi, "a", "b") - (H13 - E_W_PAIR)) < 1e-10
        assert abs(koashi_winter_discord(psi, "a", "b") - E_W_PAIR) < 1e-10

    def test_requires_three_qubits(self):
        with pytest.raises(UnsupportedInputError):
            koashi_winter_classical(bell_state(), "a", "b")

    def test_party_validation(self):
        with pytest.raises(ValidationError):
            koashi_winter_classical(ghz(), "a", "a")
        with pytest.raises(ValidationError):
            koashi_winter_discord(ghz(), "a", "z")

    def test_accepts_pure_density_matrix(self):
        got = koashi_winter_classical(density_of(ghz()), "a", "b")
        assert abs(got - 1.0) < 1e-10


class TestToPure:
    def test_passthrough(self):
        psi = bell_state()
        assert to_pure(psi) is psi

    def test_recovers_amplitudes(self):
        psi = bell_state()
        back = to_pure(density_of(psi))
        assert back.labels == psi.labels
        overlap = abs(np.vdot(back.amplitudes, psi.amplitudes))
        assert abs(overlap - 1.0) < 1e-10

    def test_rejects_mixed(self):
        with pytest.raises(UnsupportedInputError):
            to_pure(werner(0.8))

    def test_mixed_message_prints_a_plain_float(self):
        # numpy 2 scalars repr as np.float64(...)
        with pytest.raises(UnsupportedInputError,
                           match=r"state is mixed \(largest eigenvalue 0\.\d+\)$"):
            to_pure(werner(0.8))


class TestMatrixSerialization:
    def test_round_trip(self):
        rho = werner(0.63)
        back = parse_matrix_json(matrix_to_json(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)
        assert back.parties == rho.parties

    def test_default_parties(self):
        blob = json.dumps(
            {"matrix": [[[0.25 if r == c else 0.0, 0.0] for c in range(4)]
                        for r in range(4)]}
        )
        assert parse_matrix_json(blob).parties == ("a", "b")

    def test_parse_error_offset(self):
        with pytest.raises(ParseError, match="byte offset"):
            parse_matrix_json('{"matrix": [[')

    def test_invariant_names_in_errors(self):
        eye = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
        with pytest.raises(ValidationError, match="trace"):
            parse_matrix_json(json.dumps({"matrix": eye}))
        skew = [[[0.25 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
        skew[0][1] = [0.3, 0.0]
        with pytest.raises(ValidationError, match="hermiticity"):
            parse_matrix_json(json.dumps({"matrix": skew}))
        neg = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        neg[0][0] = [1.5, 0.0]
        neg[1][1] = [-0.5, 0.0]
        with pytest.raises(ValidationError, match="positivity"):
            parse_matrix_json(json.dumps({"matrix": neg}))

    def test_shape_rejected(self):
        with pytest.raises(ValidationError, match="4x4"):
            parse_matrix_json(json.dumps({"matrix": [[[1.0, 0.0]]]}))

    def test_load_matrix(self, tmp_path):
        rho = werner(0.4)
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(rho))
        np.testing.assert_allclose(load_matrix(path).matrix, rho.matrix,
                                   atol=1e-15)
