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
    haar_random_pure,
    koashi_winter_classical,
    koashi_winter_discord,
    load_matrix,
    matrix_to_json,
    mutual_information,
    one_to_rest_concurrence,
    parse_matrix_json,
    partial_trace,
    random_mixed_state,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
    von_neumann_entropy,
)
from qcorr.bipartite import discord_from

H13 = math.log2(3.0) - 2.0 / 3.0
# entanglement of formation at concurrence 2/3, i.e. h((3 + sqrt 5) / 6)
E_W_PAIR = 0.5500477595827576


# repr of (value, theta, phi) of classical_correlation_directional on the
# two-party states of directional_test_state(), per measured party and grid;
# compared with ==, because every rounding of the objective can move the
# Nelder-Mead path.
DIRECTIONAL_REPR = {
    ("mixed5", "a", (60, 120)): (
        "0.28955791831643773", "0.5811568052041907", "4.584303959937537"),
    ("mixed5", "a", (17, 31)): (
        "0.28955791831643773", "2.560435840059817", "1.4427113125942563"),
    ("mixed5", "b", (60, 120)): (
        "0.3138231198230954", "1.4334209283649617", "5.663341730410348"),
    ("mixed5", "b", (17, 31)): (
        "0.3138231198230954", "1.433420944394691", "5.663341724209322"),
    ("mixed100", "b", (60, 120)): (
        "0.06098635728287605", "0.5859549536091021", "3.0010921447418872"),
    ("mixed100", "b", (17, 31)): (
        "0.06098635728287605", "0.5859549765387455", "3.001092223732972"),
    ("mixed100", "c", (60, 120)): (
        "0.06342555536524186", "1.3109681528355406", "0.4073384690804628"),
    ("mixed100", "c", (17, 31)): (
        "0.06342555536524186", "1.310968305849562", "0.40733843622656185"),
    ("pure7", "a", (60, 120)): (
        "0.21907268990608664", "0.9623414382072568", "5.226544266962508"),
    ("pure7", "a", (17, 31)): (
        "0.21907268990608653", "0.9623414476555938", "5.226544274297928"),
    ("pure7", "c", (60, 120)): (
        "0.17854146212602678", "1.4911835550208228", "6.230600302717302"),
    ("pure7", "c", (17, 31)): (
        "0.17854146212602695", "1.4911835463093381", "6.2306003099548555"),
}


# reprs of symmetrized_classical, symmetrized_discord and (value, theta, phi)
# of discord_directional measured on a and on b, for random_mixed_state(2, k);
# recorded when symmetrized_discord took the minimum of the two directional
# discords instead of subtracting the symmetrized classical correlation
SYMMETRIZED_REPR = {
    0: ('0.15630246003837966', '0.19327291943649116',
        ('0.19327291943649116', '0.6074217799989214', '1.410129165052434'),
        ('0.20575688138466863', '1.3652568984925124', '4.8352513140407485')),
    1: ('0.5485671308684616', '0.21120055277145366',
        ('0.22972425905181149', '0.8584528938716766', '1.3754261026851107'),
        ('0.21120055277145366', '1.2396264452207912', '6.092921469839732')),
    2: ('0.34337853665254564', '0.10611603090508509',
        ('0.10949272746035843', '1.2091980753010656', '0.8273109870326933'),
        ('0.10611603090508509', '1.2233850207494732', '2.785774660817699')),
    3: ('0.23249073675523907', '0.05061504320429627',
        ('0.09329859545958197', '0.8368564071850172', '2.2064998569231626'),
        ('0.05061504320429627', '1.5463446406492003', '3.648281445935509')),
    4: ('0.28240564058154843', '0.03493763936158972',
        ('0.07684967038503077', '1.0386044540058514', '3.7929508214513543'),
        ('0.03493763936158972', '0.427335783075137', '1.9456768612343116')),
    5: ('0.2682677438733948', '0.25452652263663855',
        ('0.26032044046993263', '1.4063693535733615', '0.4763138843067578'),
        ('0.25452652263663855', '0.7433704817393563', '0.8936651608868185')),
    6: ('0.23162924132684237', '0.1698270978967551',
        ('0.1708670548877798', '0.5287643823444359', '5.52028611714621'),
        ('0.1698270978967551', '1.1278734807263007', '0.03460454701272996')),
    7: ('0.4935445991025387', '0.05812632574501664',
        ('0.05812632574501664', '1.38437342028538', '6.027078782494975'),
        ('0.06341067013194174', '0.5597474910213125', '2.85894710416853')),
    8: ('0.1717073468360114', '0.09090048559278341',
        ('0.09090048559278341', '1.5589112225212394', '5.039344305669968'),
        ('0.09092561251288556', '1.484213350948738', '4.0368774660970725')),
    9: ('0.251445403943918', '0.11507626950635108',
        ('0.11507626950635108', '0.9499626883752889', '1.1015340425703224'),
        ('0.16290475109246427', '0.9797548938330182', '3.782247675585262')),
    10: ('0.3427074028284882', '0.1502865684247079',
         ('0.1502865684247079', '1.3496201325514599', '0.14443670653221746'),
         ('0.19727314216783354', '1.146383579357955', '3.3303760135989506')),
    11: ('0.6548692205925695', '0.17247980133021246',
         ('0.17247980133021246', '0.5141299021647273', '2.7807534020537688'),
         ('0.24177536736213245', '1.1263977542927832', '2.7517174252096916')),
}


def directional_test_state(name):
    if name == "pure7":
        return partial_trace(density_of(haar_random_pure(3, 7)), ["a", "c"])
    seed, keep = {"mixed5": (5, ["a", "b"]), "mixed100": (100, ["b", "c"])}[name]
    return partial_trace(random_mixed_state(3, seed), keep)


def bell_state():
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))


def ghz():
    amp = np.zeros(8, complex)
    amp[0] = amp[7] = 1.0 / math.sqrt(2.0)
    return PureState(amp)


def w3():
    amp = np.zeros(8, complex)
    amp[0b001] = amp[0b010] = amp[0b100] = 1.0 / math.sqrt(3.0)
    return PureState(amp)


def werner(p):
    bell = density_of(bell_state()).matrix
    return DensityMatrix(p * bell + (1.0 - p) * np.eye(4) / 4.0, ("a", "b"))


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

    def test_symmetrized_is_bit_identical_to_recorded_values(self):
        def triple(res):
            basis = res.optimal_basis
            return repr(res.value), repr(basis.theta), repr(basis.phi)

        for k, want in SYMMETRIZED_REPR.items():
            rho = random_mixed_state(2, k)
            got = (repr(symmetrized_classical(rho)), repr(symmetrized_discord(rho)),
                   triple(discord_directional(rho, "a")),
                   triple(discord_directional(rho, "b")))
            assert got == want, k

    def test_discord_from_floors_noise_and_rejects_failures(self):
        assert discord_from(0.5, 0.25) == 0.25
        assert discord_from(0.5, 0.5 + 1e-7) == 0.0
        with pytest.raises(InternalInvariantError, match="below -1e-6"):
            discord_from(0.5, 0.5 + 1e-5)

    def test_negative_value_rejected(self):
        from qcorr.bipartite import DirectionalResult

        with pytest.raises(InternalInvariantError):
            DirectionalResult(-1e-3, MeasurementBasis(0.0, 0.0), "optimizer")

    def test_search_is_bit_identical_to_recorded_values(self):
        for (name, party, grid), want in DIRECTIONAL_REPR.items():
            res = classical_correlation_directional(
                directional_test_state(name), party, grid=grid)
            basis = res.optimal_basis
            got = (repr(res.value), repr(basis.theta), repr(basis.phi))
            assert got == want, (name, party, grid)


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
