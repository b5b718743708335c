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
        "0.28955791831643796", "0.5811568014551227", "4.584303958012634"),
    ("mixed5", "a", (17, 31)): (
        "0.28955791831643796", "2.5604358466195167", "1.4427113041953388"),
    ("mixed5", "b", (60, 120)): (
        "0.3138231198230954", "1.4334209195209098", "5.663341686495459"),
    ("mixed5", "b", (17, 31)): (
        "0.3138231198230952", "1.4334208969243087", "5.663341731994263"),
    ("mixed100", "b", (60, 120)): (
        "0.060986357282875825", "0.5859550135928417", "3.0010922499617654"),
    ("mixed100", "b", (17, 31)): (
        "0.060986357282875825", "0.5859549737554309", "3.001092059303165"),
    ("mixed100", "c", (60, 120)): (
        "0.06342555536524175", "1.3109681394895807", "0.407338439196531"),
    ("mixed100", "c", (17, 31)): (
        "0.06342555536524164", "1.3109680770275882", "0.4073384347825816"),
    ("pure7", "a", (60, 120)): (
        "0.21907268990608675", "0.9623414262188692", "5.226544320360343"),
    ("pure7", "a", (17, 31)): (
        "0.21907268990608683", "0.9623414869286331", "5.2265442377493585"),
    ("pure7", "c", (60, 120)): (
        "0.17854146212602692", "1.4911836077021756", "6.230600332908976"),
    ("pure7", "c", (17, 31)): (
        "0.17854146212602695", "1.49118351937777", "6.230600313266227"),
}


# reprs of symmetrized_classical, symmetrized_discord and (value, theta, phi)
# of discord_directional measured on a and on b, for random_mixed_state(2, k);
# recorded when symmetrized_discord took the minimum of the two directional
# discords instead of subtracting the symmetrized classical correlation
SYMMETRIZED_REPR = {
    0: ('0.15630246003837978', '0.19327291943649105',
        ('0.19327291943649105', '0.6074217748963613', '1.4101291625763106'),
        ('0.20575688138466863', '1.3652568961730336', '4.835251304063334')),
    1: ('0.5485671308684615', '0.21120055277145378',
        ('0.22972425905181182', '0.8584528902761137', '1.3754261152895144'),
        ('0.21120055277145378', '1.2396264760161562', '6.092921449230069')),
    2: ('0.3433785366525455', '0.10611603090508526',
        ('0.10949272746035843', '1.2091981005930341', '0.8273110001003399'),
        ('0.10611603090508526', '1.2233850288283543', '2.7857746742493084')),
    3: ('0.2324907367552388', '0.05061504320429655',
        ('0.09329859545958197', '0.8368563957926385', '2.206499866479055'),
        ('0.05061504320429655', '1.5463446106549625', '3.6482814681372293')),
    4: ('0.28240564058154827', '0.03493763936158989',
        ('0.07684967038503077', '1.0386044468899696', '3.7929508182832405'),
        ('0.03493763936158989', '0.4273357663821696', '1.945676847191741')),
    5: ('0.26826774387339447', '0.2545265226366389',
        ('0.2603204404699325', '1.4063693745398405', '0.47631389370010485'),
        ('0.2545265226366389', '0.7433704783324543', '0.893665182506236')),
    6: ('0.23162924132684226', '0.1698270978967552',
        ('0.17086705488777976', '0.528764388939845', '5.520286131159595'),
        ('0.1698270978967552', '1.1278734733825675', '0.034604549449048005')),
    7: ('0.4935445991025391', '0.058126325745016194',
        ('0.058126325745016194', '1.3843734238050884', '6.027078776523717'),
        ('0.0634106701319418', '0.5597474894885757', '2.8589471172768643')),
    8: ('0.1717073468360113', '0.09090048559278352',
        ('0.09090048559278352', '1.5589112225212394', '5.039344305669967'),
        ('0.09092561251288567', '1.4842133509501099', '4.03687746596751')),
    9: ('0.2514454039439178', '0.1150762695063513',
        ('0.1150762695063513', '0.9499626645650563', '1.1015340357027814'),
        ('0.16290475109246427', '0.979754875951919', '3.782247694414759')),
    10: ('0.34270740282848816', '0.15028656842470794',
         ('0.15028656842470794', '1.3496201298072563', '0.14443671790984275'),
         ('0.19727314216783387', '1.1463836313022586', '3.3303760142416774')),
    11: ('0.654869220592569', '0.1724798013302129',
         ('0.1724798013302129', '0.5141298961503868', '2.7807533820160426'),
         ('0.24177536736213256', '1.1263977488424208', '2.7517174319856688')),
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
