import itertools
import json
import math
import types

import numpy as np
import pytest

from qcorr import (
    AcinForm,
    CorrelationReport,
    DensityMatrix,
    InternalInvariantError,
    MeasurementBasis,
    PartyOrdering,
    PureState,
    UnsupportedInputError,
    ValidationError,
    acin_state,
    binary_entropy,
    canonical_ordering,
    correlation_report,
    density_of,
    double_conditional_entropy,
    family_ghz_tilde,
    family_w_tilde,
    find_discord_crossover,
    genuine_classical,
    genuine_discord,
    genuine_qc_n,
    genuine_total,
    genuine_total_n,
    genuine_total_via_relative_entropy,
    ghz_state,
    haar_random_pure,
    koashi_winter_classical,
    koashi_winter_discord,
    min_double_conditional_entropy,
    partial_trace,
    random_mixed_state,
    sweep_families,
    three_tangle,
    total_classical_mixed,
    total_discord_pure,
    total_information,
    w_state,
)
from qcorr import bipartite, tripartite
from qcorr.tripartite import CUT_PRODUCT_TOL, SWEEP_MAX_POINTS, sweep_grid
from qcorr.verify import _haar_local_unitary
from test_pins import bell_with_spectator

H13 = math.log2(3.0) - 2.0 / 3.0
E_W_PAIR = 0.5500477595827576


# Known misses of the two-angle search: (seed, kept, lower, angles). lower is
# double_conditional_entropy of random_mixed_state(3, seed) at the angles
# (theta_u, phi_u, theta_v, phi_v), which single-start Nelder-Mead from
# coarser grids found (80a, 103c and 148c: the best of 60 Nelder-Mead runs
# from the 60 least cells of the default grid); the default search stops above
# it. Stored as data, not recomputed by the default search, so that they stay
# an independent yardstick.
TWO_ANGLE_MISSES = (
    (17, "a", 0.5321327900521384,
     (1.504898436898, 0.386455706046, 1.294986272691, 6.180828739283)),
    (32, "a", 0.5326740193127478,
     (0.962148789899, 1.804400323894, 0.027660615238, 1.923873486954)),
    (80, "a", 0.40523875746813953,
     (1.367298080647, 2.660526276104, 0.24245802847, 6.086043975982)),
    (103, "c", 0.37649132970033594,
     (0.011210462455, 4.682666005436, 1.508971459755, 1.897277872808)),
    (120, "a", 0.11547638077390666,
     (0.539598327592, 5.44091774845, 0.90488407713, 4.103906689709)),
    (148, "c", 0.2893914521610985,
     (1.335947065779, 5.369747167815, 0.784974776962, 5.284295882791)),
    (201, "c", 0.21946781129128284,
     (0.77511026521, 3.708215868389, 1.128460444514, 5.982886410536)),
    (212, "a", 0.11636844510106129,
     (0.892555285451, 4.520421963356, 1.204958267178, 4.966713388475)),
)
MISS_IDS = [f"{seed}{kept}" for seed, kept, _, _ in TWO_ANGLE_MISSES]


def spectator_with_leak(eps):
    # bell_with_spectator() plus eps |100>, normalized: every cut is entangled,
    # but the a|bc cut only to order eps^2
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = amp[0b010] = 1.0 / math.sqrt(2.0)
    amp[0b100] = eps
    return PureState(amp / np.linalg.norm(amp))


def classical_ghz_mixture():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5
    return DensityMatrix(m, ("a", "b", "c"))


class TestCanonicalOrdering:
    def test_symmetric_state_keeps_identity(self):
        assert canonical_ordering(density_of(ghz_state())).permutation == (
            "a", "b", "c")

    def test_spectator_moves_last(self):
        order = canonical_ordering(density_of(bell_with_spectator()))
        assert order.permutation == ("b", "c", "a")
        i_bc, i_ba, i_ca = order.sorted_mutual_infos
        assert abs(i_bc - 2.0) < 1e-10
        assert abs(i_ba) < 1e-10
        assert abs(i_ca) < 1e-10

    def test_mutual_infos_descending(self):
        for seed in range(6):
            order = canonical_ordering(density_of(haar_random_pure(3, seed)))
            m = order.sorted_mutual_infos
            assert m[0] >= m[1] - 1e-10 >= m[2] - 2e-10

    def test_ordering_invariant_enforced(self):
        with pytest.raises(InternalInvariantError):
            PartyOrdering(("a", "b", "c"), (0.1, 0.5, 0.2))


class TestNamedStates:
    def test_ghz_amplitudes(self):
        psi = ghz_state()
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(psi.amplitudes[7] - 1 / math.sqrt(2)) < 1e-15
        assert abs(np.abs(psi.amplitudes[1:7]).max()) == 0.0

    def test_ghz_qubit_range(self):
        assert ghz_state(2).n_qubits == 2
        assert ghz_state(6).n_qubits == 6
        with pytest.raises(ValidationError):
            ghz_state(1)
        with pytest.raises(ValidationError):
            ghz_state(7)

    def test_w_amplitudes(self):
        psi = w_state()
        hot = [0b001, 0b010, 0b100]
        for idx in hot:
            assert abs(psi.amplitudes[idx] - 1 / math.sqrt(3)) < 1e-15

    def test_acin_amplitudes(self):
        form = AcinForm(0.5, 0.5, 0.5, 0.3, 0.4, theta=1.0)
        psi = acin_state(form)
        assert abs(psi.amplitudes[0b000] - 0.5) < 1e-15
        expect_phase = 0.5 * complex(math.cos(1.0), math.sin(1.0))
        assert abs(psi.amplitudes[0b100] - expect_phase) < 1e-15
        assert abs(psi.amplitudes[0b101] - 0.5) < 1e-15
        assert abs(psi.amplitudes[0b110] - 0.3) < 1e-15
        assert abs(psi.amplitudes[0b111] - 0.4) < 1e-15

    def test_acin_validation(self):
        with pytest.raises(ValidationError):
            AcinForm(-0.5, 0.5, 0.5, 0.3, 0.4)
        with pytest.raises(ValidationError):
            AcinForm(0.9, 0.5, 0.5, 0.3, 0.4)
        with pytest.raises(ValidationError):
            AcinForm(0.5, 0.5, 0.5, 0.3, 0.4, theta=7.0)

    def test_acin_rejects_nan(self):
        with pytest.raises(ValidationError, match=r"lambda0 nan outside \[0, inf\]"):
            AcinForm(math.nan, 0.1, 0.1, 0.1, 0.69)

    def test_family_endpoints(self):
        np.testing.assert_allclose(family_ghz_tilde(1.0).amplitudes,
                                   ghz_state().amplitudes, atol=1e-15)
        np.testing.assert_allclose(family_w_tilde(1.0).amplitudes,
                                   w_state().amplitudes, atol=1e-15)
        assert abs(family_ghz_tilde(0.0).amplitudes[0b100] - 1.0) < 1e-15
        assert abs(family_w_tilde(0.0).amplitudes[0b000] - 1.0) < 1e-15

    def test_family_p_validation(self):
        with pytest.raises(ValidationError):
            family_ghz_tilde(1.2)
        with pytest.raises(ValidationError):
            family_w_tilde(-0.1)

    def test_family_rejects_nan(self):
        for build in (family_ghz_tilde, family_w_tilde):
            with pytest.raises(ValidationError, match=r"p nan outside \[0, 1\]"):
                build(math.nan)


class TestClosedFormReports:
    def test_ghz_report(self):
        rep = correlation_report(ghz_state())
        expect = {"T": 3.0, "J": 2.0, "D": 1.0, "T2": 1.0, "T3": 2.0,
                  "J2": 1.0, "J3": 1.0, "D2": 0.0, "D3": 1.0, "tangle": 1.0}
        for key, val in expect.items():
            assert abs(getattr(rep, key) - val) < 1e-9, key
        assert rep.pure
        assert rep.method == "closed-form"

    def test_w_report(self):
        rep = correlation_report(w_state())
        expect = {
            "T": 3.0 * H13,
            "J": 2.0 * H13 - E_W_PAIR,
            "D": H13 + E_W_PAIR,
            "T2": H13,
            "T3": 2.0 * H13,
            "J2": H13 - E_W_PAIR,
            "J3": H13,
            "D2": E_W_PAIR,
            "D3": H13,
            "tangle": 0.0,
        }
        for key, val in expect.items():
            assert abs(getattr(rep, key) - val) < 1e-9, key

    def test_spectator_report_uses_degenerate_branch(self):
        # one party in a product with a Bell pair: the ordered discord split
        # is replaced by the definitional minimum, which vanishes
        rep = correlation_report(bell_with_spectator())
        expect = {"T": 2.0, "J": 1.0, "D": 1.0, "T2": 2.0, "T3": 0.0,
                  "J2": 1.0, "J3": 0.0, "D2": 0.0, "D3": 1.0, "tangle": 0.0}
        for key, val in expect.items():
            assert abs(getattr(rep, key) - val) < 1e-9, key

    def test_spectator_mutual_informations_are_floored_at_zero(self):
        # taken through the density matrix and its dominant eigenvector, as
        # the report does, the two vanishing pairwise and the vanishing cut
        # mutual informations round to about -3.3e-16
        rho = density_of(bell_with_spectator())
        raw = tripartite._entropies_and_pairs(density_of(tripartite.to_pure(rho)))[2]
        assert min(raw.values()) < 0.0
        rep = correlation_report(rho)
        assert rep.ordering.permutation == ("b", "c", "a")
        assert rep.pairwise_mutual == rep.ordering.sorted_mutual_infos
        assert rep.pairwise_mutual[1:] == (0.0, 0.0)
        assert rep.cut_mutual[0] == 0.0
        assert min(rep.pairwise_mutual + rep.cut_mutual) >= 0.0
        assert rep.D2 == 0.0  # the degenerate branch, as on unfloored cuts

    def test_product_cut_switch_jumps_by_one_bit(self):
        # CUT_PRODUCT_TOL = 1e-6 on the smallest cut mutual information picks
        # the D2 formula, so D2 and D3 trade a full bit between eps = 1e-4
        # (degenerate branch) and eps = 5e-4 (ordered form). The jump is a
        # known property of the spec, pinned here by size, not endorsed.
        below = correlation_report(spectator_with_leak(1e-4))
        above = correlation_report(spectator_with_leak(5e-4))
        assert min(below.cut_mutual) < CUT_PRODUCT_TOL < min(above.cut_mutual)
        assert abs(min(below.cut_mutual) - 5.6e-7) < 1e-8
        assert abs(min(above.cut_mutual) - 1.17e-5) < 1e-7
        assert abs(below.D2 - 1.45e-7) < 1e-9 and abs(below.D3 - 1.0) < 1e-9
        assert abs(above.D2 - 0.999997) < 1e-6 and abs(above.D3 - 5.84e-6) < 1e-8
        assert (above.D2 - below.D2) > 0.99 and (below.D3 - above.D3) > 0.99
        # J3 = D3 holds on the ordered branch only
        assert abs(above.J3 - above.D3) < 1e-12
        assert abs(below.J3 - 2.8e-7) < 1e-8
        for rep in (below, above):
            assert abs(rep.D2 + rep.D3 - rep.D) < 1e-12

    def test_pure_mixed_cutoff_jumps_d2_and_d3(self):
        # to_pure's cutoff, largest eigenvalue above 1 - 1e-8, picks the
        # path. The closed form's D2 is the ordered D_{b:a}; the optimizer
        # takes the least of the six directional discords. So D2 and D3 trade
        # 0.35 bits across the cutoff, and every other field moves by the
        # noise alone. A known property of the code, pinned here by size,
        # not endorsed (README "Known jump at the pure/mixed cutoff").
        psi = haar_random_pure(3, 1)
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        # the largest eigenvalue is 1 - 7 eps / 8: 1 - 0.5e-8, then 1 - 2e-8
        pure, mixed = (correlation_report(DensityMatrix(
            (1.0 - eps) * proj + eps * np.eye(8) / 8.0))
            for eps in (8.0 / 7.0 * 0.5e-8, 8.0 / 7.0 * 2e-8))
        assert (pure.method, mixed.method) == ("closed-form", "optimizer")
        assert abs(pure.D2 - 0.6042813) < 1e-7 and abs(pure.D3 - 0.5928897) < 1e-7
        assert abs(mixed.D2 - 0.2545689) < 1e-7 and abs(mixed.D3 - 0.9426018) < 1e-7
        least = min(koashi_winter_discord(psi, i, j)
                    for i, j in itertools.permutations(psi.labels, 2))
        assert abs(least - 0.2545691) < 1e-7
        assert abs(mixed.D2 - least) < 1e-6
        for name in ("T", "J", "D", "T2", "T3", "J2", "J3"):
            assert abs(getattr(pure, name) - getattr(mixed, name)) < 6e-7, name
        for field in ("pairwise_mutual", "cut_mutual"):
            assert np.allclose(getattr(pure, field), getattr(mixed, field),
                               rtol=0.0, atol=6e-7), field

    def test_printed_shares_are_exact_differences(self):
        # T3, J3 and D3 are the floored differences of the printed fields, to
        # the bit, on both input routes and on both D2 branches
        states = [haar_random_pure(3, seed) for seed in range(50)]
        states += [ghz_state(), w_state(), bell_with_spectator(),
                   spectator_with_leak(1e-4), spectator_with_leak(5e-4)]
        states += [build(p) for build in (family_ghz_tilde, family_w_tilde)
                   for p in (0.0, 1.0)]
        for psi in states:
            for state in (psi, density_of(psi)):
                rep = correlation_report(state)
                assert rep.T3 == max(0.0, rep.T - rep.T2)
                assert rep.J3 == max(0.0, rep.J - rep.J2)
                assert rep.D3 == max(0.0, rep.D - rep.D2)

    def test_report_matches_individual_closed_forms(self):
        # total_discord_pure reads the report, so D agrees bit for bit;
        # genuine_* is S(rho_c): it equals J3 and D3 up to rounding on the
        # ordered D2 branch, and D3 is a different quantity on the degenerate one
        states = [haar_random_pure(3, seed) for seed in range(20)]
        states += [ghz_state(), w_state(), PureState(np.eye(8)[0]),
                   bell_with_spectator(), spectator_with_leak(5e-4)]
        for psi in states:
            rep = correlation_report(psi)
            assert abs(rep.T - total_information(density_of(psi))) < 1e-12
            assert rep.D == total_discord_pure(psi)
            assert abs(rep.tangle - three_tangle(psi)) < 1e-12
            if min(rep.cut_mutual) > CUT_PRODUCT_TOL:
                assert abs(rep.J3 - genuine_classical(psi)) < 1e-9
                assert abs(rep.D3 - genuine_discord(psi)) < 1e-9

    def test_genuine_classical_equals_discord(self):
        for seed in range(4):
            psi = haar_random_pure(3, seed)
            assert genuine_classical(psi) == genuine_discord(psi)

    def test_decomposition_identities(self):
        for seed in range(6):
            rep = correlation_report(haar_random_pure(3, seed + 50))
            assert abs(rep.T - (rep.J + rep.D)) < 1e-9
            assert abs(rep.T - (rep.T2 + rep.T3)) < 1e-9
            assert abs(rep.J - (rep.J2 + rep.J3)) < 1e-9
            assert abs(rep.D - (rep.D2 + rep.D3)) < 1e-9

    def test_to_dict_is_json_ready(self):
        blob = json.dumps(correlation_report(ghz_state()).to_dict())
        data = json.loads(blob)
        assert data["method"] == "closed-form"
        assert data["ordering"]["permutation"] == ["a", "b", "c"]

    def test_report_invariant_enforced(self):
        order = PartyOrdering(("a", "b", "c"), (1.0, 0.5, 0.2))
        with pytest.raises(InternalInvariantError):
            CorrelationReport(
                T=3.0, J=2.0, D=1.0, T2=1.0, T3=1.0, J2=1.0, J3=1.0,
                D2=0.0, D3=1.0, tangle=1.0, pairwise_mutual=(1.0, 0.5, 0.2),
                cut_mutual=(1.0, 1.0, 1.0), ordering=order, pure=True,
                method="closed-form",
            )


class TestGenuineTotal:
    def test_matches_relative_entropy_route(self):
        for seed in range(5):
            rho = density_of(haar_random_pure(3, seed + 100))
            direct = genuine_total(rho)
            via_rel = genuine_total_via_relative_entropy(rho)
            assert abs(direct - via_rel) < 1e-9

    def test_ghz_value(self):
        assert abs(genuine_total(density_of(ghz_state())) - 2.0) < 1e-12

    def test_mixed_input_accepted(self):
        assert abs(genuine_total(classical_ghz_mixture()) - 1.0) < 1e-12


class TestThreeTangle:
    def test_ghz_is_one(self):
        assert abs(three_tangle(ghz_state()) - 1.0) < 1e-9

    def test_w_is_zero(self):
        assert three_tangle(w_state()) < 1e-9

    def test_acin_identity(self):
        # tau = 4 lambda0^2 lambda4^2, independent of the phase
        l0, l1, l2, l3 = 0.6, 0.2, 0.3, 0.2
        l4 = math.sqrt(1.0 - (l0**2 + l1**2 + l2**2 + l3**2))
        for theta in (0.0, 1.0, 4.5):
            form = AcinForm(l0, l1, l2, l3, l4, theta=theta)
            tau = three_tangle(acin_state(form))
            assert abs(tau - 4.0 * l0**2 * l4**2) < 1e-9

    def test_ghz_tilde_is_p_squared(self):
        for p in (0.0, 0.3, 0.77, 1.0):
            assert abs(three_tangle(family_ghz_tilde(p)) - p * p) < 1e-9

    def test_requires_pure(self):
        with pytest.raises(UnsupportedInputError):
            three_tangle(classical_ghz_mixture())


class TestMixedReports:
    def test_classical_mixture_report(self):
        rep = correlation_report(classical_ghz_mixture())
        assert rep.method == "optimizer"
        assert not rep.pure
        assert rep.tangle is None
        assert abs(rep.T - 2.0) < 1e-9
        assert abs(rep.J - 2.0) < 1e-6
        assert abs(rep.D) < 1e-6
        assert abs(rep.T2 - 1.0) < 1e-9
        assert abs(rep.J2 - 1.0) < 1e-6
        assert abs(rep.D2) < 1e-6

    def test_optimizer_matches_closed_form_on_pure_input(self):
        psi = w_state()
        closed = correlation_report(psi).J
        optimized = total_classical_mixed(density_of(psi))
        # projective optimum realizes the POVM closed form on these states
        assert abs(optimized - closed) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_locally_rotated_classical_state_is_all_classical(self, seed):
        # (U_a U_b U_c) diag(p) (U_a U_b U_c)^dagger: measuring each party in
        # its rotated basis loses nothing, so J = T, J2 = T2 and D = D2 = 0
        rng = np.random.default_rng(seed)
        p = rng.random(8)
        u = np.kron(np.kron(_haar_local_unitary(rng), _haar_local_unitary(rng)),
                    _haar_local_unitary(rng))
        rep = correlation_report(DensityMatrix(u @ np.diag(p / p.sum())
                                               @ u.conj().T))
        assert rep.method == "optimizer"
        assert abs(rep.J - rep.T) <= 1e-9
        assert abs(rep.D) <= 1e-9
        assert abs(rep.D2) <= 1e-9
        assert abs(rep.J2 - rep.T2) <= 1e-9


class TestDoubleConditional:
    def test_ghz_z_measurements_leave_pure_outcomes(self):
        rho = density_of(ghz_state())
        z = MeasurementBasis(0.0, 0.0)
        assert abs(double_conditional_entropy(rho, "c", (z, z))) < 1e-12

    def test_product_third_party_is_unaffected(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        rho_c = np.diag([0.75, 0.25])
        m = np.kron(np.outer(bell, bell), rho_c).astype(complex)
        rho = DensityMatrix(m, ("a", "b", "c"))
        expect = binary_entropy(0.25)
        for angles in ((0.0, 0.0, 0.0, 0.0), (1.2, 0.4, 2.0, 5.1)):
            bases = (MeasurementBasis(angles[0], angles[1]),
                     MeasurementBasis(angles[2], angles[3]))
            got = double_conditional_entropy(rho, "c", bases)
            assert abs(got - expect) < 1e-10
        assert abs(min_double_conditional_entropy(rho, "c") - expect) < 1e-9

    def test_min_on_classical_mixture_is_zero(self):
        assert min_double_conditional_entropy(
            classical_ghz_mixture(), "c") < 1e-10

    def test_min_on_pure_state_is_zero(self):
        rho = density_of(haar_random_pure(3, 33))
        assert min_double_conditional_entropy(rho, "a") < 1e-6

    def test_unknown_party(self):
        with pytest.raises(ValidationError):
            min_double_conditional_entropy(classical_ghz_mixture(), "z")

    @pytest.mark.parametrize("bases", [
        [MeasurementBasis(0.0, 0.0)],
        (MeasurementBasis(0.0, 0.0),) * 3,
        (MeasurementBasis(0.0, 0.0), (0.0, 0.0)),
        "uv",
    ])
    def test_bases_must_be_two_measurement_bases(self, bases):
        with pytest.raises(ValidationError, match="bases .* must be two MeasurementBasis"):
            double_conditional_entropy(classical_ghz_mixture(), "c", bases)

    def test_mirrored_basis_swaps_outcomes_only(self):
        # (theta, phi) and (pi - theta, phi + pi) are the same measurement
        # with its outcomes swapped, which is why half the grid suffices
        rho = random_mixed_state(3, 5)
        angles = [(0.3, 0.0), (1.1, 2.5), (2.0, 4.0), (math.pi / 2, 5.5)]
        fixed = MeasurementBasis(0.8, 1.9)
        for k in rho.parties:
            for theta, phi in angles:
                basis = MeasurementBasis(theta, phi)
                mirror = MeasurementBasis(math.pi - theta,
                                          (phi + math.pi) % (2 * math.pi))
                for pair, mirrored in (((basis, fixed), (mirror, fixed)),
                                       ((fixed, basis), (fixed, mirror))):
                    got = double_conditional_entropy(rho, k, pair)
                    want = double_conditional_entropy(rho, k, mirrored)
                    assert abs(got - want) < 1e-12

    def test_known_misses_hold_their_lower_values(self):
        for seed, kept, lower, x in TWO_ANGLE_MISSES:
            bases = (MeasurementBasis(x[0], x[1]), MeasurementBasis(x[2], x[3]))
            got = double_conditional_entropy(random_mixed_state(3, seed), kept, bases)
            assert abs(got - lower) < 1e-12, (seed, kept)

    @pytest.mark.xfail(strict=True, reason="the search stops in a local minimum "
                       "above the recorded value (ROADMAP items 2 and 3)")
    @pytest.mark.parametrize("seed, kept, lower, angles", TWO_ANGLE_MISSES,
                             ids=MISS_IDS)
    def test_search_reaches_known_lower_value(self, seed, kept, lower, angles):
        got = min_double_conditional_entropy(random_mixed_state(3, seed), kept)
        assert got <= lower + 1e-9


def _entropy_bits(m):
    """Von Neumann entropy in bits from numpy's eigenvalues alone."""
    w = np.linalg.eigvalsh(m)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def rotated_ccq_state(seed):
    """(rho, two-angle minimum with c kept, one-angle minimum measuring a on (a, c)).

    rho = (U_a U_b U_c) [sum_xy p_xy |x><x| |y><y| rho_c^xy] (U_a U_b U_c)^dagger,
    a locally rotated classical-classical-quantum state: p flat-Dirichlet
    over (x, y), each rho_c^xy of rank 1 or 2 and each U Haar. Any product
    measurement of a and b leaves c in a mixture of the rho_c^xy, so by the
    concavity of entropy the two-angle minimum is sum_xy p_xy S(rho_c^xy),
    reached in the rotated computational bases. Measuring a alone on (a, c)
    leaves mixtures of sigma_x = sum_y p_xy rho_c^xy / p_x, so that minimum
    is sum_x p_x S(sigma_x). Both come from p and rho_c^xy, not from qcorr.
    """
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4)).reshape(2, 2)
    rho_c = {}
    for xy in itertools.product(range(2), repeat=2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g[:, 1] *= rng.integers(2)  # rank 1 or 2
        rho_c[xy] = g @ g.conj().T / np.vdot(g, g).real
    basis = np.eye(2)
    m = sum(p[x, y] * np.kron(np.kron(np.outer(basis[x], basis[x]),
                                      np.outer(basis[y], basis[y])), rho_c[x, y])
            for x, y in rho_c)
    u = np.kron(np.kron(_haar_local_unitary(rng), _haar_local_unitary(rng)),
                _haar_local_unitary(rng))
    two_angle = sum(p[xy] * _entropy_bits(r) for xy, r in rho_c.items())
    one_angle = sum(p[x].sum() * _entropy_bits((p[x, 0] * rho_c[x, 0]
                                                 + p[x, 1] * rho_c[x, 1]) / p[x].sum())
                    for x in range(2))
    return DensityMatrix(u @ m @ u.conj().T), float(two_angle), float(one_angle)


# seeds of rotated_ccq_state, with their exact two-angle minima, where the
# search stops above that minimum by more than 1e-9: all such seeds in 0-999
# (by 5.2e-6, 2.7e-5 and 2.7e-4), none of them in the range tested below
CCQ_MISSES = ((443, -7.759340779387372e-17), (472, 0.4013026576493536),
              (864, 0.4130110937292715))


class TestRotatedCCQStates:
    """The searches against the exact minima of rotated_ccq_state.

    Tolerances: a search may end at most 1e-12 below the exact minimum
    (rounding) and at most 1e-9 above it; a full report has |T - J|,
    |T2 - J2|, D, D2 and D3 at most 1e-9. Seeds are consecutive from 0.
    """

    @pytest.mark.parametrize("seed", [*range(60), *(
        pytest.param(seed, marks=pytest.mark.xfail(
            strict=True, reason="the search stops in a local minimum above the "
            "exact one (ROADMAP items 2 and 3)")) for seed, _ in CCQ_MISSES)])
    def test_two_angle_search_reaches_exact_minimum(self, seed):
        rho, exact, _ = rotated_ccq_state(seed)
        got = min_double_conditional_entropy(rho, "c")
        assert exact - 1e-12 <= got <= exact + 1e-9, got - exact

    def test_misses_hold_their_exact_minima(self):
        for seed, exact in CCQ_MISSES:
            assert abs(rotated_ccq_state(seed)[1] - exact) < 1e-12, seed

    def test_one_angle_search_reaches_exact_minimum(self):
        gaps = {}
        for seed in range(60):
            rho, _, exact = rotated_ccq_state(seed)
            got = bipartite._min_conditional_entropy(partial_trace(rho, ["a", "c"]), 0)[0]
            gaps[seed] = got - exact
        assert {k: g for k, g in gaps.items() if not -1e-12 <= g <= 1e-9} == {}

    @pytest.mark.parametrize("seed", range(8))
    def test_report_has_no_discord(self, seed):
        # measuring a, then b, loses nothing, so J = T and D = 0; measuring a
        # or b loses nothing on any pair, so J2 = T2, D2 = 0 and D3 = D - D2 = 0
        rep = correlation_report(rotated_ccq_state(seed)[0])
        assert rep.method == "optimizer"
        assert max(abs(rep.T - rep.J), abs(rep.T2 - rep.J2)) <= 1e-9
        assert max(rep.D, rep.D2, rep.D3) <= 1e-9


def _haar_column(rng):
    """The first column of a Haar 4 x 4 unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return (q * (d / np.abs(d)))[:, 0]


def classical_flag_state(seed):
    """(rho, S_b + S_c, sum_x p_x E_x) of a locally rotated classical flag.

    rho = (U_a U_b U_c) [sum_x p_x |x><x| |psi_x><psi_x|] (U_a U_b U_c)^dagger,
    with p flat-Dirichlet, psi_x a Haar pure state of (b, c) with entanglement
    entropy E_x, and each U Haar. S_a = S_abc = H(p), so T = S_b + S_c. With one
    shared measurement per party, D = sum_x p_x E_x and J = T - D (ROADMAP item
    16). Measuring a along the flag leaves (b, c) pure, so the two-angle minima
    with b or c kept are 0, and so is D2. Both values come from p and psi_x, not
    from qcorr.
    """
    rng = np.random.default_rng(seed)
    p = rng.dirichlet([1, 1])
    psi = [_haar_column(rng), _haar_column(rng)]
    flag = np.eye(2)
    m = sum(p[x] * np.kron(np.outer(flag[x], flag[x]), np.outer(psi[x], psi[x].conj()))
            for x in range(2))
    u = np.kron(np.kron(_haar_local_unitary(rng), _haar_local_unitary(rng)),
                _haar_local_unitary(rng))
    bc = sum(p[x] * np.outer(psi[x], psi[x].conj()) for x in range(2)).reshape(2, 2, 2, 2)
    s_bc = _entropy_bits(np.einsum("ijkj->ik", bc)) + _entropy_bits(np.einsum("ijik->jk", bc))
    e = [_entropy_bits(v.reshape(2, 2) @ v.reshape(2, 2).conj().T) for v in psi]
    return DensityMatrix(u @ m @ u.conj().T), s_bc, float(p[0] * e[0] + p[1] * e[1])


class TestClassicalFlagStates:
    """The searches and the report against the exact values of classical_flag_state.

    Tolerances, fixed beforehand: the two-angle minima with b or c kept and D2
    at most 1e-12, |T - (S_b + S_c)| at most 1e-12, and J at least the
    one-shared-measurement J minus 1e-12. J is not asserted equal to it: the
    one- and two-angle searches of J pick their measurements of a party apart,
    which can only raise J (ROADMAP item 10).
    """

    @pytest.mark.parametrize("seed", range(30))
    def test_report_meets_exact_values(self, seed):
        rho, total, discord = classical_flag_state(seed)
        assert max(min_double_conditional_entropy(rho, k) for k in "bc") <= 1e-12
        rep = correlation_report(rho)
        assert rep.D2 <= 1e-12
        assert abs(rep.T - total) <= 1e-12
        assert rep.J >= total - discord - 1e-12

    # lower two-angle minima with a kept, confirmed with projectors applied to
    # the density matrix; the search stops at 0.01701587 and 0.00459177
    @pytest.mark.xfail(strict=True, reason="the search stops in a local minimum "
                       "above the confirmed one (ROADMAP items 3 and 16)")
    @pytest.mark.parametrize("seed, lower", [(34, 0.01543357), (53, 0.00268314)])
    def test_search_with_a_kept_reaches_confirmed_lower_value(self, seed, lower):
        got = min_double_conditional_entropy(classical_flag_state(seed)[0], "a")
        assert abs(got - lower) <= 1e-8


def near_pure_mixtures():
    """(state, kept party): nearly pure and degenerate mixtures.

    Their grids hold outcome states close to pure, where the float32 error of
    (1 - lam) log2(1 - lam) is largest, and flat or degenerate minima.
    """
    ghz, w = density_of(ghz_state()).matrix, density_of(w_state()).matrix
    haar = density_of(haar_random_pure(3, 7)).matrix
    zero = np.zeros((8, 8), dtype=complex)
    zero[0, 0] = 1.0
    mixed = np.eye(8) / 8.0
    pairs = [(ghz, w), (w, ghz), (haar, ghz), (zero, ghz), (w, mixed)]
    return [(DensityMatrix((1 - eps) * a + eps * b, ("a", "b", "c")), "abc"[i % 3])
            for i, (eps, (a, b)) in enumerate(itertools.product((1e-2, 1e-5, 1e-8), pairs))]


@pytest.fixture
def starts(monkeypatch):
    """x0 of every two-angle search in the test, whose Nelder-Mead never improves.

    So each search returns the value of its start cell.
    """
    recorded = []

    def start_only(objective, x0):
        recorded.append(x0)
        return types.SimpleNamespace(fun=math.inf)

    monkeypatch.setattr(tripartite, "_nelder_mead", start_only)
    return recorded


class _DtypeGuard(np.ndarray):
    """ndarray whose ufuncs fail on a float operand of another dtype.

    A Python float fails too: each constant must carry the pass's dtype, or
    numpy 1.x value-based casting and NEP 50 could promote differently.
    """

    expected = None
    checked = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        for x in inputs + out:
            assert type(x) is not float, f"untyped constant in {ufunc.__name__}"
            kind = getattr(x, "dtype", np.dtype(bool)).kind
            assert kind != "f" or x.dtype == _DtypeGuard.expected, (ufunc.__name__, x.dtype)
        _DtypeGuard.checked += 1
        plain = [x.view(np.ndarray) if isinstance(x, _DtypeGuard) else x for x in inputs]
        if out:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return (out[0] if len(out) == 1 else out) if out else result


class TestGridScreen:
    """The float32 screen of the two-angle grid moves no search start."""

    TH, PH, ROWS = tripartite._hemisphere(30, 30)
    ALL = np.arange(len(TH))

    def dense_start(self, dense):
        """(x0, value) of the first cell within TIE_TOL of a full grid's minimum."""
        i, j = divmod(int(np.flatnonzero(dense <= dense.min() + bipartite.TIE_TOL)[0]),
                      dense.shape[1])
        return [self.TH[i], self.PH[i], self.TH[j], self.PH[j]], dense[i, j]

    def check_screen(self, rho, kept, starts):
        r = tripartite._measured_tensor(rho, kept, "test")
        dense = tripartite._two_angle_grid(r, self.ROWS, np.float64)
        screen = tripartite._two_angle_grid(r, self.ROWS, np.float32)
        err = np.abs(screen.astype(np.float64) - dense).max()
        assert err <= tripartite.SCREEN_MARGIN / 10, err
        # the kept rows are filled again by their own matrix products, so a
        # value may differ from the full fill's in its last bits, but not
        # the start cell
        value = min_double_conditional_entropy(rho, kept)
        x0, want = self.dense_start(dense)
        assert starts.pop() == x0
        assert abs(value - want) < 1e-14, value - want
        return tripartite._screen_rows(screen)

    def test_pool_states_keep_their_search_start(self, starts):
        # the 48 mixed_report pool states and its warm-up input 100
        kept_rows = [len(self.check_screen(random_mixed_state(3, seed), kept, starts))
                     for seed in list(range(48)) + [100] for kept in "abc"]
        assert max(kept_rows) < 10, kept_rows

    def test_near_pure_mixtures_keep_their_search_start(self, starts):
        for rho, kept in near_pure_mixtures():
            self.check_screen(rho, kept, starts)

    def test_exact_zero_landscapes_keep_their_search_start(self, starts):
        # minima of exactly zero, where the start cell's value itself can be
        # what the search returns
        for seed in range(8):
            self.check_screen(rotated_ccq_state(seed)[0], "c", starts)
            for kept in "abc":
                self.check_screen(classical_flag_state(seed)[0], kept, starts)

    def test_refined_search_equals_the_dense_grid_search(self):
        # Nelder-Mead included, on the input that stops at maxiter
        rho = random_mixed_state(3, 100)
        for kept in "abc":
            r = tripartite._measured_tensor(rho, kept, "test")
            x0, start = self.dense_start(tripartite._two_angle_grid(r, self.ROWS, np.float64))
            fun = tripartite._nelder_mead(tripartite._two_angle_objective(r), x0).fun
            want = fun if fun < start - bipartite.TIE_TOL else start
            assert min_double_conditional_entropy(rho, kept) == want

    @pytest.mark.parametrize("drop, replaced", [(0.5, False), (2.0, True)])
    def test_refinement_replaces_the_start_only_beyond_tie_tol(self, starts, monkeypatch,
                                                               drop, replaced):
        rho = random_mixed_state(3, 5)
        start = min_double_conditional_entropy(rho, "a")
        lower = start - drop * bipartite.TIE_TOL
        monkeypatch.setattr(tripartite, "_nelder_mead",
                            lambda objective, x0: types.SimpleNamespace(fun=lower))
        assert min_double_conditional_entropy(rho, "a") == (lower if replaced else start)

    def test_flat_landscape_keeps_every_row(self, starts):
        flat = DensityMatrix(np.eye(8) / 8.0, ("a", "b", "c"))
        r = tripartite._measured_tensor(flat, "c", "test")
        keep = tripartite._screen_rows(tripartite._two_angle_grid(r, self.ROWS, np.float32))
        assert keep.tolist() == self.ALL.tolist()
        value = min_double_conditional_entropy(flat, "c")
        assert (starts, value) == ([[0.0] * 4],
                                   tripartite._two_angle_grid(r, self.ROWS, np.float64)[0, 0])

    def test_nan_row_is_kept(self):
        rough = np.random.default_rng(0).random((421, 421), dtype=np.float32)
        rough[7] += np.float32(5.0)
        assert 7 not in tripartite._screen_rows(rough)
        rough[7, 30] = np.nan
        assert 7 in tripartite._screen_rows(rough)

    @pytest.mark.parametrize("dtype, points", [(np.float32, None), (np.float64, [3, 200])])
    def test_each_pass_computes_in_its_own_dtype(self, monkeypatch, dtype, points):
        # the screen must stay float32 throughout, or it is no faster; every
        # buffer the fill allocates, the matmul output included, checks the
        # operands of each ufunc on it
        class GuardedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, dtype=float):
                return np.empty(shape, dtype).view(_DtypeGuard)

        monkeypatch.setattr(tripartite, "np", GuardedNumpy())
        monkeypatch.setattr(_DtypeGuard, "expected", np.dtype(dtype))
        monkeypatch.setattr(_DtypeGuard, "checked", 0)
        r = tripartite._measured_tensor(random_mixed_state(3, 5), "a", "test")
        got = tripartite._two_angle_grid(r, self.ROWS, dtype, points)
        assert got.dtype == dtype and _DtypeGuard.checked > 20

    def test_screen_is_float32_and_exact_pass_float64(self, monkeypatch):
        calls = []
        real = tripartite._two_angle_grid

        def recorded(r, rows, dtype, points=None):
            values = real(r, rows, dtype, points)
            calls.append((values.dtype, points is None))
            return values

        monkeypatch.setattr(tripartite, "_two_angle_grid", recorded)
        min_double_conditional_entropy(random_mixed_state(3, 5), "a")
        assert calls == [(np.float32, True), (np.float64, False)]


def stacked_pass_states():
    """Haar samples, the product-cut branch, the family endpoints, a TIE_TOL
    ordering and other labels, for the stacked pass against _report_pure."""
    states = [haar_random_pure(3, seed) for seed in range(200)]
    states += [ghz_state(), w_state(), PureState(np.eye(8)[0]), bell_with_spectator()]
    states += [build(p) for build in (family_ghz_tilde, family_w_tilde) for p in (0.0, 1.0)]
    # I(a:b) = I(a:c) lies 2.7e-15 below I(b:c), so TIE_TOL keeps a, b, c
    states.append(acin_state(AcinForm(0.5, 0.5, 0.5, 0.5, 0.0)))
    states.append(PureState(haar_random_pure(3, 9).amplitudes, ("z", "x", "y")))
    return states


class TestStackedPass:
    @pytest.fixture(scope="class")
    def cases(self):
        states = stacked_pass_states()
        return states, [repr(tripartite._report_pure(psi).to_dict()) for psi in states]

    @staticmethod
    def stacked(states):
        return [repr(rep.to_dict()) for rep in tripartite._pure_reports(states)]

    def test_batch_of_one(self, cases):
        states, scalar = cases
        assert [self.stacked([psi])[0] for psi in states] == scalar

    def test_one_batch_of_all(self, cases):
        states, scalar = cases
        assert self.stacked(states) == scalar

    def test_one_state_past_a_block(self, cases):
        states, scalar = cases
        n = tripartite._STATE_BLOCK + 1
        assert len(states) < n
        assert self.stacked((states * 2)[:n]) == (scalar * 2)[:n]

    def test_empty(self):
        assert tripartite._pure_reports([]) == []


class TestSweepAndCrossover:
    def test_sweep_shape_and_order(self):
        grid = [0.0, 0.5, 1.0]
        rows = sweep_families(grid)
        assert len(rows) == 6
        assert [r[1] for r in rows] == ["ghz_tilde"] * 3 + ["w_tilde"] * 3
        assert [r[0] for r in rows[:3]] == grid
        assert all(isinstance(r[2], CorrelationReport) for r in rows)
        # a grid that can be iterated only once gives the same rows
        assert sweep_families(iter(grid)) == rows

    def test_sweep_unknown_family(self):
        with pytest.raises(ValidationError):
            sweep_families([0.5], families=("ghz_tilde", "nope"))

    def test_sweep_families_given_one_name_as_a_str(self):
        # a str is a sequence of its letters, which are no family names
        with pytest.raises(ValidationError, match="families 'ghz_tilde' must be a sequence"):
            sweep_families([0.5], "ghz_tilde")

    def test_crossover_location(self):
        star = find_discord_crossover(sweep_families(sweep_grid(0, 1, 0.01)))
        assert star is not None
        assert abs(star - 0.749336) < 1e-3
        # recorded when the crossover recomputed every grid point's discord
        # instead of reading the rows' D values
        assert repr(star) == "0.7493359374999999"

    def test_no_crossover_below_range(self):
        assert find_discord_crossover(sweep_families(sweep_grid(0, 0.5, 0.01))) is None
        assert find_discord_crossover([]) is None

    def test_crossover_rejects_bad_ranges(self):
        # the rows carry the range, so sweep_grid is where a bad one stops
        with pytest.raises(ValidationError, match="step 0.0 must be positive"):
            sweep_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValidationError, match=r"step nan outside \[0, inf\]"):
            sweep_grid(0.0, 1.0, math.nan)
        # 0 * inf would make the one grid point nan
        with pytest.raises(ValidationError, match="step inf must be positive and finite"):
            sweep_grid(0.0, 1.0, math.inf)
        with pytest.raises(ValidationError, match="p_min <= p_max"):
            sweep_grid(0.8, 0.2, 0.01)

    def test_crossover_needs_both_families_at_each_p(self):
        rows = sweep_families([0.7, 0.8])
        with pytest.raises(ValidationError, match="both families' rows at p = 0.8"):
            find_discord_crossover(rows[:-1])
        with pytest.raises(ValidationError, match="p = 0.7"):
            find_discord_crossover(sweep_families([0.7, 0.8], ("ghz_tilde",)))

    def test_sweep_grid_bounds_the_point_count(self):
        assert len(sweep_grid(0, 1, 1e-5)) == SWEEP_MAX_POINTS
        # refused before any list is built: a 1e300-point list cannot exist
        with pytest.raises(ValidationError, match="1e\\+300 grid points"):
            sweep_grid(0, 1, 1e-300)
        with pytest.raises(ValidationError, match="inf grid points"):
            sweep_grid(0, 1, 5e-324)

    def test_sweep_grid_clamps_last_point(self):
        assert sweep_grid(0, 0.76, 0.4) == [0.0, 0.4, 0.76]
        assert sweep_grid(0.3, 0.3, 0.1) == [0.3]

    def test_sweep_grid_rounds_to_12_digits(self):
        assert np.arange(0.0, 1.05, 0.1)[3] == 0.30000000000000004
        assert sweep_grid(0, 1, 0.1)[3] == 0.3
        assert len(sweep_grid(0, 1, 0.01)) == 101

    def test_family_discords_straddle_crossover(self):
        for p, w_wins in ((0.70, False), (0.80, True)):
            gap = (total_discord_pure(family_w_tilde(p))
                   - total_discord_pure(family_ghz_tilde(p)))
            assert (gap > 0) == w_wins


class TestNPartyGeneralization:
    def test_four_qubit_ghz(self):
        psi = ghz_state(4)
        assert abs(genuine_total_n(psi) - 2.0) < 1e-9
        assert abs(genuine_qc_n(psi) - 1.0) < 1e-9

    def test_agrees_with_three_party_route(self):
        for seed in range(5):
            psi = haar_random_pure(3, seed + 300)
            a = genuine_total_n(psi)
            b = genuine_total(density_of(psi))
            assert abs(a - b) < 1e-9

    def test_five_and_six_qubit_ghz(self):
        for n in (5, 6):
            assert abs(genuine_total_n(ghz_state(n)) - 2.0) < 1e-9

    def test_out_of_range(self):
        amp = np.zeros(128, complex)
        amp[0] = 1.0
        with pytest.raises(UnsupportedInputError):
            genuine_total_n(PureState(amp))
        with pytest.raises(UnsupportedInputError):
            genuine_total_n(ghz_state(2))

    def test_mixed_rejected(self):
        with pytest.raises(UnsupportedInputError):
            genuine_total_n(classical_ghz_mixture())


def _kw_classical_ab(state):
    return koashi_winter_classical(state, "a", "b")


def _kw_discord_ab(state):
    return koashi_winter_discord(state, "a", "b")


CLOSED_FORMS = (three_tangle, total_discord_pure, genuine_classical,
                genuine_discord, genuine_total_n, genuine_qc_n,
                _kw_classical_ab, _kw_discord_ab)


class TestClosedFormDomain:
    """Every closed form refuses inputs outside its domain the same way."""

    INPUTS = {"two_qubits": ghz_state(2), "four_qubits": ghz_state(4),
              "mixed": random_mixed_state(3, 0), "list": [1, 0]}
    # the name each closed form gives in its errors, where it is not its own
    NAMES = {_kw_classical_ab: "koashi_winter_classical",
             _kw_discord_ab: "koashi_winter_discord"}
    # the closed forms that take n qubits, with their values on a 4-qubit GHZ
    FOUR_QUBIT_VALUES = {genuine_total_n: 2.0, genuine_qc_n: 1.0}

    @pytest.mark.parametrize("fn", CLOSED_FORMS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_error_contract(self, fn, name):
        state = self.INPUTS[name]
        what = self.NAMES.get(fn, fn.__name__)
        if name == "list":
            with pytest.raises(ValidationError, match=f"^{what} expects a "
                               "PureState or DensityMatrix$") as info:
                fn(state)
            assert info.type is ValidationError
        elif name == "four_qubits" and fn in self.FOUR_QUBIT_VALUES:
            assert abs(fn(state) - self.FOUR_QUBIT_VALUES[fn]) < 1e-9
        else:
            with pytest.raises(UnsupportedInputError,
                               match="^state is mixed" if name == "mixed"
                               else f"^{what} has no closed form for "):
                fn(state)
