import itertools
import json
import math

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
    bipartite_parts_pure,
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
    min_double_conditional_entropy,
    random_mixed_state,
    sweep_families,
    three_tangle,
    total_classical_mixed,
    total_classical_pure,
    total_discord_pure,
    total_information,
    w_state,
)
from qcorr import bipartite, tripartite
from qcorr.tripartite import CUT_PRODUCT_TOL, SWEEP_MAX_POINTS, sweep_grid
from qcorr.verify import _haar_local_unitary

H13 = math.log2(3.0) - 2.0 / 3.0
E_W_PAIR = 0.5500477595827576


# repr of the two-angle search on random_mixed_state(3, seed), per kept party.
# Nelder-Mead stops at maxiter on seed 100, so any change in rounding can
# move these values; they are compared with ==, not a tolerance.
MIN_DOUBLE_REPR = {
    (5, "a"): "0.3955191706985612",
    (5, "b"): "0.34842062744206964",
    (5, "c"): "0.3580173821971509",
    (100, "a"): "0.41931950374161914",
    (100, "b"): "0.3433283170827",
    (100, "c"): "0.35914838133440535",
}
MIXED_REPORT_100_REPR = (
    "{'T': 1.3593268661476177, 'J': 0.7187145150075096, "
    "'D': 0.6406123511401081, 'T2': 0.26780751191496677, "
    "'T3': 1.091519354232651, 'J2': 0.20339968759292193, "
    "'J3': 0.5153148274145877, 'D2': 0.06440782432204528, "
    "'D3': 0.5762045268180628, 'tangle': None, "
    "'pairwise_mutual': [0.26780751191496677, 0.2209813866364585, "
    "0.13100408215327253], 'cut_mutual': [1.091519354232651, "
    "1.1383454795111592, 1.2283227839943451], "
    "'ordering': {'permutation': ['a', 'c', 'b'], "
    "'sorted_mutual_infos': [0.26780751191496677, 0.2209813866364585, "
    "0.13100408215327253]}, 'pure': False, 'method': 'optimizer'}"
)

# repr of correlation_report(psi).to_dict() and of the pure accessors
# (total_classical_pure, total_discord_pure, bipartite_parts_pure,
# genuine_classical, genuine_discord) on haar_random_pure(3, seed) and
# on bell_with_spectator(), whose product cut takes the degenerate D2
# branch; compared with ==.
PURE_REPR = {
    3: (
        "{'T': 2.0019705968514514, 'J': 1.2815875849948608, "
        "'D': 0.7203830118565996, 'T2': 0.7158562399823808, "
        "'T3': 1.2861143568690707, 'J2': 0.6385304065603212, "
        "'J3': 0.6430571784345396, 'D2': 0.07732583342206018, "
        "'D3': 0.6430571784345394, 'tangle': 0.49306923980038925, "
        "'pairwise_mutual': [0.7158562399823808, 0.6713582697398073, "
        "0.6147560871292613], 'cut_mutual': [1.2861143568690707, "
        "1.330612327111644, 1.38721450972219], "
        "'ordering': {'permutation': ['a', 'b', 'c'], "
        "'sorted_mutual_infos': [0.7158562399823808, 0.6713582697398073, "
        "0.6147560871292613]}, 'pure': True, 'method': 'closed-form'}",
        "(1.2815875849948608, 0.7203830118565996, (0.6385304065603212, "
        "0.07732583342206018), 0.6430571784345394, 0.6430571784345394)",
    ),
    17: (
        "{'T': 2.3505127497346754, 'J': 1.3340041819297748, "
        "'D': 1.0165085678049064, 'T2': 1.2894824274192236, "
        "'T3': 1.0610303223154518, 'J2': 0.803489020772046, "
        "'J3': 0.5305151611577288, 'D2': 0.4859934066471776, "
        "'D3': 0.5305151611577288, 'tangle': 0.31254370719050223, "
        "'pairwise_mutual': [1.2894824274192236, 0.5310141144554121, "
        "0.5300162078600431], 'cut_mutual': [1.0610303223154518, "
        "1.8194986352792633, 1.8204965418746322], "
        "'ordering': {'permutation': ['a', 'b', 'c'], "
        "'sorted_mutual_infos': [1.2894824274192236, 0.5310141144554121, "
        "0.5300162078600431]}, 'pure': True, 'method': 'closed-form'}",
        "(1.3340041819297748, 1.0165085678049064, (0.803489020772046, "
        "0.4859934066471776), 0.5305151611577288, 0.5305151611577288)",
    ),
    42: (
        "{'T': 2.23817237637112, 'J': 1.3560864648022088, "
        "'D': 0.8820859115689144, 'T2': 0.9579926803911469, "
        "'T3': 1.2801796959799732, 'J2': 0.7159966168122212, "
        "'J3': 0.6400898479899877, 'D2': 0.24199606357892678, "
        "'D3': 0.6400898479899876, 'tangle': 0.44175877694114984, "
        "'pairwise_mutual': [0.9579926803911469, 0.670671785851176, "
        "0.6095079101287978], 'cut_mutual': [1.2801796959799732, "
        "1.567500590519944, 1.6286644662423222], "
        "'ordering': {'permutation': ['a', 'b', 'c'], "
        "'sorted_mutual_infos': [0.9579926803911469, 0.670671785851176, "
        "0.6095079101287978]}, 'pure': True, 'method': 'closed-form'}",
        "(1.3560864648022088, 0.8820859115689144, (0.7159966168122212, "
        "0.24199606357892678), 0.6400898479899876, 0.6400898479899876)",
    ),
    "spectator": (
        "{'T': 1.9999999999999998, 'J': 1.0000000000000002, 'D': 1.0, "
        "'T2': 1.9999999999999998, 'T3': 0.0, 'J2': 1.0, "
        "'J3': 2.220446049250313e-16, 'D2': 0.0, 'D3': 1.0000000000000007, "
        "'tangle': 0.0, 'pairwise_mutual': [1.9999999999999998, "
        "2.220446049250313e-16, 2.220446049250313e-16], "
        "'cut_mutual': [3.2034265038149176e-16, 1.9999999999999998, "
        "1.9999999999999998], 'ordering': {'permutation': ['b', 'c', 'a'], "
        "'sorted_mutual_infos': [1.9999999999999998, "
        "2.220446049250313e-16, 2.220446049250313e-16]}, 'pure': True, "
        "'method': 'closed-form'}",
        "(1.0000000000000002, 1.0, (1.0, 0.0), 3.2034265038149176e-16, "
        "3.2034265038149176e-16)",
    ),
}
MIXED_REPORT_0_REPR = (
    "{'T': 1.6480765915869284, 'J': 1.0611691208815868, "
    "'D': 0.5869074707053417, 'T2': 0.5619564647325541, "
    "'T3': 1.0861201268543743, 'J2': 0.4815915072726039, "
    "'J3': 0.5795776136089829, 'D2': 0.0616357780122293, "
    "'D3': 0.5252716926931124, 'tangle': None, "
    "'pairwise_mutual': [0.5619564647325541, 0.38852431790076647, "
    "0.36082348044766266], 'cut_mutual': [1.0861201268543743, "
    "1.259552273686162, 1.2872531111392655], "
    "'ordering': {'permutation': ['c', 'a', 'b'], "
    "'sorted_mutual_infos': [0.5619564647325541, 0.38852431790076647, "
    "0.36082348044766266]}, 'pure': False, 'method': 'optimizer'}"
)

# repr of double_conditional_entropy at the bases of double_test_angles(),
# on random_mixed_state(3, 5) and (3, 17) in turn and kept parties a, b, c in
# turn; compared with ==, like the values above.
DOUBLE_REPR = (
    "0.5627961787679204",
    "0.6880175434936849",
    "0.6715954305637977",
    "0.7880730255329551",
    "0.6328676780372713",
    "0.5913541672703139",
    "0.6191266988112676",
    "0.7320001271977377",
    "0.5619019480127141",
    "0.7091194979396964",
    "0.7904663187254288",
    "0.7037134516836986",
    "0.5848440471754415",
    "0.7341847479204369",
    "0.7555548523766881",
    "0.6878272427528951",
    "0.6253190393771632",
    "0.7400054848558397",
    "0.6220042809709313",
    "0.766607252734796",
    "0.7263600296656407",
    "0.6579756718018744",
    "0.5483980906502779",
    "0.7427200147203941",
    "0.5793164973801376",
    "0.5558935482089569",
    "0.7410567621017653",
    "0.6534041955613319",
    "0.49031530309868354",
    "0.7934240094850324",
)


def bell_with_spectator():
    # parties (a, b, c): a is |0>, b and c share a Bell pair
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return PureState(np.kron([1.0, 0.0], bell).astype(complex))


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


def double_test_angles():
    # pole and equator bases, where vector entries are (signed) zeros or
    # rounding residues, then seeded random angles
    rng = np.random.default_rng(2011)
    scale = [math.pi, 2 * math.pi, math.pi, 2 * math.pi]
    return ([(0.0, 0.0, 0.0, 0.0), (math.pi, 0.0, 0.0, math.pi),
             (math.pi / 2, 0.0, math.pi, 1.5 * math.pi)]
            + [tuple(x) for x in rng.random((27, 4)) * scale])


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
        with pytest.raises(ValidationError, match="sum to nan"):
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

    def test_report_and_accessors_are_bit_identical_to_recorded_values(self):
        for key, (report_repr, parts_repr) in PURE_REPR.items():
            psi = (bell_with_spectator() if key == "spectator"
                   else haar_random_pure(3, key))
            assert repr(correlation_report(psi).to_dict()) == report_repr, key
            parts = (total_classical_pure(psi), total_discord_pure(psi),
                     bipartite_parts_pure(psi), genuine_classical(psi),
                     genuine_discord(psi))
            assert repr(parts) == parts_repr, key

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

    def test_report_matches_individual_closed_forms(self):
        # the accessors read the report, so J, D, J2 and D2 agree bit for bit;
        # genuine_* is S(rho_c): it equals J3 and D3 up to rounding on the
        # ordered D2 branch, and D3 is a different quantity on the degenerate one
        states = [haar_random_pure(3, seed) for seed in range(20)]
        states += [ghz_state(), w_state(), PureState(np.eye(8)[0]),
                   bell_with_spectator(), spectator_with_leak(5e-4)]
        for psi in states:
            rep = correlation_report(psi)
            assert abs(rep.T - total_information(density_of(psi))) < 1e-12
            assert rep.J == total_classical_pure(psi)
            assert rep.D == total_discord_pure(psi)
            assert (rep.J2, rep.D2) == bipartite_parts_pure(psi)
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
        closed = total_classical_pure(psi)
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

    def test_min_search_is_bit_identical_to_recorded_values(self):
        for (seed, k), want in MIN_DOUBLE_REPR.items():
            got = min_double_conditional_entropy(random_mixed_state(3, seed), k)
            assert repr(got) == want, (seed, k)
        report = correlation_report(random_mixed_state(3, 100))
        assert repr(report.to_dict()) == MIXED_REPORT_100_REPR

    def test_mixed_report_is_bit_identical_to_recorded_values(self):
        report = correlation_report(random_mixed_state(3, 0))
        assert repr(report.to_dict()) == MIXED_REPORT_0_REPR

    @pytest.mark.parametrize("seed", [5, 17, 100])
    def test_grid_values_do_not_depend_on_the_block(self, seed):
        # the block only bounds the memory of one pass; a block size that
        # moved any value could move the Nelder-Mead start point
        r = tripartite._measured_tensor(random_mixed_state(3, seed), "b", "test")
        rows = tripartite._hemisphere(30, 30)[2]
        full = tripartite._two_angle_values(r, rows, block=421)
        want = full.tobytes()
        for block in (1, 3, 7, 16):
            got = tripartite._two_angle_values(r, rows, block=block).tobytes()
            assert got == want, block
        # the screened search fills only some u rows in float64; each must be
        # the dense grid's row byte for byte
        picks = ([0], [5, 17, 420],
                 np.random.default_rng(seed).choice(421, 40, replace=False))
        for points in picks:
            got = tripartite._two_angle_values(r, rows, points)
            assert got.tobytes() == full[points].tobytes(), points

    def test_double_entropy_is_bit_identical_to_recorded_values(self):
        states = (random_mixed_state(3, 5), random_mixed_state(3, 17))
        angles = double_test_angles()
        assert len(angles) == len(DOUBLE_REPR)
        for i, (x, want) in enumerate(zip(angles, DOUBLE_REPR)):
            bases = (MeasurementBasis(x[0], x[1]), MeasurementBasis(x[2], x[3]))
            got = double_conditional_entropy(states[i % 2], "abc"[i % 3], bases)
            assert repr(got) == want, i


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


class _StartOnly:
    """Stands in for Nelder-Mead: never improves, so _search returns its start."""

    fun = math.inf

    def __init__(self, objective, x0):
        pass


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

    def grids(self, rho, kept):
        r = tripartite._measured_tensor(rho, kept, "test")
        dense = tripartite._two_angle_values(r, self.ROWS)
        screen = tripartite._two_angle_values(r, self.ROWS, dtype=np.float32)
        return r, dense, screen

    def check_screen(self, rho, kept):
        _, dense, screen = self.grids(rho, kept)
        err = np.abs(screen.astype(np.float64) - dense).max()
        assert err <= tripartite.SCREEN_MARGIN / 10, err
        # rows the screen keeps hold the dense grid's bytes (tested above)
        screened = np.full(dense.shape, np.inf)
        keep = tripartite._screen_rows(screen)
        screened[keep] = dense[keep]
        got = tripartite._search(None, screened, self.TH, self.PH)
        assert got == tripartite._search(None, dense, self.TH, self.PH)
        return keep

    def test_pool_states_keep_their_search_start(self, monkeypatch):
        # the 48 mixed_report pool states and its warm-up input 100
        monkeypatch.setattr(bipartite, "_nelder_mead", _StartOnly)
        kept_rows = [len(self.check_screen(random_mixed_state(3, seed), kept))
                     for seed in list(range(48)) + [100] for kept in "abc"]
        assert max(kept_rows) < 10, kept_rows

    def test_near_pure_mixtures_keep_their_search_start(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_nelder_mead", _StartOnly)
        for rho, kept in near_pure_mixtures():
            self.check_screen(rho, kept)

    def test_refined_search_equals_the_dense_grid_search(self):
        # Nelder-Mead included, on the input that stops at maxiter
        for kept in "abc":
            r, dense, _ = self.grids(random_mixed_state(3, 100), kept)
            objective = tripartite._two_angle_objective(r)
            screened = tripartite._screened_values(r, self.ROWS)
            assert (tripartite._search(objective, screened, self.TH, self.PH)
                    == tripartite._search(objective, dense, self.TH, self.PH))

    def test_flat_landscape_keeps_every_row(self, monkeypatch):
        monkeypatch.setattr(bipartite, "_nelder_mead", _StartOnly)
        flat = DensityMatrix(np.eye(8) / 8.0, ("a", "b", "c"))
        r = tripartite._measured_tensor(flat, "c", "test")
        values = tripartite._screened_values(r, self.ROWS)
        assert np.isfinite(values).all()
        start = tripartite._search(None, values, self.TH, self.PH)
        assert start == (values[0, 0], [0.0] * 4)

    def test_nan_row_is_kept(self):
        rough = np.random.default_rng(0).random((421, 421), dtype=np.float32)
        rough[7] += np.float32(5.0)
        assert 7 not in tripartite._screen_rows(rough)
        rough[7, 30] = np.nan
        assert 7 in tripartite._screen_rows(rough)

    @pytest.mark.parametrize("dtype, points", [(np.float32, None), (np.float64, [3, 200])])
    def test_each_pass_computes_in_its_own_dtype(self, monkeypatch, dtype, points):
        # the screen must stay float32 throughout, or it is no faster; every
        # buffer the fill allocates checks the operands of each ufunc on it
        class GuardedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, dtype):
                return np.empty(shape, dtype).view(_DtypeGuard)

        monkeypatch.setattr(tripartite, "np", GuardedNumpy())
        monkeypatch.setattr(_DtypeGuard, "expected", np.dtype(dtype))
        monkeypatch.setattr(_DtypeGuard, "checked", 0)
        r = tripartite._measured_tensor(random_mixed_state(3, 5), "a", "test")
        got = tripartite._two_angle_values(r, self.ROWS, points, dtype)
        assert got.dtype == dtype and _DtypeGuard.checked > 20

    def test_screen_is_float32_and_exact_pass_float64(self, monkeypatch):
        calls = []
        fill = tripartite._two_angle_values

        def recorded(r, rows, points=None, dtype=np.float64):
            values = fill(r, rows, points, dtype)
            calls.append((points is None, values.dtype))
            return values

        monkeypatch.setattr(tripartite, "_two_angle_values", recorded)
        min_double_conditional_entropy(random_mixed_state(3, 5), "a")
        assert calls == [(True, np.float32), (False, np.float64)]


class TestSweepAndCrossover:
    def test_sweep_shape_and_order(self):
        grid = [0.0, 0.5, 1.0]
        rows = sweep_families(grid)
        assert len(rows) == 6
        assert [r[1] for r in rows] == ["ghz_tilde"] * 3 + ["w_tilde"] * 3
        assert [r[0] for r in rows[:3]] == grid
        assert all(isinstance(r[2], CorrelationReport) for r in rows)

    def test_sweep_unknown_family(self):
        with pytest.raises(ValidationError):
            sweep_families([0.5], families=("ghz_tilde", "nope"))

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
        with pytest.raises(ValidationError, match="step nan must be positive"):
            sweep_grid(0.0, 1.0, math.nan)
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
