import math

import numpy as np
import pytest

from qcorr import (
    N_PARTY_CHECKS,
    PropertyCheck,
    PureState,
    THREE_QUBIT_CHECKS,
    ValidationError,
    ViolationReport,
    evaluate_sample,
    explore_pairwise_order_n,
    ghz_state,
    haar_random_pure,
    oracle_crosscheck,
    run_suite,
    sub_seed,
    w_state,
)

THREE_QUBIT_NAMES = [name for name, _ in THREE_QUBIT_CHECKS]


def bell_with_spectator():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return PureState(np.kron([1.0, 0.0], bell).astype(complex))


class TestSubSeed:
    def test_deterministic(self):
        assert sub_seed(42, 7) == sub_seed(42, 7)

    def test_varies_with_index_and_master(self):
        seeds = {sub_seed(42, i) for i in range(50)}
        assert len(seeds) == 50
        assert sub_seed(42, 0) != sub_seed(43, 0)


class TestPropertyCheck:
    def test_count_invariant(self):
        with pytest.raises(ValidationError):
            PropertyCheck("x", 1e-9, count_checked=1, count_violated=2)

    def test_to_dict(self):
        check = PropertyCheck("x", 1e-9, 10, 0)
        d = check.to_dict()
        assert d["worst_margin"] is None
        assert d["worst_seed"] is None

    def test_to_dict_keeps_field_order(self):
        # the key order of verify --format json
        check = PropertyCheck("x", 1e-9, 10, 2, worst_margin=0.5, worst_seed=7)
        assert list(check.to_dict().items()) == [
            ("name", "x"), ("tolerance", 1e-9), ("count_checked", 10),
            ("count_violated", 2), ("worst_margin", 0.5), ("worst_seed", 7),
        ]


class TestEvaluateSample:
    def test_ghz_margins_within_tolerance(self):
        out = evaluate_sample(ghz_state(), 123)
        tolerances = dict(THREE_QUBIT_CHECKS)
        for name, margin in out["margins"].items():
            assert margin <= tolerances[name], name
        assert abs(out["report"].D3 - 1.0) < 1e-9

    def test_margin_keys_cover_all_checks_but_numerics(self):
        out = evaluate_sample(w_state(), 5)
        expect = set(THREE_QUBIT_NAMES) - {"numerics"}
        assert set(out["margins"]) == expect

    def test_haar_sample_margins(self):
        psi = haar_random_pure(3, 81)
        out = evaluate_sample(psi, 81)
        # equalities hold tightly on generic states
        assert out["margins"]["genuine_total_equality"] < 1e-9
        assert out["margins"]["decomposition_identities"] < 1e-9
        assert out["margins"]["local_unitary_invariance"] < 1e-8

    def test_local_unitary_seed_is_deterministic(self):
        psi = haar_random_pure(3, 82)
        m1 = evaluate_sample(psi, 99)["margins"]["local_unitary_invariance"]
        m2 = evaluate_sample(psi, 99)["margins"]["local_unitary_invariance"]
        assert m1 == m2


class TestRunSuite:
    def test_validation(self):
        with pytest.raises(ValidationError):
            run_suite(0, 1)
        with pytest.raises(ValidationError):
            run_suite(5, 1, n_qubits=2)
        with pytest.raises(ValidationError):
            run_suite(5, 1, n_qubits=7)

    def test_clean_small_run(self):
        report = run_suite(40, 42)
        assert report.passes
        assert report.total_violations == 0
        assert [c.name for c in report.checks] == THREE_QUBIT_NAMES
        numerics = report.checks[-1]
        assert numerics.count_checked == 40
        assert numerics.count_violated == 0

    def test_quiet_checks_hide_worst_fields(self):
        report = run_suite(25, 42)
        by_name = {c.name: c for c in report.checks}
        for name in ("genuine_total_equality", "report_nonnegative"):
            assert by_name[name].worst_margin is None
            assert by_name[name].worst_seed is None

    def test_known_states_can_be_pinned(self):
        report = run_suite(3, 11, states=[ghz_state(), w_state()])
        assert report.passes

    def test_deterministic_serialization(self):
        d1 = run_suite(15, 9).to_dict()
        d2 = run_suite(15, 9).to_dict()
        assert d1 == d2
        assert "elapsed" not in d1

    def test_dominance_violations_at_seed7(self):
        report = run_suite(400, 7)
        by_name = {c.name: c for c in report.checks}
        dominance = by_name["discord_dominance"]
        assert dominance.count_violated == 4
        assert dominance.worst_margin is not None
        assert dominance.worst_seed is not None
        assert not report.passes
        assert report.total_violations == 4
        # every other check stays clean
        for check in report.checks:
            if check.name != "discord_dominance":
                assert check.count_violated == 0, check.name

    def test_worst_seed_reproduces_margin(self):
        report = run_suite(400, 7)
        dominance = {c.name: c for c in report.checks}["discord_dominance"]
        psi = haar_random_pure(3, dominance.worst_seed)
        margin = evaluate_sample(psi, dominance.worst_seed)["margins"][
            "discord_dominance"]
        assert abs(margin - dominance.worst_margin) < 1e-15

    def test_exception_counts_as_numerics_violation(self):
        two_qubit = PureState(
            np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        )
        report = run_suite(2, 0, states=[two_qubit])
        by_name = {c.name: c for c in report.checks}
        assert by_name["numerics"].count_violated == 1
        assert by_name["numerics"].count_checked == 2
        assert not report.passes
        # the broken sample contributes nothing to the other checks
        assert by_name["genuine_total_equality"].count_checked == 1

    def test_four_qubit_checks(self):
        report = run_suite(10, 3, n_qubits=4)
        assert report.passes
        assert [c.name for c in report.checks] == [
            name for name, _ in N_PARTY_CHECKS]

    def test_five_qubit_small(self):
        assert run_suite(3, 1, n_qubits=5).passes


class TestOracleCrosscheck:
    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle_crosscheck(0, 1)

    def test_named_states_agree(self):
        report = oracle_crosscheck(
            2, 0, states=[bell_with_spectator(), ghz_state()])
        assert report.passes
        by_name = {c.name: c for c in report.checks}
        assert by_name["oracle_classical"].tolerance == 1e-3
        assert by_name["oracle_discord"].tolerance == 1e-3
        assert by_name["optimizer_beats_closed_form"].count_violated == 0
        assert by_name["numerics"].count_checked == 2

    def test_haar_states_agree(self):
        assert oracle_crosscheck(3, 0).passes

    def test_exception_counts_as_numerics_violation(self):
        two_qubit = PureState(
            np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        )
        report = oracle_crosscheck(2, 0, states=[two_qubit])
        assert [c.name for c in report.checks] == [
            "oracle_classical", "oracle_discord",
            "optimizer_beats_closed_form", "numerics"]
        by_name = {c.name: c for c in report.checks}
        assert by_name["numerics"].count_violated == 1
        assert by_name["numerics"].count_checked == 2
        assert not report.passes
        # the broken sample contributes nothing to the other checks
        assert by_name["oracle_classical"].count_checked == 1


class TestExplore:
    def test_validation(self):
        with pytest.raises(ValidationError):
            explore_pairwise_order_n(0, 1)
        with pytest.raises(ValidationError):
            explore_pairwise_order_n(5, 1, n_qubits=3)

    def test_shape_and_determinism(self):
        out1 = explore_pairwise_order_n(6, 2)
        out2 = explore_pairwise_order_n(6, 2)
        assert out1 == out2
        assert out1["n_samples"] == 6
        assert len(out1["records"]) == 6
        assert 0 <= out1["consistent"] <= 6
        assert all(isinstance(r["consistent"], bool) for r in out1["records"])

    def test_matches_recorded_values(self):
        assert explore_pairwise_order_n(6, 2) == {
            "n_samples": 6, "seed": 2, "n_qubits": 4, "consistent": 0,
            "records": [{"sub_seed": s, "consistent": False} for s in (
                10128210881749538955, 6609312287773032911,
                15752139279244931036, 7328172287439240521,
                1684697524250777662, 10855449103376275576)],
        }
        assert explore_pairwise_order_n(4, 3, n_qubits=5) == {
            "n_samples": 4, "seed": 3, "n_qubits": 5, "consistent": 0,
            "records": [{"sub_seed": s, "consistent": False} for s in (
                12467808127879573787, 11425928242767342472,
                11475712343069784169, 12505594170494392219)],
        }
        # the first samples of seed 0 that do sort consistently
        out = explore_pairwise_order_n(40, 0)
        assert out["consistent"] == 3
        assert [i for i, r in enumerate(out["records"])
                if r["consistent"]] == [9, 32, 38]


class TestViolationReport:
    def test_passes_property(self):
        good = PropertyCheck("x", 1e-9, 5, 0)
        bad = PropertyCheck("y", 1e-9, 5, 2)
        report = ViolationReport(seed=1, n_samples=5, checks=(good, bad),
                                 elapsed=0.1)
        assert not report.passes
        assert report.total_violations == 2
        assert "elapsed" not in report.to_dict()
