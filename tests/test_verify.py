import importlib
import itertools
import math
import pathlib

import numpy as np
import pytest

from qcorr import verify
from qcorr import (
    AcinForm,
    N_PARTY_CHECKS,
    PropertyCheck,
    PureState,
    THREE_QUBIT_CHECKS,
    ValidationError,
    ViolationReport,
    acin_state,
    density_of,
    discord_directional,
    evaluate_sample,
    ghz_state,
    haar_random_pure,
    koashi_winter_classical,
    koashi_winter_discord,
    oracle_crosscheck,
    partial_trace,
    run_suite,
    sub_seed,
    w_state,
)
from test_pins import DOMINANCE_COUNTEREXAMPLE, bell_with_spectator

THREE_QUBIT_NAMES = [name for name, _ in THREE_QUBIT_CHECKS]


class TestSubSeed:
    def test_deterministic(self):
        assert sub_seed(42, 7) == sub_seed(42, 7)

    def test_varies_with_index_and_master(self):
        seeds = {sub_seed(42, i) for i in range(50)}
        assert len(seeds) == 50
        assert sub_seed(42, 0) != sub_seed(43, 0)

    def test_negative_master_seed(self):
        for call in (lambda: sub_seed(-1, 0), lambda: run_suite(2, -1),
                     lambda: run_suite(2, -1, 4), lambda: oracle_crosscheck(1, -1)):
            with pytest.raises(ValidationError, match="seed -1 must be an integer >= 0"):
                call()


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

    def test_dominance_counterexample(self):
        # only the dominance check fails, far above its 1e-8 tolerance, away
        # from any ordering tie, and the optimizer's discords agree with it
        psi = acin_state(DOMINANCE_COUNTEREXAMPLE)
        out = evaluate_sample(psi, 0)
        order = out["report"].ordering
        i_ab, i_ac, i_bc = order.sorted_mutual_infos
        assert order.permutation == ("a", "b", "c")
        assert min(i_ab - i_ac, i_ac - i_bc) > 3e-2
        tolerances = dict(THREE_QUBIT_CHECKS)
        for name, margin in out["margins"].items():
            assert (margin > tolerances[name]) == (name == "discord_dominance"), name
        margin = out["margins"]["discord_dominance"]
        assert abs(margin - 5.18e-3) < 1e-5
        rho = density_of(psi)
        d_ab, d_ac, d_bc = (discord_directional(partial_trace(rho, pair), pair[0]).value
                            for pair in (["a", "b"], ["a", "c"], ["b", "c"]))
        assert abs(max(d_ac, d_bc) - d_ab - margin) < 1e-6

    def test_w_class_keeps_discord_dominance(self):
        # every violation of the dominance statement found so far has a
        # nonzero three-tangle (ROADMAP item 15); W-class Acin forms,
        # lambda4 = 0, have none, and hold it within the check's tolerance
        tolerance = dict(THREE_QUBIT_CHECKS)["discord_dominance"]
        margins = {}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            lam = rng.random(4)
            form = AcinForm(*(lam / np.linalg.norm(lam)).tolist(), 0.0,
                            theta=float(rng.uniform(0.0, 2.0 * math.pi)))
            out = evaluate_sample(acin_state(form), seed)
            margins[seed] = out["margins"]["discord_dominance"]
        worst = max(margins, key=margins.get)
        assert margins[worst] <= tolerance, (worst, margins[worst])

    def test_local_unitary_seed_is_deterministic(self):
        psi = haar_random_pure(3, 82)
        m1 = evaluate_sample(psi, 99)["margins"]["local_unitary_invariance"]
        m2 = evaluate_sample(psi, 99)["margins"]["local_unitary_invariance"]
        assert m1 == m2


LINALG_COUNTS = ("DensityMatrix.inits", "eigvalsh", "eigh", "svd")


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py, whose modules import each other by bare name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]
                                  / "perfbench"))
        return importlib.import_module("worker")


def traced_counts(worker, call):
    """perfbench's tracer counts of one call, installed as its worker does."""
    tracer, problems = worker.tracing.Tracer(), []
    with worker.installed(tracer, problems):
        call()
    assert problems == []
    return tracer.counts()


@pytest.fixture(scope="module")
def haar_block_per_sample(worker):
    """Counts of perfbench's traced haar_verify warm-up block, per sample."""
    wl = worker.wl
    counts = traced_counts(worker, wl.make_call("haar_verify", wl.WARM_INPUT["haar_verify"]))
    return {k: counts[k] / wl.BLOCK for k in LINALG_COUNTS}


@pytest.mark.parametrize("psi", [haar_random_pure(3, 0), haar_random_pure(3, 1),
                                 haar_random_pure(3, 2), ghz_state()],
                         ids=["haar0", "haar1", "haar2", "ghz"])
def test_linalg_counts_per_sample(worker, haar_block_per_sample, psi):
    # perfbench pins the haar_verify block's totals (tests/test_source.py runs
    # that check); each state's sample makes the same share of them, and the
    # det calls are pinned only here
    counts = traced_counts(worker, lambda: evaluate_sample(psi, 7))
    assert {k: counts[k] for k in LINALG_COUNTS} == haar_block_per_sample
    assert counts["calls"]["linalg.det"] == 5


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

    @pytest.mark.parametrize("run", [run_suite, oracle_crosscheck])
    @pytest.mark.parametrize("states", [ghz_state(), "ab", [ghz_state(), "ab"],
                                        [density_of(ghz_state())]])
    def test_states_must_be_a_list_of_pure_states(self, run, states):
        with pytest.raises(ValidationError, match="states must be a list or tuple of PureState"):
            run(2, 0, states=states)

    @pytest.mark.parametrize("run", [run_suite, oracle_crosscheck])
    def test_more_states_than_samples_rejected(self, run):
        # the W state would be dropped unchecked
        with pytest.raises(ValidationError, match="^2 states given for 1 samples$"):
            run(1, 0, states=[ghz_state(), w_state()])

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

    def test_closed_forms_equal_public_ones(self, monkeypatch):
        # the J and D each oracle sample compares against, == the public
        # koashi_winter_* on every ordered pair
        zero_bell = PureState(np.array([1, 0, 0, 1, 0, 0, 0, 0], dtype=complex)
                              / math.sqrt(2.0))
        product = PureState(np.eye(8, dtype=complex)[0])
        states = ([haar_random_pure(3, s) for s in range(20)]
                  + [ghz_state(), w_state(), zero_bell, product])
        tables = []
        kw_table = verify._kw_table

        def recording_table(s1, eof):
            tables.append(kw_table(s1, eof))
            return tables[-1]

        monkeypatch.setattr(verify, "_kw_table", recording_table)
        assert oracle_crosscheck(len(states), 0, states=states).passes
        assert len(tables) == len(states)
        for psi, table in zip(states, tables):
            assert table == {
                (i, j): (koashi_winter_classical(psi, i, j),
                         koashi_winter_discord(psi, i, j))
                for i, j in itertools.permutations(psi.labels, 2)}

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


class TestViolationReport:
    def test_passes_property(self):
        good = PropertyCheck("x", 1e-9, 5, 0)
        bad = PropertyCheck("y", 1e-9, 5, 2)
        report = ViolationReport(seed=1, n_samples=5, checks=(good, bad),
                                 elapsed=0.1)
        assert not report.passes
        assert report.total_violations == 2
        assert "elapsed" not in report.to_dict()
