import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qcorr import (
    bipartite,
    density_of,
    find_discord_crossover,
    load_matrix,
    matrix_to_json,
    partial_trace,
    random_mixed_state,
    state_to_json,
    sweep_families,
    tripartite,
    w_state,
)
from qcorr.cli import main
from qcorr.qstate import PureState

ROOT = pathlib.Path(__file__).resolve().parents[1]
E_W_PAIR = 0.5500477595827576


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qcorr", *argv], capture_output=True, text=True
    )


def write_bell_matrix(path):
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    from qcorr import DensityMatrix

    rho = DensityMatrix(np.outer(bell, bell).astype(complex), ("a", "b"))
    path.write_text(matrix_to_json(rho))


class TestAnalyze:
    def test_ghz_table(self, capsys):
        code, out, _ = run_main(capsys, "analyze", "ghz")
        assert code == 0
        lines = out.splitlines()
        assert "T = 3.000000" in lines
        assert "J = 2.000000" in lines
        assert "D = 1.000000" in lines
        assert "D3 = 1.000000" in lines
        assert "tangle = 1.000000" in lines
        assert "ordering = a,b,c" in lines
        assert "pure = true" in lines
        assert "method = closed-form" in lines

    def test_w_table(self, capsys):
        code, out, _ = run_main(capsys, "analyze", "w")
        assert code == 0
        assert "D3 = 0.918296" in out.splitlines()

    def test_degenerate_family_prints_plain_zero(self, capsys):
        code, out, _ = run_main(capsys, "analyze", "w_tilde:p=0")
        assert code == 0
        assert "-0.000000" not in out
        for name in ("T", "J", "D", "T2", "T3", "J2", "J3", "D2", "D3"):
            assert f"{name} = 0.000000" in out.splitlines()

    def test_ghz_json(self, capsys):
        code, out, _ = run_main(capsys, "analyze", "ghz", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert abs(data["T"] - 3.0) < 1e-12
        assert abs(data["tangle"] - 1.0) < 1e-12
        assert data["pure"] is True
        assert data["ordering"]["permutation"] == ["a", "b", "c"]

    def test_acin_token_is_ghz_in_disguise(self, capsys):
        amp = f"{1.0 / math.sqrt(2.0):.17f}"
        code, out, _ = run_main(capsys, "analyze", f"acin:{amp},0,0,0,{amp}")
        assert code == 0
        assert "tangle = 1.000000" in out.splitlines()

    def test_state_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(state_to_json(w_state()))
        code, out, _ = run_main(capsys, "analyze", str(path))
        assert code == 0
        assert "D3 = 0.918296" in out.splitlines()

    def test_spectator_ordering_line(self, capsys, tmp_path):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        psi = PureState(np.kron([1.0, 0.0], bell).astype(complex))
        path = tmp_path / "spectator.json"
        path.write_text(state_to_json(psi))
        code, out, _ = run_main(capsys, "analyze", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "ordering = b,c,a" in lines
        assert "pairwise_mutual = 2.000000,0.000000,0.000000" in lines
        assert "D2 = 0.000000" in lines
        assert "D3 = 1.000000" in lines

    def test_dump_reductions(self, capsys, tmp_path):
        out_dir = tmp_path / "red"
        code, _, err = run_main(capsys, "analyze", "w",
                                "--dump-reductions", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["reduction_ab.json", "reduction_ac.json",
                         "reduction_bc.json"]
        assert err.count("wrote") == 3
        red = load_matrix(out_dir / "reduction_ab.json")
        expect = partial_trace(density_of(w_state()), ["a", "b"])
        np.testing.assert_allclose(red.matrix, expect.matrix, atol=1e-15)

    def test_family_without_parameter(self, capsys):
        code, _, err = run_main(capsys, "analyze", "w_tilde")
        assert code == 1
        assert "needs a parameter" in err

    def test_family_bad_parameter(self, capsys):
        code, _, err = run_main(capsys, "analyze", "w_tilde:q=0.5")
        assert code == 1
        assert "malformed family parameter" in err

    def test_acin_wrong_count(self, capsys):
        code, _, err = run_main(capsys, "analyze", "acin:0.5,0.5")
        assert code == 1
        assert "sum" in err or "coefficient" in err

    def test_malformed_state_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "amplitudes": [[0.5')
        code, _, err = run_main(capsys, "analyze", str(path))
        assert code == 1
        assert "parse error" in err
        assert "byte offset" in err

    def test_unnormalized_state_file(self, capsys, tmp_path):
        amps = [[0.9, 0.0]] + [[0.0, 0.0]] * 7
        path = tmp_path / "unnorm.json"
        path.write_text(json.dumps({"n": 3, "labels": ["a", "b", "c"],
                                    "amplitudes": amps}))
        code, _, err = run_main(capsys, "analyze", str(path))
        assert code == 1
        assert "norm" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert "i/o error" in err

    def test_non_list_labels(self, capsys, tmp_path):
        # a JSON string is iterable, but the format asks for a list
        path = tmp_path / "labels.json"
        for labels in (5, "abc"):
            path.write_text(json.dumps({"n": 3, "labels": labels, "amplitudes":
                                        [[1.0, 0.0]] + [[0.0, 0.0]] * 7}))
            code, _, err = run_main(capsys, "analyze", str(path))
            assert code == 1
            assert err.startswith(f"qcorr: party labels {labels!r} are not a list")

    def test_wrong_qubit_count(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        path.write_text(state_to_json(PureState(bell)))
        code, _, err = run_main(capsys, "analyze", str(path))
        assert code == 1
        assert "3 parties" in err


class TestSweep:
    def test_csv_on_stdout(self, capsys):
        code, out, err = run_main(capsys, "sweep", "both", "0", "1", "0.25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,family,T,J,D,T2,T3,J2,J3,D2,D3,tangle"
        assert len(lines) == 11
        assert lines[1].startswith("0.000000,ghz_tilde,")
        assert lines[6].startswith("0.000000,w_tilde,")
        assert err.startswith("discord crossover p* = 0.749")

    def test_benchmark_sweep_bytes(self, capsys):
        # the stdout that perfbench/reference/cli_oneshot.json holds for the
        # benchmark's sweep command, read here and never written
        ref = json.loads((ROOT / "perfbench" / "reference" / "cli_oneshot.json")
                         .read_text(encoding="utf-8"))
        summary = "discord crossover p* = 0.749336\n"
        argv = ("sweep", "both", "0", "1", "0.01")
        assert run_main(capsys, *argv) == (0, ref["fixed"]["sweep"], summary)
        code, _, err = run_main(capsys, *argv, "--format", "json")
        assert (code, err) == (0, summary)

    def test_no_crossover_message(self, capsys):
        code, _, err = run_main(capsys, "sweep", "both", "0", "0.5", "0.25")
        assert code == 0
        assert "no discord crossover in range" in err

    def test_single_family_has_no_crossover_line(self, capsys):
        code, out, err = run_main(capsys, "sweep", "ghz_tilde", "0", "1", "0.5")
        assert code == 0
        assert "crossover" not in err
        assert len(out.splitlines()) == 4

    def test_json_format(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "ghz_tilde", "0", "1", "0.5",
                                "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [row["p"] for row in data] == [0.0, 0.5, 1.0]
        assert abs(data[-1]["tangle"] - 1.0) < 1e-12

    def test_table_format(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "w_tilde", "0", "1", "0.5",
                                "--format", "table")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("p ")
        assert "tangle" in header

    def test_out_file_routes_crossover_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run_main(capsys, "sweep", "both", "0", "1", "0.25",
                                  "--out", str(path))
        assert code == 0
        assert out.startswith("discord crossover p* = 0.749")
        assert f"wrote {path}" in err
        lines = path.read_text().splitlines()
        assert lines[0] == "p,family,T,J,D,T2,T3,J2,J3,D2,D3,tangle"
        assert len(lines) == 11

    def test_endpoint_rows(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "ghz_tilde", "0.9", "1.0",
                                "0.05")
        assert code == 0
        ps = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert ps == ["0.900000", "0.950000", "1.000000"]

    def test_rows_and_crossover_stay_in_range(self, capsys):
        # 0.7 / 0.4 rounds up to two steps, whose end 0.8 lies past p_max; the
        # crossover near 0.749 lies past it too
        code, out, err = run_main(capsys, "sweep", "both", "0", "0.7", "0.4")
        assert code == 0
        ps = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert ps == ["0.000000", "0.400000", "0.700000"] * 2
        assert "no discord crossover in range" in err
        grid = tripartite.sweep_grid
        assert find_discord_crossover(sweep_families(grid(0.0, 0.7, 0.4))) is None
        star = find_discord_crossover(sweep_families(grid(0.0, 0.76, 0.4)))
        assert 0.749 < star <= 0.76

    def test_crossover_reuses_the_rows(self, capsys, monkeypatch):
        sizes = []
        real = tripartite._pure_reports

        def counted(states):
            states = list(states)
            sizes.append(len(states))
            return real(states)

        monkeypatch.setattr(tripartite, "_pure_reports", counted)
        code, _, err = run_main(capsys, "sweep", "both", "0", "1", "0.01")
        assert code == 0
        assert "discord crossover p* = 0.749336" in err
        # one stacked pass per family, then one per bisection midpoint that
        # holds both families
        assert sizes == [101, 101] + [2] * 7

    def test_range_validation(self, capsys):
        code, _, err = run_main(capsys, "sweep", "both", "0.8", "0.2", "0.1")
        assert code == 1
        assert "p_min <= p_max" in err
        code, _, err = run_main(capsys, "sweep", "both", "0", "1.5", "0.5")
        assert code == 1
        code, _, err = run_main(capsys, "sweep", "both", "0", "1", "0")
        assert code == 1
        assert "positive" in err
        code, _, err = run_main(capsys, "sweep", "both", "0", "1", "1e-300")
        assert code == 1
        assert "1e+300 grid points, more than 100001" in err

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "sweep.csv"
        code, _, err = run_main(capsys, "sweep", "both", "0", "1", "0.5",
                                "--out", str(target))
        assert code == 2
        assert "i/o error" in err

    def test_failed_rename_leaves_no_temp_file(self, capsys, tmp_path):
        # the temp file is written, then os.replace onto a directory fails
        target = tmp_path / "out"
        target.mkdir()
        code, _, err = run_main(capsys, "sweep", "both", "0", "1", "0.5",
                                "--out", str(target))
        assert code == 2
        assert "i/o error" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert list(target.iterdir()) == []


class TestVerify:
    def test_negative_seed(self, capsys):
        code, out, err = run_main(capsys, "verify", "--samples", "2",
                                  "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "qcorr: seed -1 must be an integer >= 0\n"

    def test_clean_run_table(self, capsys):
        code, out, err = run_main(capsys, "verify", "--samples", "30",
                                  "--seed", "42")
        assert code == 0
        assert "discord_dominance" in out
        assert out.splitlines()[-1].endswith("pass")
        assert "elapsed" in err

    def test_json_runs_are_byte_identical(self, capsys):
        code1, out1, _ = run_main(capsys, "verify", "--samples", "30",
                                  "--seed", "42", "--format", "json")
        code2, out2, _ = run_main(capsys, "verify", "--samples", "30",
                                  "--seed", "42", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["passes"] is True
        assert data["seed"] == 42
        assert len(data["checks"]) == 12

    def test_violations_exit_code(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--samples", "400",
                                "--seed", "7", "--format", "json")
        assert code == 4
        data = json.loads(out)
        assert data["passes"] is False
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["discord_dominance"]["count_violated"] == 4
        for name, check in by_name.items():
            if name != "discord_dominance":
                assert check["count_violated"] == 0, name

    def test_oracle_merges_checks(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--samples", "5", "--seed",
                                "42", "--oracle", "--format", "json")
        assert code == 0
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert len(names) == 16
        assert "oracle_classical" in names
        assert "oracle_discord" in names
        assert "optimizer_beats_closed_form" in names

    def test_four_qubit_checks(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--samples", "5",
                                "--qubits", "4", "--format", "json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == ["bipartition_entropy_symmetry",
                         "genuine_total_n_consistency",
                         "genuine_total_n_nonnegative", "numerics"]

    def test_flag_validation(self, capsys):
        # the library's integer rule, reached through the flags
        code, _, err = run_main(capsys, "verify", "--samples", "0")
        assert code == 1
        assert err == "qcorr: n_samples 0 must be an integer >= 1\n"
        code, _, err = run_main(capsys, "verify", "--qubits", "7")
        assert code == 1
        assert err == "qcorr: n_qubits 7 must be an integer in 3..6\n"
        code, _, err = run_main(capsys, "verify", "--qubits", "4", "--oracle")
        assert code == 1
        assert "--oracle requires --qubits 3" in err


class TestDiscord2q:
    def test_bell_table(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        write_bell_matrix(path)
        code, out, _ = run_main(capsys, "discord2q", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "classical = 1.000000" in lines
        assert "discord = 1.000000" in lines
        assert "mutual_information = 2.000000" in lines
        assert "measured = b" in lines

    def test_product_prints_plain_zeros(self, capsys, tmp_path):
        from qcorr import DensityMatrix

        rho = DensityMatrix(
            np.kron(np.diag([0.75, 0.25]), np.eye(2) / 2.0).astype(complex),
            ("a", "b"),
        )
        path = tmp_path / "prod.json"
        path.write_text(matrix_to_json(rho))
        code, out, _ = run_main(capsys, "discord2q", str(path))
        assert code == 0
        assert "-0.000000" not in out
        assert "classical = 0.000000" in out.splitlines()
        assert "discord = 0.000000" in out.splitlines()

    def test_w_reduction_matches_closed_form(self, capsys, tmp_path):
        red = partial_trace(density_of(w_state()), ["a", "b"])
        path = tmp_path / "wred.json"
        path.write_text(matrix_to_json(red))
        code, out, _ = run_main(capsys, "discord2q", str(path), "--format",
                                "json")
        assert code == 0
        data = json.loads(out)
        assert abs(data["discord"] - E_W_PAIR) < 1e-6
        assert abs(data["symmetrized_discord"] - E_W_PAIR) < 1e-6
        assert data["measured"] == "b"

    def test_measured_direction_matters(self, capsys, tmp_path):
        # classical on a, non-orthogonal conditionals on b
        zero = np.array([1.0, 0.0])
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        m = 0.5 * np.outer(np.kron([1, 0], zero), np.kron([1, 0], zero))
        m = m + 0.5 * np.outer(np.kron([0, 1], plus), np.kron([0, 1], plus))
        from qcorr import DensityMatrix

        path = tmp_path / "cq.json"
        path.write_text(matrix_to_json(DensityMatrix(m.astype(complex),
                                                     ("a", "b"))))
        _, out_a, _ = run_main(capsys, "discord2q", str(path), "--measured",
                               "a", "--format", "json")
        _, out_b, _ = run_main(capsys, "discord2q", str(path), "--measured",
                               "b", "--format", "json")
        assert json.loads(out_a)["discord"] < 1e-8
        assert json.loads(out_b)["discord"] > 0.01

    def test_dumped_reduction_measures_its_second_party(self, capsys, tmp_path):
        directory = tmp_path / "red"
        code, _, _ = run_main(capsys, "analyze", "w", "--dump-reductions",
                              str(directory))
        assert code == 0
        path = str(directory / "reduction_ac.json")
        code, out, err = run_main(capsys, "discord2q", path, "--format", "json")
        assert code == 0, err
        data = json.loads(out)
        assert data["measured"] == "c"
        assert abs(data["discord"] - E_W_PAIR) < 1e-6
        code, out, _ = run_main(capsys, "discord2q", path, "--measured", "a",
                                "--format", "json")
        assert code == 0
        assert json.loads(out)["measured"] == "a"
        code, _, err = run_main(capsys, "discord2q", path, "--measured", "b")
        assert code == 1
        assert "unknown party 'b'" in err

    def test_one_search_per_direction(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = bipartite._min_conditional_entropy

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(bipartite, "_min_conditional_entropy", counted)
        path = tmp_path / "mixed8.json"
        path.write_text(matrix_to_json(random_mixed_state(2, 8)))
        code, _, _ = run_main(capsys, "discord2q", str(path))
        assert code == 0
        assert calls == [1, 0]  # the measured slot first, then the other

    def test_non_list_parties(self, capsys, tmp_path):
        path = tmp_path / "parties.json"
        matrix = json.loads(matrix_to_json(random_mixed_state(2, 0)))["matrix"]
        for parties in (5, "ab"):
            path.write_text(json.dumps({"parties": parties, "matrix": matrix}))
            code, _, err = run_main(capsys, "discord2q", str(path))
            assert code == 1
            assert err.startswith(f"qcorr: party labels {parties!r} are not a list")

    def test_non_psd_matrix(self, capsys, tmp_path):
        entries = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        entries[0][0] = [1.5, 0.0]
        entries[1][1] = [-0.5, 0.0]
        path = tmp_path / "nonpsd.json"
        path.write_text(json.dumps({"matrix": entries}))
        code, _, err = run_main(capsys, "discord2q", str(path))
        assert code == 1
        assert "positivity" in err

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"matrix": [[')
        code, _, err = run_main(capsys, "discord2q", str(path))
        assert code == 1
        assert "byte offset" in err

    def test_missing_matrix_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "discord2q",
                                str(tmp_path / "none.json"))
        assert code == 2


class TestParserBehavior:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    # the measurement search has fixed settings; the flags that once changed
    # them are unrecognized arguments, whatever value they are given

    def test_bad_grid_flag(self, capsys):
        for bad in ("5", "1x5", "axb", "60x120"):
            for command in (["analyze", "ghz"], ["verify"],
                            ["discord2q", "m.json"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + ["--grid", bad])
                assert exc.value.code == 1, (command, bad)
                assert "unrecognized arguments: --grid" in capsys.readouterr().err

    def test_bad_optimizer_flags(self, capsys):
        for flag, bad in (("--refine-iters", "-5"), ("--refine-iters", "2.5"),
                          ("--refine-iters", "200"), ("--tol", "nan"),
                          ("--tol", "-1"), ("--tol", "inf"), ("--tol", "x"),
                          ("--tol", "1e-10")):
            for command in (["analyze", "ghz"], ["verify"],
                            ["discord2q", "m.json"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + [flag, bad])
                assert exc.value.code == 1, (command, flag, bad)
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_pure_only_flag(self, capsys):
        # analyze only ever loads pure states, so the flag that refused mixed
        # ones is gone
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "ghz", "--pure-only"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --pure-only" in capsys.readouterr().err

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "ghz", "--format", "xml"])
        assert exc.value.code == 1


class TestProcessEntryPoints:
    def test_module_entry(self):
        proc = run_process("analyze", "ghz")
        assert proc.returncode == 0
        assert "D3 = 1.000000" in proc.stdout

    def test_cli_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcorr.cli", "analyze", "w"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "D3 = 0.918296" in proc.stdout

    def test_flag_error_exit_code(self):
        proc = run_process("verify", "--samples", "abc")
        assert proc.returncode == 1

    def test_commands_do_not_import_scipy(self, tmp_path):
        # the measurement searches of discord2q and verify --oracle run on
        # the in-repo simplex, so no command loads scipy
        path = tmp_path / "mixed.json"
        path.write_text(matrix_to_json(random_mixed_state(2, 3)))
        script = (
            "import contextlib, io, sys\n"
            "from qcorr.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['analyze', 'ghz']),\n"
            "             main(['sweep', 'both', '0', '1', '0.5']),\n"
            "             main(['verify', '--samples', '2']),\n"
            f"             main(['discord2q', {str(path)!r}, '--format', 'json']),\n"
            "             main(['verify', '--samples', '1', '--oracle'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True)
        assert proc.stdout == "[0, 0, 0, 0, 0] []\n", proc.stderr


class TestNanInput:
    def test_nan_acin_coefficient_is_a_validation_error(self):
        proc = run_process("analyze", "acin:nan,0.1,0.1,0.1,0.69")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("qcorr: ")
        assert "nan" in proc.stderr
        assert "Traceback" not in proc.stderr
