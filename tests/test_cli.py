import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import csr_from_dense
from gmres_sv import cli
from gmres_sv.cli import ExperimentPreset, VariantSpec, load_matrix, load_rhs, run_experiment
from gmres_sv.kernels import dense_lu_solve
from gmres_sv.solvers import SolverConfig, solve
from gmres_sv.sparse import csr_from_coo, gen_laplacian_1d

HEADER = "experiment,variant,m,k,cycle,paper_mvp,true_mvp,relres,errnorm,converged"
# diag(1, 1, 1e-310): the second plain(2) cycle divides by the subnormal pivot
SUBNORMAL_PIVOT_MTX = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n2 2 1\n3 3 1e-310\n"


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            {
                "experiment": parts[0],
                "variant": parts[1],
                "m": int(parts[2]),
                "k": int(parts[3]),
                "cycle": int(parts[4]),
                "paper_mvp": int(parts[5]),
                "true_mvp": int(parts[6]),
                "relres": float(parts[7]),
                "errnorm": float(parts[8]) if parts[8] else None,
                "converged": parts[9],
            }
        )
    return rows


def small_preset(max_cycles=40, variant="sv", m=6, k=2):
    return ExperimentPreset(
        name="small",
        matrix="gen:laplacian1d:60",
        rhs="ones",
        variants=[VariantSpec(variant, m=m, k=k, max_cycles=max_cycles)],
    )


class TestLoadMatrix:
    def test_generators(self):
        assert load_matrix("gen:laplacian1d:7").shape == (7, 7)
        assert load_matrix("gen:bidiag:5:0.5").to_dense()[0, 1] == 0.5
        assert np.array_equal(load_matrix("gen:eye:3").to_dense(), np.eye(3))

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="generator spec"):
            load_matrix("gen:dense:4")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gen:bidiag:5", "unknown generator spec 'gen:bidiag:5'; expected gen:laplacian1d:N, gen:bidiag:N:S or gen:eye:N"),
            ("gen:eye:x", "bad generator spec 'gen:eye:x': invalid literal for int() with base 10: 'x'"),
            ("gen:eye:0", "bad generator spec 'gen:eye:0': matrix order must be at least 1"),
        ],
    )
    def test_bad_generator_spec_named(self, spec, message):
        with pytest.raises(ValueError) as info:
            load_matrix(spec)
        assert str(info.value) == message

    def test_missing_file_names_path(self):
        with pytest.raises(FileNotFoundError, match="no/such/file.mtx"):
            load_matrix("no/such/file.mtx")


class TestLoadRhs:
    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.mtx"
        with pytest.raises(FileNotFoundError) as info:
            load_rhs(str(path), 5)
        assert str(info.value) == f"right-hand side file not found: {path}"

    def test_length_must_match_the_matrix(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n3 1\n1\n2\n3\n")
        with pytest.raises(ValueError) as info:
            load_rhs(str(path), 5)
        assert str(info.value) == "right-hand side length 3 does not match matrix order 5"


class TestRunExperiment:
    def test_identity_preset_single_cycle_zero_residual(self):
        csv_text, converged = run_experiment(cli.PRESETS["identity-10"])
        rows = parse_csv(csv_text)
        assert converged
        assert len(rows) == 1
        assert rows[0]["cycle"] == 1
        assert rows[0]["relres"] <= 1e-14
        assert rows[0]["converged"] == "1"

    def test_csv_is_deterministic(self):
        first, _ = run_experiment(small_preset())
        second, _ = run_experiment(small_preset())
        assert first == second

    def test_emitted_relres_equals_recorded(self):
        preset = small_preset()
        csv_text, _ = run_experiment(preset)
        rows = parse_csv(csv_text)
        A = load_matrix(preset.matrix)
        report = solve(A, np.ones(60), None, SolverConfig("sv", m=6, k=2, max_cycles=40))
        assert len(rows) == len(report.record)
        for row, entry in zip(rows, report.record):
            assert row["relres"] == entry.relres
            assert row["cycle"] == entry.cycle
            assert row["paper_mvp"] == entry.paper_mvp
            assert row["true_mvp"] == entry.true_mvp

    def test_errnorm_present_under_cap(self):
        rows = parse_csv(run_experiment(small_preset())[0])
        assert all(row["errnorm"] is not None for row in rows)

    def test_errnorm_empty_above_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "DENSE_SOLVE_CAP", 10)
        rows = parse_csv(run_experiment(small_preset())[0])
        assert all(row["errnorm"] is None for row in rows)

    def test_unconverged_final_row_flagged(self):
        csv_text, converged = run_experiment(small_preset(max_cycles=2, variant="plain", m=3, k=0))
        rows = parse_csv(csv_text)
        assert not converged
        assert rows[-1]["converged"] == "0"
        assert all(row["converged"] == "" for row in rows[:-1])

    def test_variant_then_cycle_order(self):
        preset = ExperimentPreset(
            name="two",
            matrix="gen:laplacian1d:40",
            rhs="ones",
            variants=[VariantSpec("plain", m=5, max_cycles=8), VariantSpec("sv", m=5, k=1, max_cycles=8)],
        )
        rows = parse_csv(run_experiment(preset)[0])
        variants = [row["variant"] for row in rows]
        switch = variants.index("sv")
        assert all(v == "plain" for v in variants[:switch])
        assert all(v == "sv" for v in variants[switch:])
        for chunk in (rows[:switch], rows[switch:]):
            cycles = [row["cycle"] for row in chunk]
            assert cycles == sorted(cycles)

    @pytest.mark.parametrize(
        "k, tol, message", [(5, 1e-8, r"need 0 <= k < m, got k=5, m=5"), (0, 0.0, "tolerance must be positive")]
    )
    def test_bad_config_fails_before_the_matrix_is_read(self, k, tol, message):
        preset = ExperimentPreset("bad", "no/such/file.mtx", "ones", [VariantSpec("sv", m=5, k=k)], tol=tol)
        with pytest.raises(ValueError, match=message):
            run_experiment(preset)


class TestReferenceSolution:
    def count_dense_calls(self, monkeypatch):
        calls = []

        def counted(A_dense, b):
            calls.append(A_dense.shape)
            return dense_lu_solve(A_dense, b)

        monkeypatch.setattr(cli, "dense_lu_solve", counted)
        return calls

    def test_narrow_band_skips_dense_lu(self, monkeypatch):
        calls = self.count_dense_calls(monkeypatch)
        A = gen_laplacian_1d(40)
        x = cli.reference_solution(A, np.ones(40))
        assert calls == []
        assert np.linalg.norm(A @ x - 1.0) <= 1e-12

    def test_wide_band_reaches_dense_lu(self, monkeypatch):
        calls = self.count_dense_calls(monkeypatch)
        dense = np.random.default_rng(40).standard_normal((40, 40)) + 40 * np.eye(40)
        x = cli.reference_solution(csr_from_dense(dense), np.ones(40))
        assert calls == [(40, 40)]
        assert np.linalg.norm(dense @ x - 1.0) <= 1e-12

    def test_laplacian_reference_as_close_as_dense_lu(self):
        A = load_matrix("gen:laplacian1d:1000")
        b = cli.load_rhs("e1en", 1000)  # exact solution: all ones
        lu_error = np.abs(dense_lu_solve(A.to_dense(), b) - 1.0).max()
        assert np.abs(cli.reference_solution(A, b) - 1.0).max() <= lu_error

    def test_laplacian_reference_is_exactly_ones(self):
        # fl(A @ ones) is e1en bit for bit, so ones solves the stored system exactly.
        A = load_matrix("gen:laplacian1d:1000")
        b = cli.load_rhs("e1en", 1000)
        assert np.array_equal(A @ np.ones(1000), b)
        assert np.array_equal(cli.reference_solution(A, b), np.ones(1000))

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 0.0)],
            [(i, i, 1.0) for i in range(40) if i not in (20, 21)] + [(i, j, 1.0) for i in (20, 21) for j in (20, 21)],
            [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1e-310)],
            [(0, 0, 1e-310), (1, 1, 1e-310), (2, 2, 1e-310)],
            [(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0), (2, 2, 1e-310)],
        ],
        ids=["zero-pivot", "singular-2x2-block", "subnormal-pivot", "overflowing-band", "overflowing-dense"],
    )
    def test_no_reference_for_singular_or_non_finite(self, entries):
        n = max(i for i, _j, _v in entries) + 1
        assert cli.reference_solution(csr_from_coo(entries, n, n), np.ones(n)) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_errnorm_empty_for_non_finite_reference(self, tmp_path, capsys):
        path = tmp_path / "tiny.mtx"
        path.write_text(SUBNORMAL_PIVOT_MTX)
        assert cli.main(["run", "--matrix", str(path), "--variant", "plain", "--m", "2"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows and all(row["errnorm"] is None for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_iterate_prints_unconverged(self, tmp_path, capsys):
        path = tmp_path / "tiny.mtx"
        path.write_text(SUBNORMAL_PIVOT_MTX)
        assert cli.main(["run", "--matrix", str(path), "--variant", "plain", "--m", "2"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[-1]["converged"] == "0" and rows[-1]["relres"] > 0.5


class TestMain:
    def test_run_with_flags_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "history.csv"
        code = cli.main(
            ["run", "--matrix", "gen:laplacian1d:30", "--rhs", "ones", "--variant", "plain",
             "--m", "30", "--out", str(out)]
        )
        assert code == 0
        rows = parse_csv(out.read_text())
        assert rows[-1]["converged"] == "1"

    def test_run_preset_to_stdout(self, capsys):
        assert cli.main(["run", "--preset", "identity-10"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["experiment"] == "identity-10"

    def test_e1en_rhs(self, capsys):
        code = cli.main(
            ["run", "--matrix", "gen:laplacian1d:30", "--rhs", "e1en", "--variant", "plain", "--m", "30"]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[-1]["relres"] <= 1e-8

    def test_file_rhs_equals_the_named_one(self, tmp_path, capsys):
        path = tmp_path / "e1en.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n30 1\n1\n" + "0\n" * 28 + "1\n")
        args = ["run", "--matrix", "gen:laplacian1d:30", "--variant", "plain", "--m", "30", "--rhs"]
        assert cli.main(args + ["e1en"]) == 0
        named = capsys.readouterr().out
        assert cli.main(args + [str(path)]) == 0
        assert capsys.readouterr().out == named

    def test_malformed_matrix_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 x 1.0\n")
        assert cli.main(["run", "--matrix", str(path), "--variant", "plain", "--m", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 4: could not parse entry from ['2', 'x', '1.0']\n"
        assert captured.out == ""

    def test_strict_nonconvergence_exit_code(self, capsys):
        args = ["run", "--matrix", "gen:laplacian1d:60", "--variant", "plain", "--m", "3",
                "--max-cycles", "2"]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args + ["--strict"]) == 2

    def test_missing_file_exit_code(self, capsys):
        code = cli.main(["run", "--matrix", "does/not/exist.mtx", "--variant", "plain", "--m", "5"])
        assert code == 1
        assert "does/not/exist.mtx" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert cli.main(["run", "--preset", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_incomplete_flags(self, capsys):
        assert cli.main(["run", "--matrix", "gen:eye:4"]) == 1

    def test_bad_usage_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--m", "not-a-number", "--matrix", "gen:eye:4", "--variant", "plain"])
        assert excinfo.value.code == 1

    def test_identities_command(self, capsys):
        assert cli.main(["identities", "--n", "10", "--trials", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_identities_size_limit(self, capsys):
        assert cli.main(["identities", "--n", "101"]) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "0", "1 <= n <= 100"),
            ("--n", "-3", "1 <= n <= 100"),
            ("--trials", "0", "at least one trial"),
            ("--trials", "-1", "at least one trial"),
        ],
    )
    def test_identities_reject_empty_checks(self, capsys, flag, value, message):
        assert cli.main(["identities", flag, value]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASS" not in captured.out

    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("identity-10", "laplacian1d-1000", "bidiagonal-1000"):
            assert name in out

    def test_python_m_runs_the_cli(self, capsys):
        assert cli.main(["presets"]) == 0
        listing = capsys.readouterr().out
        done = subprocess.run(
            [sys.executable, "-m", "gmres_sv", "presets"],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        assert done.stdout == listing
        assert [line.split(":")[0] for line in listing.splitlines()] == sorted(cli.PRESETS)
