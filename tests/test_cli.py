"""End-to-end tests for the command-line front end, driven through main()."""

import itertools
import json
import math

import numpy as np
import pytest

from crossclust import worst_case_matrix
from crossclust.cli import main


def write_matrix(path, matrix):
    lines = [",".join(f"{v:g}" for v in row) for row in np.asarray(matrix)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def wc2_csv(tmp_path):
    return write_matrix(tmp_path / "wc2.csv", worst_case_matrix(2).values)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestRun:
    def test_worst_case_q2(self, capsys, wc2_csv):
        code, rep = run_json(
            capsys, ["run", "--input", wc2_csv, "--kr", "2", "--kc", "1", "--norm", "l1"]
        )
        assert code == 0
        assert rep["l"] == 14
        assert rep["l_r"] == 6
        assert rep["rows_clusters"] == [[1, 2], [3, 4]]
        assert rep["bicluster_costs"] == [[7], [7]]
        assert isinstance(rep["l"], int)  # binary L1 costs print as integers

    def test_full_singletons(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "m.csv", [[0, 1, 1], [1, 0, 1]])
        code, rep = run_json(
            capsys, ["run", "--input", path, "--kr", "2", "--kc", "3"]
        )
        assert code == 0
        assert rep["l"] == 0

    def test_malformed_csv_exits_3_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,0,1\n")
        code = main(["run", "--input", str(path)])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_csv_exits_3_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,1\r\n1,0\r\n0.5,\xe9\r\n")
        code = main(["run", "--input", str(path)])
        assert code == 3
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["run", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_cap_exceeded_exits_4(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "tall.csv", np.zeros((15, 2)) + np.eye(15, 2))
        code = main(["run", "--input", path, "--kr", "2", "--kc", "1", "--mode", "exact"])
        assert code == 4

    def test_heuristic_mode_has_no_cap(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        path = write_matrix(tmp_path / "tall.csv", rng.integers(0, 2, size=(15, 3)))
        code, rep = run_json(
            capsys,
            ["run", "--input", path, "--kr", "3", "--kc", "2", "--mode", "heuristic",
             "--restarts", "2", "--seed", "5"],
        )
        assert code == 0
        assert rep["mode"] == "heuristic"
        assert rep["l"] >= 0

    def test_non_finite_csv_exits_3_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\nnan,0\n")
        assert main(["run", "--input", str(path)]) == 3
        assert "line 2: non-finite value" in capsys.readouterr().err

    def test_internal_check_exits_5_without_traceback(self, capsys, tmp_path, monkeypatch):
        # Lloyd raises a bare CrossclustError if its objective rises; make
        # every distance larger than the last so that the check fires
        from crossclust import oneway

        calls = itertools.count(1)

        def rising(points, center, norm):
            return np.full(len(points), float(next(calls)))

        monkeypatch.setattr(oneway, "_distances", rising)
        path = write_matrix(tmp_path / "m.csv", np.eye(4))
        code = main(["run", "--input", path, "--mode", "heuristic", "--restarts", "1"])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error: internal error: clustering objective rose")
        assert "Traceback" not in err

    def test_invalid_k_exits_3(self, capsys, wc2_csv):
        assert main(["run", "--input", wc2_csv, "--kr", "0"]) == 3

    def test_csv_format(self, capsys, wc2_csv):
        code = main(
            ["run", "--input", wc2_csv, "--kr", "2", "--kc", "1", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "l_r" in header and "command" in header


class TestExact:
    def test_worst_case_q2(self, capsys, wc2_csv):
        code, rep = run_json(
            capsys, ["exact", "--input", wc2_csv, "--kr", "2", "--kc", "1"]
        )
        assert code == 0
        assert rep["l_star"] == 8
        assert rep["rows_clusters"] == [[1, 3], [2, 4]]


class TestRatio:
    def test_worst_case_q2(self, capsys, wc2_csv):
        code, rep = run_json(
            capsys, ["ratio", "--input", wc2_csv, "--kr", "2", "--kc", "1"]
        )
        assert code == 0
        assert rep["ratio"] == pytest.approx(1.75)
        assert rep["certified"] is True
        assert rep["alpha_bound"] == pytest.approx(1 + math.sqrt(2))

    def test_constant_matrix(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "c.csv", np.zeros((3, 3)))
        code, rep = run_json(capsys, ["ratio", "--input", path, "--kr", "2", "--kc", "2"])
        assert code == 0
        assert rep["ratio"] == 1.0

    def test_random_binary_within_bound(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        path = write_matrix(tmp_path / "r.csv", rng.integers(0, 2, size=(5, 5)))
        code, rep = run_json(capsys, ["ratio", "--input", path, "--kr", "2", "--kc", "2"])
        assert code == 0
        assert rep["ratio"] <= 2.4143

    def test_l1_real_uncertified(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "r.csv", [[0.1, 0.7], [0.9, 0.4]])
        code, rep = run_json(capsys, ["ratio", "--input", path, "--norm", "l1"])
        assert code == 0
        assert rep["alpha_bound"] is None
        assert rep["certified"] is None


class TestWorstcase:
    def test_q2(self, capsys):
        code, rep = run_json(capsys, ["worstcase", "--q", "2"])
        assert code == 0
        assert rep["passed"] is True
        assert rep["l"] == 14 and rep["l_star"] == 8

    def test_q100_csv(self, capsys):
        code = main(["worstcase", "--q", "100", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.995" in out


class TestSweep:
    def test_binary_sweep_within_bound(self, capsys):
        code, rep = run_json(
            capsys,
            ["sweep", "--count", "100", "--rows", "4", "--cols", "4", "--kr", "2",
             "--kc", "2", "--norm", "l1", "--seed", "11"],
        )
        assert code == 0
        assert rep["summary"]["violations"] == 0
        assert rep["summary"]["max_ratio"] <= 1 + math.sqrt(2) + 1e-9
        assert len(rep["instances"]) == 100

    def test_real_sweep_uniform(self, capsys):
        code, rep = run_json(
            capsys,
            ["sweep", "--count", "100", "--rows", "4", "--cols", "4", "--kr", "2",
             "--kc", "2", "--norm", "l2", "--seed", "4"],
        )
        assert code == 0
        assert rep["summary"]["violations"] == 0
        assert rep["summary"]["max_ratio"] <= 2.0 + 1e-9

    def test_real_sweep_planted(self, capsys):
        code, rep = run_json(
            capsys,
            ["sweep", "--count", "10", "--rows", "4", "--cols", "4", "--kr", "2",
             "--kc", "2", "--norm", "l2", "--planted", "--seed", "4"],
        )
        assert code == 0
        assert rep["summary"]["violations"] == 0
        assert rep["summary"]["max_ratio"] <= 2.0 + 1e-9
        assert rep["planted"] is True
        assert rep["instances"][0]["planted"] is True

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--count", "12", "--norm", "l1", "--seed", "21", "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert len(lines) == 14  # header + 12 instances + summary
        assert lines[-1].startswith("summary")


class TestInstalledEntryPoint:
    def test_module_invocation_and_exit_code(self, tmp_path):
        import subprocess
        import sys

        path = write_matrix(tmp_path / "m.csv", worst_case_matrix(1).values)
        proc = subprocess.run(
            [sys.executable, "-m", "crossclust.cli", "ratio", "--input", path,
             "--kr", "2", "--kc", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["ratio"] == pytest.approx(1.5)
        bad = subprocess.run(
            [sys.executable, "-m", "crossclust.cli", "run", "--input",
             str(tmp_path / "missing.csv")],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == 2


class TestVerifyBounds:
    def test_default_battery_passes(self, capsys):
        code, rep = run_json(capsys, ["verify-bounds"])
        assert code == 0
        assert rep["passed"] is True
        names = {b["name"] for b in rep["batteries"]}
        assert len(names) == 5
        alpha = next(b for b in rep["batteries"] if "alpha" in b)
        assert alpha["alpha"] == pytest.approx(1 + math.sqrt(2), abs=1e-9)

    def test_smaller_battery_passes(self, capsys):
        code, rep = run_json(
            capsys, ["verify-bounds", "--count", "40", "--resolution", "100", "--seed", "2"]
        )
        assert code == 0
        assert rep["passed"] is True

    def test_resolution_2_still_exact(self, capsys):
        code, rep = run_json(
            capsys, ["verify-bounds", "--count", "10", "--resolution", "2", "--seed", "2"]
        )
        assert code == 0
        alpha = next(b for b in rep["batteries"] if "alpha" in b)
        assert alpha["alpha"] == pytest.approx(1 + math.sqrt(2), abs=1e-9)

    def test_deterministic(self, capsys):
        argv = ["verify-bounds", "--count", "15", "--resolution", "50", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
