import json

import pytest

from trunclap.cli import main
from trunclap.thresholds import THRESHOLDS


def run(argv):
    return main(argv)


class TestCalibrate:
    def test_reference_point(self, capsys):
        assert run(["calibrate", "--epsilon", "1.3", "--L", "64"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 49.2 <= out["sigma"] <= 49.3

    def test_dchi(self, capsys):
        assert run(["calibrate", "--epsilon", "1.0", "--regime", "dchi",
                    "--mechanism", "tcl", "--p", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["sigma"] == 2.0

    def test_kstar(self, capsys):
        assert run(["calibrate", "--epsilon", "1.0", "--regime", "kstar",
                    "--E", "64"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 32.0 < out["sigma"] < 64.0 and "kstar" in out

    def test_missing_L_is_usage_error(self, capsys):
        assert run(["calibrate", "--epsilon", "1.0"]) == 1


class TestMoments:
    def test_reference_cell(self, capsys):
        assert run(["moments", "--E", "64", "--L", "32", "--sigma", "8",
                    "--p", "0", "--x", "-32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean"] == pytest.approx(-25.75, abs=0.01)
        assert out["mse"] == pytest.approx(870.75, abs=0.01)

    def test_epsilon_form(self, capsys):
        assert run(["moments", "--E", "64", "--L", "32", "--epsilon", "4",
                    "--p", "0", "--x", "-32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["sigma"] == 8.0

    def test_sigma_and_epsilon_conflict(self):
        assert run(["moments", "--E", "4", "--L", "2", "--sigma", "1",
                    "--epsilon", "2"]) == 1

    def test_misaligned_params_usage_error(self):
        assert run(["moments", "--E", "4.3", "--L", "2", "--sigma", "1"]) == 1


class TestPmf:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert run(["pmf", "--mechanism", "tcl", "--E", "4", "--L", "2",
                    "--sigma", "1", "--p", "0", "--x", "0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y,mass"
        assert len(lines) == 13  # half-open 12-point support + header


class TestSample:
    def test_empty_stream_has_header(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--E", "4", "--L", "2", "--sigma", "1",
                    "--n", "0", "--out", str(out)]) == 0
        assert out.read_text() == "value\r\n" or out.read_text() == "value\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--E", "4", "--L", "2", "--sigma", "1", "--x", "1",
                "--n", "500", "--seed", "9"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_flags_table_fallback(self, capsys):
        assert run(["sample", "--E", "4", "--L", "3", "--sigma", "1",
                    "--n", "4", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inner_sampler"] == "table"


class TestMpc:
    def test_histogram_and_ledger(self, tmp_path):
        out = tmp_path / "mpc.json"
        assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--x", "1",
                    "--n", "200", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert sum(data["histogram"]["counts"]) == 200
        assert data["ledger_per_run"]["multiplications"] == 5

    def test_input_outside_bound_is_usage_error(self, capsys):
        # caught before any session runs, not afterwards by the histogram
        assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--x", "6",
                    "--n", "10"]) == 1
        assert "outside [-E, E]" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mpc", "--mechanism", "tcl", "--E", "4", "--L", "2", "--sigma", "1",
                "--n", "50", "--seed", "3", "--gamma", "4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_ledger_table(self, capsys):
        assert run(["bench"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["ledgers"]) == 4
        for row in data["ledgers"]:
            assert row["multiplications"] >= 5
            assert row["comparisons"] >= 1


class TestValidate:
    def test_reduced_n_passes(self, tmp_path):
        out = tmp_path / "report.json"
        # at n=1e5 the moment envelopes hold comfortably; --n does not touch
        # the overlays, which always draw THRESHOLDS["overlay_n"]
        code = run(["validate", "--n", "100000", "--seed", "2", "--out", str(out)])
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 6
        assert all(c["pass"] for c in data["cells"])
        assert len(data["overlays"]) == 2
        assert all(o["pass"] and o["n"] == THRESHOLDS["overlay_n"] for o in data["overlays"])
        assert (tmp_path / "report_overlay_x64.csv").exists()
        assert code == 0

    def test_usage_error_exit_code(self):
        assert run(["nonsense"]) == 1
