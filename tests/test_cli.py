import hashlib
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

    def test_csv_and_json(self, tmp_path):
        args = ["pmf", "--E", "4", "--L", "2", "--sigma", "1", "--x", "0"]
        assert run(args + ["--out", str(tmp_path / "pmf.csv")]) == 0
        lines = (tmp_path / "pmf.csv").read_text().strip().splitlines()
        assert lines[0] == "y,mass"
        assert len(lines) == 13 + 1
        assert run(args + ["--format", "json", "--out", str(tmp_path / "pmf.json")]) == 0
        data = json.loads((tmp_path / "pmf.json").read_text())
        assert data["spec"] == {"p": 0, "B": 6.0, "half_open": False}
        assert len(data["masses"]) == 13


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

    def test_branch_threshold_of_two_to_the_64(self, capsys):
        # the branch probability rounds to 1.0: its threshold is 2^64
        assert run(["sample", "--E", "1", "--L", "64", "--sigma", "1", "--n", "50",
                    "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["values"]) == 50

    def test_tail_past_a_word_is_usage_error(self, capsys):
        # 2 * 2^61 * 4 = 2^64 tail indices: more than an int64 row holds
        assert run(["sample", "--E", "4", "--L", "2", "--sigma", "1", "--p", "61",
                    "--n", "10"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_oversized_table_is_usage_error(self, capsys):
        # gamma = 24 on L = 3 would need a 10^8-cell table: refused up front
        assert run(["sample", "--mechanism", "tcl", "--E", "4", "--L", "3",
                    "--sigma", "1", "--gamma", "24", "--n", "1"]) == 1
        assert "cells" in capsys.readouterr().err


class TestConfig:
    @staticmethod
    def config(tmp_path, obj):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_explicit_flag_overrides_in_either_form(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"E": 4, "L": 2, "sigma": 1, "n": 3})
        for flag in (["--E", "2"], ["--E=2"]):
            assert run(["sample", "--config", cfg, *flag, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["params"]["E"] == 2.0

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        cfg = self.config(tmp_path, ["E"])
        assert run(["sample", "--config", cfg, "--E", "4", "--L", "2", "--sigma", "1"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_boolean_is_a_bare_flag_or_left_out(self, tmp_path):
        for value in (True, False):
            cfg = self.config(tmp_path, {"E": 4, "L": 2, "sigma": 1, "n": 10,
                                         "transcript": value})
            out = tmp_path / "mpc.json"
            assert run(["mpc", "--config", cfg, "--out", str(out)]) == 0
            assert ("transcript" in json.loads(out.read_text())) is value


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

    def test_field_past_a_word_is_usage_error(self, capsys):
        # at p=60 the field exceeds 2^64: the dealer's draw never returned
        assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--p", "60",
                    "--n", "1"]) == 1
        assert "64-bit word cannot draw" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--E", "4", "--L", "2", "--sigma", "nan"],
        ["moments", "--E", "4", "--L", "2", "--sigma", "inf"],
        ["moments", "--E", "4", "--L", "2", "--epsilon", "nan"],
        ["calibrate", "--epsilon", "nan", "--L", "2"],
        ["calibrate", "--epsilon", "inf", "--L", "2"],
        ["calibrate", "--epsilon", "nan", "--regime", "kstar", "--E", "4"],
        ["sample", "--mechanism", "tcl", "--E", "4", "--L", "2", "--sigma", "1", "--n", "-5"],
        ["sample", "--E", "4", "--L", "2", "--sigma", "1", "--n", "-5"],
    ],
    ids=["pmf-sigma-nan", "moments-sigma-inf", "moments-epsilon-nan", "calibrate-nan",
         "calibrate-inf", "kstar-nan", "sample-tcl-negative-n", "sample-tdl-negative-n"],
)
def test_non_finite_or_negative_input_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("mech", ["tdl", "tcl"])
@pytest.mark.parametrize("sigma", ["0.0014", "0.001"])
def test_sigma_around_the_expm1_overflow(mech, sigma, capsys):
    # 1/sigma = 714 and 1000 straddle 709.78, where e^(2^-p/sigma)
    # overflows a double: TDL is then a point mass, TCL two half cells
    # (next to subnormal masses at 1/sigma = 714)
    args = ["--mechanism", mech, "--E", "4", "--L", "2", "--sigma", sigma, "--x", "1"]
    assert run(["pmf", *args]) == 0
    masses = dict(line.split(",") for line in capsys.readouterr().out.split()[1:])
    expected = {"1.0": 1.0} if mech == "tdl" else {"0.0": 0.5, "1.0": 0.5}
    assert {y: float(m) for y, m in masses.items() if float(m) > 1e-300} == pytest.approx(expected)
    assert run(["moments", *args]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean"] == (1.0 if mech == "tdl" else 0.5)
    assert run(["sample", *args, "--n", "50", "--seed", "3"]) == 0
    values = {float(v) for v in capsys.readouterr().out.split()[1:]}
    assert values and values <= {float(y) for y in expected}


SMALL = ["--E", "4", "--L", "2", "--sigma", "1"]
WIDE = ["--E", "64", "--L", "32", "--sigma", "8", "--p", "2"]
# sha256 of seeded artifacts.  They hold only grid values, integers and
# hex, so no float formatting enters: a change to any draw, ledger charge
# or transcript element changes a digest.
PINNED = {
    "sample-tdl.csv": (
        ["sample", *SMALL, "--x", "1", "--n", "500", "--seed", "9"],
        "a375307d891dac0ca5e6501c7b4682dc1914e72f371d009e9693fefb089cdfd2",
    ),
    "sample-tcl-wide.json": (
        ["sample", "--mechanism", "tcl", *WIDE, "--x", "-32", "--n", "300", "--seed", "3",
         "--format", "json"],
        "af14c39f4500d91740b65e0308a3fe8cc7ae861749f5f42589d4191e020ba3cb",
    ),
    "sample-tcl-gamma0.csv": (
        ["sample", "--mechanism", "tcl", *SMALL, "--gamma", "0", "--n", "500", "--seed", "5"],
        "a7cf1ae305dcff95b467fa96e3b42eb926314c3ee56212eb7be03dacdd5d0a56",
    ),
    "mpc-tdl-small.json": (
        ["mpc", *SMALL, "--x", "1", "--n", "200", "--seed", "5", "--transcript"],
        "80eab9f5cfbdccc2887e55ad683755a67799449560b61509263d40d7a78be4d7",
    ),
    "mpc-tcl-small.json": (
        ["mpc", "--mechanism", "tcl", *SMALL, "--x", "-2", "--n", "200", "--seed", "5",
         "--transcript"],
        "285ff0259e371443d8863148d6c0a67d451d63bcac5d09d2b83065bc7865cefa",
    ),
    "mpc-tdl-wide.json": (
        ["mpc", *WIDE, "--x", "-32", "--n", "200", "--seed", "7", "--transcript"],
        "374c9d35d5a7e00661193529146e9372959117fe303493d2d5d6923d5ad25dda",
    ),
    "mpc-tcl-wide.json": (
        ["mpc", "--mechanism", "tcl", *WIDE, "--x", "63.75", "--n", "200", "--seed", "7",
         "--transcript"],
        "952e1b34982fe4778dbb1fcfb1a232cce82ea7d91e5f030941afdd4eb450ffa0",
    ),
    # TDL with a table inner draw and outer count 6, and TCL at gamma=0 with
    # +L redraws and outer count 6: the shapes that ran sequentially before
    # every sample_batch ran in blocks
    "sample-tdl-table-outer6.csv": (
        ["sample", "--E", "3", "--L", "3", "--sigma", "1", "--x", "1", "--n", "500",
         "--seed", "11"],
        "be287fee6c103c1ae2d055abd266431ba6cba54a533b34f86ce69f5988225859",
    ),
    "sample-tcl-gamma0-outer6.csv": (
        ["sample", "--mechanism", "tcl", "--E", "3", "--L", "2", "--sigma", "1", "--gamma",
         "0", "--x", "-1", "--n", "500", "--seed", "12"],
        "5c13424d2e8d6369da2a810aad4ecd579fb13251a7c79adae0e9ba6b95239948",
    ),
    "bench.json": (
        ["bench"],
        "bbd1a32207a03f2e47dc582279cf3e6a7efa98572d9d788d0080381b9e1e8389",
    ),
    "bench.csv": (
        ["bench", "--format", "csv", "--x", "1", "--seed", "4", "--gamma", "4"],
        "0a057407e9f695cf5de2c92745bd688b1c9d2e5ea371040ac8fc6035f2d1a583",
    ),
}


def artifact_digest(name, directory) -> str:
    """sha256 of the pinned artifact `name`, written into `directory`."""
    out = directory / name
    assert run(PINNED[name][0] + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_artifact_bytes_are_pinned(name, tmp_path):
    assert artifact_digest(name, tmp_path) == PINNED[name][1]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PINNED):
            print(f"{name:30}", artifact_digest(name, Path(tmp)))
