import hashlib
import json
from unittest import mock

import pytest

from trunclap import MechanismParams, moments_lap_exact
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

    def test_kstar_without_E_is_usage_error(self, capsys):
        assert run(["calibrate", "--epsilon", "1.0", "--regime", "kstar"]) == 1
        assert "kstar calibration needs --E" in capsys.readouterr().err


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

    def test_lap_reports_the_exact_mse_beside_the_bound(self, capsys):
        assert run(["moments", "--mechanism", "lap", "--E", "4", "--L", "2", "--sigma", "1",
                    "--x", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        params = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
        assert out["mse_exact"] == moments_lap_exact(1.0, params)[1]
        # the display (2.0) falls below the exact value (7.71) here
        assert out["mse"] == 2.0 and out["mse_exact"] == pytest.approx(7.711, abs=1e-3)
        assert out["mse_is_upper_bound"] is False
        assert run(["moments", "--mechanism", "lap", "--E", "4", "--L", "2",
                    "--sigma", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["mse_is_upper_bound"] is True


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
        assert out["inner_sampler"] == "segmented"

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

    def test_gamma_is_no_flag(self, capsys):
        # TCL draws on the 2^-p grid: no command takes an inner lattice
        for command in (["sample"], ["mpc"], ["bench"]):
            argv = command + (["--E", "4", "--L", "2", "--sigma", "1"] if command != ["bench"] else [])
            assert run(argv + ["--gamma", "8"]) == 1
            assert "--gamma" in capsys.readouterr().err

    def test_fine_lattice_of_any_step_count_samples(self, capsys):
        # p = 24 on L = 3: 3 * 2^24 fine steps, two segments
        assert run(["sample", "--mechanism", "tcl", "--E", "4", "--L", "3", "--sigma", "1",
                    "--p", "24", "--n", "20", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inner_sampler"] == "segmented"
        assert len(out["values"]) == 20 and all(-7 <= v < 7 for v in out["values"])


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
                "--n", "50", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_ledger_table(self, capsys):
        # (comparisons, multiplications) of one run: TCL's inner draw has
        # no zero flag and so no blend, one of each below TDL's; at p=2
        # (kappa = 7) TCL runs 9 + 2 offline and 1 + 2 online
        assert run(["bench"]) == 0
        data = json.loads(capsys.readouterr().out)
        counts = {(r["mechanism"], r["p"]): (r["comparisons"], r["multiplications"])
                  for r in data["ledgers"]}
        assert counts == {("tdl", 0): (9, 5), ("tcl", 0): (8, 4),
                          ("tdl", 2): (11, 5), ("tcl", 2): (10, 4)}


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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fewer_than_one_draw_is_usage_error(self, n, tmp_path, capsys):
        out = tmp_path / "report.json"
        with mock.patch("trunclap.cli.table1_report") as table:
            assert run(["validate", "--n", n, "--out", str(out)]) == 1
        table.assert_not_called()
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


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


@pytest.mark.parametrize("command", ["pmf", "sample", "mpc"])
def test_lap_is_refused_by_the_discrete_commands(command, capsys):
    argv = [command, "--mechanism", "lap", "--E", "4", "--L", "2", "--sigma", "1"]
    assert run(argv) == 1
    assert "discrete mechanisms" in capsys.readouterr().err


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
        "081feb5d93c4e54c02268b3687b0a47ca536461df603c4c3fde63f8fcad05d73",
    ),
    "sample-tcl-gamma0.csv": (
        ["sample", "--mechanism", "tcl", *SMALL, "--n", "500", "--seed", "5"],
        "720428e5d6a96b9cd4a86f61664bb634d5839f4f8725f7993438004b50f5e236",
    ),
    "mpc-tdl-small.json": (
        ["mpc", *SMALL, "--x", "1", "--n", "200", "--seed", "5", "--transcript"],
        "bd34c01a09764315bf9092639dc4b1998dbaa908ca3d2a33ec64224aaf6ba579",
    ),
    "mpc-tcl-small.json": (
        ["mpc", "--mechanism", "tcl", *SMALL, "--x", "-2", "--n", "200", "--seed", "5",
         "--transcript"],
        "f67e00d0e07adef0161020066568e00ec281b0082c3d7ad005c6c1c877881a09",
    ),
    "mpc-tdl-wide.json": (
        ["mpc", *WIDE, "--x", "-32", "--n", "200", "--seed", "7", "--transcript"],
        "92fed94a6794b8ec56a89d562eb74e08ffdb7f1f2a17068f4990dad38e15570c",
    ),
    "mpc-tcl-wide.json": (
        ["mpc", "--mechanism", "tcl", *WIDE, "--x", "63.75", "--n", "200", "--seed", "7",
         "--transcript"],
        "9e49e0f844ac0eddc3238574bc089a0c340dbd933ff20210e7b641d79f821c08",
    ),
    # TDL with a segmented inner draw and TCL, both with outer count 6,
    # whose tail draws reject a quarter of first attempts: the shapes that
    # ran sequentially before every sample_batch ran in blocks (the TCL
    # names keep the gamma0 of the lattice TCL once drew on)
    "sample-tdl-table-outer6.csv": (
        ["sample", "--E", "3", "--L", "3", "--sigma", "1", "--x", "1", "--n", "500",
         "--seed", "11"],
        "3f3b46ca000a9471e26135d1d58089de7c255197c0f2ed4607a2ad1829719685",
    ),
    "sample-tcl-gamma0-outer6.csv": (
        ["sample", "--mechanism", "tcl", "--E", "3", "--L", "2", "--sigma", "1",
         "--x", "-1", "--n", "500", "--seed", "12"],
        "e25173617c0a9601329aa7e9fb1792657e9d66351c927129eb4b2d751f720333",
    ),
    "bench.json": (
        ["bench"],
        "9286dbb422b306227aa657a81013146a9e3e50da086c8a881d92a9e6cc31cb44",
    ),
    "bench.csv": (
        ["bench", "--format", "csv", "--x", "1", "--seed", "4"],
        "841b5fab7a21130cf5884b811b9639f43e11b6ee86d724f701306b6b247191b6",
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
