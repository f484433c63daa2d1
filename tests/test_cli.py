import csv
import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from trunclap import MechanismParams, lookup_mechanism, moments_lap_exact, pmf_tdl
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
        # 2 * 2^61 * 4 = 2^64 tail indices, more than an int64 row holds,
        # and 6 * 2^61 output steps, past the 2^53 a float64 holds
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

    def test_config_without_a_path_is_usage_error(self, capsys):
        assert run(["sample", "--E", "4", "--L", "2", "--sigma", "1", "--config"]) == 1
        assert "--config needs a file path" in capsys.readouterr().err

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

    def test_zero_sessions_write_an_empty_histogram(self, tmp_path):
        # an empty histogram refuses frequencies, but its counts still serialize
        out = tmp_path / "mpc.json"
        assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--x", "1",
                    "--n", "0", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["sessions"] == 0
        assert data["histogram"]["n"] == 0 and data["histogram"]["counts"] == [0] * 13

    def test_input_outside_bound_is_usage_error(self, capsys):
        # caught before any session runs, not afterwards by the histogram
        assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--x", "6",
                    "--n", "10"]) == 1
        assert "outside [-E, E]" in capsys.readouterr().err

    def test_field_past_a_word_is_usage_error(self, capsys):
        # at p=60 the field exceeds 2^64: the dealer's draw never returned,
        # then its first draw refused it; now the noise plan refuses the
        # set, whose outputs reach past 2^53 steps, before any draw
        for command in (["mpc"], ["sample"]):
            assert run([*command, "--E", "4", "--L", "2", "--sigma", "1", "--p", "60",
                        "--n", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "past the 2^53" in err

    def test_an_uncountable_grid_is_refused_before_any_session(self, capsys):
        # 2^50 * 12 + 1 output points: the histogram's 96 PiB of counts were
        # asked for only after run_batch had drawn every session
        with mock.patch("trunclap.cli.run_batch", side_effect=AssertionError("a session ran")):
            assert run(["mpc", "--E", "4", "--L", "2", "--sigma", "1", "--p", "50",
                        "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Unable to allocate" in err

    def test_segmented_set_runs(self, tmp_path):
        # 2^p * L = 3 steps and 2 * 2^p * E = 6 tail indices: both the inner
        # draw and the tail pick a segment, one comparison and one
        # multiplication each on top of the bitwise E=4/L=2 run's 5 and 5
        out = tmp_path / "mpc.json"
        assert run(["mpc", "--E", "3", "--L", "3", "--sigma", "1", "--n", "200",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        # each count once: histogram.spec gives the grid value of every index
        assert set(data) == {"mechanism", "params", "x", "sessions", "seeds", "histogram",
                             "ledger_per_run"}
        assert sum(data["histogram"]["counts"]) == 200  # every output on the grid
        ledger = data["ledger_per_run"]
        assert (ledger["comparisons"], ledger["multiplications"]) == (7, 7)

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
        # the overlay CSVs take --out's name less its extension: a dot in a
        # directory name sent them beside the directory (run_overlay_x64.csv)
        (tmp_path / "run.d").mkdir()
        out = tmp_path / "run.d" / "report"
        # at n=1e5 the moment envelopes hold comfortably; --n does not touch
        # the overlays, which always draw THRESHOLDS["overlay_n"]
        code = run(["validate", "--n", "100000", "--seed", "2", "--out", str(out)])
        data = json.loads(out.read_text())
        assert len(data["cells"]) == 6
        assert all(c["pass"] for c in data["cells"])
        assert len(data["overlays"]) == 2
        assert all(o["pass"] and o["n"] == THRESHOLDS["overlay_n"] for o in data["overlays"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.d"]
        assert sorted(p.name for p in (tmp_path / "run.d").iterdir()) == [
            "report", "report_overlay_x-32.csv", "report_overlay_x64.csv"]
        # one row per point of the p=2 output grid: the point, its exact
        # mass and its frequency among the overlay's draws, whose TV is the
        # one reported
        params = MechanismParams(E=64, L=32, sigma=8, p=2)
        for overlay in data["overlays"]:
            pmf = pmf_tdl(overlay["x"], params)
            path = tmp_path / "run.d" / f"report_overlay_x{int(overlay['x'])}.csv"
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["y", "theoretical", "empirical"] and len(rows) == 769
            y, theoretical, empirical = np.array(rows, dtype=float).T
            assert y.tolist() == pmf.support().tolist() and y[0] == -96.0
            assert theoretical.tolist() == pmf.masses.tolist()
            counts = np.round(empirical * overlay["n"])
            assert np.array_equal(counts / overlay["n"], empirical)
            assert counts.sum() == overlay["n"]
            assert 0.5 * np.abs(empirical - theoretical).sum() == pytest.approx(overlay["tv"])
        assert code == 0

    def test_failing_cells_and_overlays_are_reported(self, capsys):
        # a moments cell off its theory and an overlay past its bound, with
        # nothing drawn: both are failures, and the exit code says so
        row = {"x": 0.0, "mean_theory": 0.0, "mean_empirical": 1.0,
               "mse_theory": 1.0, "mse_empirical": 1.0}
        check = mock.Mock(tv=0.5, passed=False)
        with mock.patch("trunclap.cli.table1_report", return_value={"rows": [row]}), \
                mock.patch("trunclap.cli.overlay_check", return_value=check):
            assert run(["validate", "--n", "10"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == ["moments cell p=0 x=0.0", "moments cell p=2 x=0.0",
                                      "overlay x=64.0 tv=0.5000", "overlay x=-32.0 tv=0.5000"]
        assert not report["pass"]

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
        ["calibrate", "--epsilon", "1", "--L", "nan"],
        ["calibrate", "--epsilon", "1", "--L", "inf"],
        ["calibrate", "--epsilon", "1", "--regime", "dchi", "--mechanism", "tcl", "--p", "-3"],
        ["moments", "--mechanism", "lap", "--E", "4", "--L", "2", "--sigma", "1", "--x", "nan"],
    ],
    ids=["pmf-sigma-nan", "moments-sigma-inf", "moments-epsilon-nan", "calibrate-nan",
         "calibrate-inf", "kstar-nan", "sample-tcl-negative-n", "sample-tdl-negative-n",
         "calibrate-L-nan", "calibrate-L-inf", "calibrate-dchi-negative-p", "moments-lap-x-nan"],
)
def test_non_finite_or_negative_input_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


@pytest.mark.parametrize("command", [["pmf"], ["mpc", "--n", "1"]])
def test_a_grid_too_large_to_hold_is_usage_error(command, capsys):
    # 2e12 + 5 output points: the pmf's masses and the histogram's counts
    # would take 14.6 TiB, and numpy refuses the allocation
    assert run([*command, "--E", "1e12", "--L", "2", "--sigma", "1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: Unable to allocate")


@pytest.mark.parametrize("command", [["moments"], ["sample", "--n", "3"]])
def test_a_huge_input_bound_runs_where_no_grid_is_held(command, capsys):
    assert run([*command, "--E", "1e12", "--L", "2", "--sigma", "1"]) == 0
    assert capsys.readouterr().out


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
    params = MechanismParams(E=4.0, L=2.0, sigma=float(sigma), p=0)
    assert lookup_mechanism(mech).moments(1.0, params)[0] == (1.0 if mech == "tdl" else 0.5)
    # e^(L/sigma) is past a double too, and so is TCL's ratio e^(L/sigma)
    # (1 - e^-a) / a (a = 1/sigma), so `moments` has no ratio to print
    assert run(["moments", *args]) == 1
    refusal = {"tdl": "the privacy ratio e^eps needs eps = L/sigma <= ln(DBL_MAX)",
               "tcl": "the privacy ratio e^eps (1 - e^(-a)) / a of tcl is past a double"}
    assert refusal[mech] in capsys.readouterr().err
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
        "15654634d29b39372db3567f65591858b42c3d4ae332a9a45c51ce55b4c6a327",
    ),
    "mpc-tcl-small.json": (
        ["mpc", "--mechanism", "tcl", *SMALL, "--x", "-2", "--n", "200", "--seed", "5",
         "--transcript"],
        "9b6b71f6a3cf6bd5b41c12f8c3b8fd672993742c0ef950d54fef1a9d2b27c37d",
    ),
    "mpc-tdl-wide.json": (
        ["mpc", *WIDE, "--x", "-32", "--n", "200", "--seed", "7", "--transcript"],
        "daf878fc93a96158178c4ff02f40c663705a98cb8beca4afe06e4a4276c8cbb9",
    ),
    "mpc-tcl-wide.json": (
        ["mpc", "--mechanism", "tcl", *WIDE, "--x", "63.75", "--n", "200", "--seed", "7",
         "--transcript"],
        "aecf2a62667a7c9ed92093eb6246f68b1d390537ba423c042b9c3496cc60801c",
    ),
    # TDL with a segmented inner draw and TCL, both with outer count 6,
    # whose tail index picks one of two segments (4 + 2): the shapes whose
    # tail once rejected (the TCL names keep the gamma0 of the lattice TCL
    # once drew on)
    "sample-tdl-table-outer6.csv": (
        ["sample", "--E", "3", "--L", "3", "--sigma", "1", "--x", "1", "--n", "500",
         "--seed", "11"],
        "70e5b561c719ddcf9ba382ac153684fd74a2f52e406eb963c72438b1d04035ba",
    ),
    "sample-tcl-gamma0-outer6.csv": (
        ["sample", "--mechanism", "tcl", "--E", "3", "--L", "2", "--sigma", "1",
         "--x", "-1", "--n", "500", "--seed", "12"],
        "896cb0fb393c0ce2c397a19f06027583b2ca6d04f3e848ad8c5e31465c98eedc",
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
