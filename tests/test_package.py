import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "trunclap"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one guards nothing
    paths = sorted(SOURCE.rglob("*.py"))
    # a moved source tree must fail here, not pass on zero files
    assert SOURCE / "mpc" / "core.py" in paths
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/trunclap: {found}"


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # hypothesis's failure report imports modules that warn on import; under
    # the suite's warning filters that must not become an internal error
    # that ends the whole run
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers(0, 10))
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """))
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert r.returncode == 1, r.stdout[-2000:] + r.stderr[-2000:]
    assert "Falsifying example" in r.stdout
    assert "1 failed, 1 passed" in r.stdout


def test_every_name_the_benchmark_imports_resolves():
    # perfbench is frozen between benchmark changes: a name it imports from
    # trunclap, or reads off `core`, must not vanish from the package
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    assert ROOT / "perfbench" / "workloads.py" in paths
    wanted = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trunclap"):
                wanted.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "core":
                wanted.add(("trunclap.mpc.core", node.attr))
    assert ("trunclap", "sample_dlap_centered") in wanted
    assert ("trunclap.mpc.core", "SHARE_ROUNDS") in wanted
    missing = []
    for module, name in sorted(wanted):
        mod = importlib.import_module(module)
        if not hasattr(mod, name) and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{module}.{name}")
    assert missing == [], f"names perfbench imports that trunclap lacks: {missing}"


def test_the_benchmark_counts_gate_passes(monkeypatch):
    # perfbench's counts pass (replays, ledgers, word counts) refuses a run
    # whose problems list is not empty, and perfbench's own tests never run
    # it: run it here on the seed and size perfbench/run.py uses (COUNT_SIZE)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import WORKLOADS

    assert sorted(WORKLOADS) == ["mpc-batch", "mpc-online", "plaintext-exact"]
    for name, workload in WORKLOADS.items():
        assert workload(11).counts(24)["problems"] == [], name


def test_the_package_imports_only_numpy_and_the_standard_library():
    # a lazy import on a path the child below does not run fails here too
    paths = sorted(SOURCE.rglob("*.py"))
    assert SOURCE / "mpc" / "core.py" in paths
    allowed = set(sys.stdlib_module_names) | {"numpy", "trunclap"}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SOURCE)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] not in allowed]
    assert found == [], f"imports outside numpy and the standard library: {found}"


# Every public path, the chi-square p-value and the continuous moments
# among them, in a fresh interpreter: the suite's conftest imports scipy,
# so only a child that has never loaded it can see an import of it.
NUMPY_ONLY_CHILD = textwrap.dedent("""
    import io
    import math
    import os
    import sys
    import tempfile
    from contextlib import redirect_stdout

    from trunclap import (TCL, TDL, Histogram, MechanismParams, RandomTape, calibrate, cli,
                          fit_report, max_privacy_ratio, moments_lap, moments_lap_exact,
                          moments_tcl, moments_tdl, pmf_tcl, pmf_tdl, sample_batch, sample_tcl,
                          sample_tdl, tv_distance)
    from trunclap.mpc import make_session, pi_noise, pi_perturb, run_batch
    from trunclap.tape import BATCH_MIN_SESSIONS
    from trunclap.validation import chi_square

    P = MechanismParams(E=4.0, L=2.0, sigma=1.0, p=0)
    for mech in (TDL, TCL):
        run_batch(mech.name, P, 0.0, 20, 1, 2)
        session = make_session(P, mech.name)
        # the pair after the first BATCH_MIN_SESSIONS comes from a pooled block
        pairs = [pi_noise(session, mech, P) for _ in range(BATCH_MIN_SESSIONS + 1)]
        session.open(pi_perturb(session, mech, session.share(0), pairs[-1], P))
        sample_batch(mech, 0.0, P, 100, 3)
        mech.moments(0.0, P)
        max_privacy_ratio(mech.name, P)
        calibrate(1.0, mech.name, L=2.0)
    sample_tdl(0.0, P, RandomTape(4))
    sample_tcl(0.0, P, RandomTape(5))
    moments_tdl(1.0, P)
    moments_tcl(1.0, P)
    pmf_tcl(0.0, P)
    f = pmf_tdl(0.0, P)
    h = Histogram.from_samples(sample_batch(TDL, 0.0, P, 2000, 6), f.spec)
    tv_distance(h, f)
    values = [*moments_lap(0.5, P), *moments_lap_exact(0.5, P), *chi_square(h, f),
              fit_report(h, f).chi2_pvalue]
    assert all(math.isfinite(v) for v in values)
    flags = ["--E", "4", "--L", "2", "--sigma", "1", "--n", "10"]
    with tempfile.TemporaryDirectory() as d:
        for command in ("sample", "mpc"):
            assert cli.main([command, *flags, "--out", os.path.join(d, command)]) == 0
    with redirect_stdout(io.StringIO()):
        assert cli.main(["moments", "--mechanism", "lap", *flags[:6]]) == 0
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert scipy == [], scipy
    print("ok")
""")


def test_no_public_path_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, "-c", NUMPY_ONLY_CHILD], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0 and r.stdout == "ok\n", r.stdout[-2000:] + r.stderr[-2000:]
