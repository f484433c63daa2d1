import ast
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
