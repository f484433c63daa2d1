import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "trunclap"


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
