import ast
from pathlib import Path

import trunclap


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one guards nothing
    root = Path(trunclap.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in trunclap: {found}"
