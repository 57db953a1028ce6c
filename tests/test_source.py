import ast
from pathlib import Path

import estermann

PACKAGE = Path(estermann.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a correctness check written as
    # one would vanish; the package raises its errors explicitly instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.rglob("*.py"))) > 5
    assert found == []
