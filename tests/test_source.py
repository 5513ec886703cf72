import ast
from pathlib import Path

import gkmflag

PACKAGE = Path(gkmflag.__file__).parent


def test_library_has_no_assert_statements():
    """Library invariants raise explicitly, so ``python -O`` keeps them."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
