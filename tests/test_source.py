import ast
from pathlib import Path

import vlaps

SOURCES = sorted(Path(vlaps.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes;
    # the package raises a VlapsError subclass instead
    assert len(SOURCES) >= 8
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
