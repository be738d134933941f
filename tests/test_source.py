import ast
import re
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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    success, wall_time = capsys.readouterr().out.split()
    assert success in ("True", "False") and float(wall_time) > 0


def _module_level_assignments(tree):
    """Assignments run at import time: outside any function or class body."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            yield stmt
        else:
            stack.extend(node for node in ast.iter_child_nodes(stmt)
                         if isinstance(node, ast.stmt))


def test_no_module_level_instances_of_package_classes():
    # an instance made at import time is state shared by every caller, like
    # a global counter; the package keeps such state on the objects it passes
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert {"MacroLibrary", "SearchConfig", "BlockNavEnv"} <= classes
    found = []
    for path, tree in trees.items():
        for stmt in _module_level_assignments(tree):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in classes:
                    found.append(f"{path.name}:{stmt.lineno} calls {name}")
    assert found == []
