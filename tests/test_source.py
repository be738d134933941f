import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import vlaps
from vlaps.harness import SuiteConfig, default_library
from vlaps.search import SearchConfig
from vlaps.world import BlockNavEnv, RegionGoal, WorldModel, _region_goal

SOURCES = sorted(Path(vlaps.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()


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


def test_no_package_module_calls_tolist_on_values():
    # BlockNav state values are a list of floats; a `.values.tolist()` would
    # mean an array form of the state had come back, with a round trip per step
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "tolist"
                    and isinstance(func.value, ast.Attribute) and func.value.attr == "values"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imports(path):
    """(top-level module, line) for each module an import statement names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        yield from ((name.split(".")[0], node.lineno) for name in names)


def test_only_errors_imports_numbers():
    # the field-type rule is errors.check_fields; a module that imports
    # numbers would be writing a second one
    importers = [path.name for path in SOURCES for name, _ in _imports(path)
                 if name == "numbers"]
    assert importers == ["errors.py"]


def test_no_package_module_imports_scipy():
    # the library's distances are computed in numpy to cdist's bytes; SciPy
    # is a test dependency only, and its import costs a process about 36 MB
    importers = [f"{path.name}:{line}" for path in SOURCES for name, line in _imports(path)
                 if name == "scipy"]
    assert importers == []


def test_cli_import_loads_no_scipy_module():
    # a fresh interpreter, since this test process has SciPy loaded already
    script = ("import sys, vlaps.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_all_is_exactly_what_the_package_imports():
    # a name left in __all__ after its definition is gone, or an import that
    # is not exported, fails here rather than at `from vlaps import *`
    tree = ast.parse(Path(vlaps.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(vlaps.__all__) == sorted(imported)
    assert all(hasattr(vlaps, name) for name in vlaps.__all__)


def test_no_package_module_reads_the_environment():
    # a run is set by its config and arguments alone; a setting read from the
    # process environment is a global one that no config records
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "environb", "getenv", "getenvb", "putenv"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_rngutil_builds_seed_sequences():
    # every stream is RngFactory.rng's SeedSequence over the entropy and key
    # words; a SeedSequence built elsewhere would be a second derivation rule
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "SeedSequence":
                found.append(path.name)
    assert found == ["rngutil.py"]


def test_no_package_module_reads_bit_generator():
    # rngutil builds the generators and each consumer draws from its own, so
    # nothing saves, restores or rewinds a generator's state
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "bit_generator"]
    assert found == []


def test_the_macro_rule_lives_in_check_macro():
    # a macro, or an action as a macro of one row, is valid by world.check_macro
    # alone; a finiteness test elsewhere in the world or the search would be a
    # second copy of that rule
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES if path.name in ("world.py", "search.py")}
    found = sorted((module, owner) for module, tree in trees.items()
                   for owner, ident in _identifiers(tree) if ident == "isfinite")
    assert found == [("world.py", "check_macro")]
    assert [path.name for path in SOURCES if "_float_array" in path.read_text()] == []


def test_the_goal_applies_the_kernels_rules_and_the_fused_norm_is_the_experts():
    # the goal tests the carried slot by its environment's own set, the one the
    # kernel checks on entry, and its distance as the kernel's pick does, with
    # no numpy; only the expert's steering keeps numpy's fused norm
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    users = sorted((module, owner) for module, tree in trees.items()
                   for owner, ident in _identifiers(tree) if ident == "_fused_norm")
    assert users == [("world.py", "_steer_values")]
    region_goal = next(node for node in trees["world.py"].body
                       if isinstance(node, ast.ClassDef) and node.name == "RegionGoal")
    reached = next(node for node in region_goal.body
                   if isinstance(node, ast.FunctionDef) and node.name == "reached")
    names = {node.id for node in ast.walk(reached) if isinstance(node, ast.Name)}
    assert "np" not in names and "numpy" not in names
    assert "math" in names
    for env in (BlockNavEnv(), BlockNavEnv(object_count=4)):
        assert all(task.target.carried_slots is env.carried_slots for task in env.tasks())


def test_only_the_kernel_and_the_expert_test_for_a_built_in_goal():
    # a built-in goal is the bound RegionGoal.reached of its task's target,
    # known by its __self__, not by a code object, and one helper, _region_goal,
    # recognises it: only it reads the name RegionGoal, and any other use of
    # the name builds one.  Its callers are _step_rows and sample_macro, the
    # only code that skips rows at which a built-in goal's answer cannot
    # change, and may_reach_goal, the rule that lets expand defer a child's
    # step and bounds where that goal can turn true
    assert [path.name for path in SOURCES
            if "__code__" in path.read_text() or "co_consts" in path.read_text()] == []
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    functions = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    builds = {id(node.func) for _, func in functions for node in ast.walk(func)
              if isinstance(node, ast.Call)}

    def users(used):
        return sorted((module, func.name) for module, func in functions
                      if any(used(node) for node in ast.walk(func)))

    assert users(lambda node: isinstance(node, ast.Name) and node.id == "RegionGoal"
                 and id(node) not in builds) == [("world.py", "_region_goal")]
    assert users(lambda node: isinstance(node, ast.Name) and node.id == "_region_goal") == [
        ("world.py", "_step_rows"), ("world.py", "may_reach_goal"), ("world.py", "sample_macro")]
    # __self__ is read in that one function, and in no other code of any module
    helper = next(func for module, func in functions if func.name == "_region_goal")
    inside = {id(node) for node in ast.walk(helper)}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__self__"
             or isinstance(node, ast.Constant) and node.value == "__self__"]
    assert reads and all(id(node) in inside for node in reads)
    env = BlockNavEnv(object_count=3)
    assert all(type(task.target) is RegionGoal and task.goal_predicate.__self__ is task.target
               and _region_goal(task.goal_predicate) is task.target for task in env.tasks())
    task = env.tasks()[0]
    assert _region_goal(lambda state: task.goal_predicate(state)) is None
    assert _region_goal(None) is None


def test_a_world_model_steps_through_step_and_advance_only():
    # the search steps every macro through advance, on a copy of any state it
    # keeps, so the model interface has no second macro-stepping method, and no
    # program file or README names the one that was removed.  Its one query,
    # may_reach_goal, steps nothing: the default answers True on a state it never reads
    public = sorted(name for name in vars(WorldModel) if not name.startswith("_"))
    assert public == ["action_dim", "advance", "may_reach_goal", "observe", "reset", "step"]
    assert WorldModel.may_reach_goal(None, None, None, 4) is True
    files = [REPO / "README.md"] + [path for folder in ("src", "bench", "tools")
                                    for path in sorted((REPO / folder).rglob("*"))
                                    if path.is_file() and "__pycache__" not in path.parts]
    assert len(files) > len(SOURCES)
    assert [str(path.relative_to(REPO)) for path in files
            if b"run_macro" in path.read_bytes()] == []


def test_bench_tracer_still_finds_every_traced_name():
    # the bench's tracer wraps package callables by name; a rename should fail
    # here, not only in a traced bench run.  Its layer table divides by the
    # world.step calls of the library build, so default_library must make some
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        env = BlockNavEnv()
        default_library(env, env.tasks(), 4, 8, 7)
    finally:
        tracer.uninstall()
    calls = {name: row[0] for name, row in tracer.totals()[0].items()}
    assert calls["world.step"] > 0 and calls["macrolib.build_library"] == 1
    assert BlockNavEnv.step is vars(BlockNavEnv)["step"] and not hasattr(
        BlockNavEnv.step, "__wrapped__")


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
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


def test_readme_suite_example_and_search_keys_match_the_config():
    blocks = re.findall(r"```json\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = SuiteConfig.from_json(json.loads(blocks[0]))
    assert cfg.search.n_mc == 300 and cfg.task_ids
    sentence = re.search(r"The `search` object takes the keys (.*?)\.", README, flags=re.DOTALL)
    keys = re.findall(r"`(\w+)`", sentence.group(1))
    assert keys == list(SearchConfig().to_json())


def _identifiers(tree):
    """(top-level definition, identifier) for every name and attribute in a
    module; the definition is None outside any top-level def or class."""
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
    return found


def test_every_public_definition_has_a_user_outside_the_tests():
    # a public function or class must be used by package code outside its own
    # body (__init__.py's import lists do not count), used by bench/ (the
    # tracer names its targets as strings), or named in README.md; otherwise
    # only tests reach it
    modules = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in SOURCES if path.name != "__init__.py"}
    package = {name: _identifiers(tree) for name, tree in modules.items()}
    bench = set()
    for path in (REPO / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        bench |= {ident for _, ident in _identifiers(tree)}
        bench |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    readme = set(re.findall(r"\w+", README))
    checked, unused = 0, []
    for module, tree in modules.items():
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            checked += 1
            name = stmt.name
            used = any(ident == name and (other != module or owner != name)
                       for other, found in package.items() for owner, ident in found)
            if not (used or name in bench or name in readme):
                unused.append(f"{module}: {name}")
    assert checked >= 50
    assert unused == []


def _defaulted_parameters(tree):
    """(call name, parameter name, positional index or None) for each
    defaulted parameter of a top-level function or method; a method's calls
    are matched by its name, ``__init__``'s by its class's name."""
    defs = [(None, stmt) for stmt in tree.body if isinstance(stmt, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [(cls, stmt) for stmt in cls.body if isinstance(stmt, ast.FunctionDef)]
    for cls, func in defs:
        args = func.args
        positional = args.posonlyargs + args.args
        if cls is not None:
            positional = positional[1:]  # self or cls, never written at the call
        name = cls.name if func.name == "__init__" else func.name
        for index, arg in enumerate(positional):
            if index >= len(positional) - len(args.defaults):
                yield name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call, parameter, index):
    """Whether a call sets the parameter by keyword, by position or by unpacking."""
    for keyword in call.keywords:
        if keyword.arg in (parameter, None):
            return True
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or position == index:
            return True
    return False


def test_every_defaulted_parameter_is_set_outside_the_tests():
    # an option that only tests set is a second code path that no run of
    # the program takes; a defaulted parameter of the package must be passed
    # by some call in the package or the benchmark
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES + sorted((REPO / "bench").glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    checked, unset = 0, []
    for tree in trees[:len(SOURCES)]:
        for name, parameter, index in _defaulted_parameters(tree):
            checked += 1
            if not any(_passes(call, parameter, index) for call in calls.get(name, [])):
                unset.append(f"{name}.{parameter}")
    assert checked >= 5
    assert unset == []
