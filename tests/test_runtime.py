"""The package runs on the standard library alone; mpmath and hypothesis
are test-only extras."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "engeldim"


def test_package_imports_only_the_standard_library():
    parsed, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        parsed.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside the package
                continue
            outside += [f"{path.name}: {module}" for module in modules
                        if module.partition(".")[0] not in sys.stdlib_module_names]
    assert {"cli.py", "construction.py", "engel.py"} <= set(parsed)
    assert outside == []


def test_project_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # together they took most of the package's import time, which every
    # run of the program pays before its command starts.  Modules the bare
    # interpreter loads are left out: site .pth files differ by machine
    code = ("import sys; bare = set(sys.modules); import engeldim.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "engeldim.cli" in loaded
    assert {"dataclasses", "inspect"} & set(loaded) == set()


def module_private_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names at module level whose
    name has one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_is_used_in_the_package():
    # a private helper is reached only from inside the package, so one that
    # nothing there reads is dead, e.g. one stranded by a deletion
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(dict.fromkeys(module_private_names(tree), path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert "_balanced_prod" in defined  # the scan sees the helpers
    assert {name: module for name, module in defined.items()
            if name not in used} == {}
