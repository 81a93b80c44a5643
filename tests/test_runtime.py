"""The package runs on the standard library alone; mpmath and hypothesis
are test-only extras."""

import ast
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
