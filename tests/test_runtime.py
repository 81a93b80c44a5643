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
    # argv is read without argparse, which loads gettext
    assert {"argparse", "gettext"} & set(loaded) == set()


def private_names(body: list[ast.stmt]) -> set[str]:
    """The functions, classes and assigned names of a module or class body
    whose name has one leading underscore."""
    names = set()
    for node in body:
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
    # nothing there reads is dead, e.g. one stranded by a deletion.  That
    # holds for the private methods and attributes of its classes too
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for body in bodies:
            defined.update(dict.fromkeys(private_names(body), path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    # the scan sees the module helpers and the private methods
    assert {"_balanced_prod", "_windows", "_diameter_pair"} <= set(defined)
    assert {name: module for name, module in defined.items()
            if name not in used} == {}


def test_only_the_construction_module_names_the_level_windows_and_count():
    # _windows lists a level's windows, _balanced_prod forms its count and
    # _longest_length its longest length: any other module reads them
    # through the level builder, so each has one owner
    owned = {"_windows", "_balanced_prod", "_longest_length"}
    named, scanned = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        scanned.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in owned:
                named.setdefault(path.name, set()).add(name)
    assert {"construction.py", "dimension.py", "cli.py"} <= set(scanned)
    assert named == {"construction.py": owned}


def is_branch_count(node: ast.expr) -> bool:
    """Whether node reads `hi - lo + 1`, the digit count of one window."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub))


def branch_count_products(tree: ast.Module) -> list[int]:
    """The lines of each product of window branch counts: _balanced_prod
    or prod over a comprehension of `hi - lo + 1`, or `*=` of one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None)
            arg = node.args[0]
            if (func in ("_balanced_prod", "prod")
                    and isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                    and is_branch_count(arg.elt)):
                lines.append(node.lineno)
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
              and is_branch_count(node.value)):
            lines.append(node.lineno)
    return lines


# the factor a comprehension under a product names, by the product it forms
TERM_FACTORS = {"s": "s_1...s_n", "lo": "window starts", "hi": "window ends"}


def term_products(tree: ast.Module) -> list[str]:
    """Which product of level terms each statement forms: _balanced_prod
    or prod over a comprehension of a bare s, lo or hi, or a `*` or `*=`
    of a bare s_n, a step of s_1...s_n."""
    kinds = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func.attr if isinstance(node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None)
            arg = node.args[0]
            if (func in ("_balanced_prod", "prod")
                    and isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                    and isinstance(arg.elt, ast.Name) and arg.elt.id in TERM_FACTORS):
                kinds.append(TERM_FACTORS[arg.elt.id])
        operands = ([node.left, node.right] if isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult) else
                    [node.value] if isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Mult) else [])
        kinds += ["s_1...s_n" for operand in operands
                  if isinstance(operand, ast.Name) and operand.id == "s_n"]
    return kinds


def test_the_level_count_and_longest_length_are_each_formed_once():
    # N_n is formed by one statement, which every count reads; the exact
    # rows' step multiplies by a branch count it is handed, not one it
    # forms.  The longest length is formed by the level builder alone, and
    # s_1...s_n, the window starts and the window ends each by one
    # statement, which the walk's records carry from level to level
    products, longest, terms = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if lines := branch_count_products(tree):
            products[path.name] = len(lines)
        if calls := [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id == "_longest_length"]:
            longest[path.name] = len(calls)
        if kinds := term_products(tree):
            terms[path.name] = sorted(kinds)
    assert products == {"construction.py": 1}
    assert longest == {"construction.py": 1}
    assert terms == {"construction.py": sorted(TERM_FACTORS.values())}
    # the one other product of the s_k is the exact rows' Decimal step,
    # the one function of the CLI that reads the terms s_n
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    readers = {function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "s_n" and node.attr in ("numerator", "denominator")}
    assert readers == {"_exact_rows"}


def bound_statements(node: ast.AST) -> list[str]:
    """Which bound's defining term node states, if any: epsilon_n's
    exponent `n + 3`, of a name or an attribute n, or delta_n's `4 * t`,
    4 times an operand that reads a name t."""
    if not isinstance(node, ast.BinOp):
        return []
    if (isinstance(node.op, ast.Add) and isinstance(node.right, ast.Constant)
            and node.right.value == 3
            and "n" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))):
        return ["n + 3"]
    if (isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Constant)
            and node.left.value == 4
            and any(isinstance(name, ast.Name) and name.id == "t"
                    for name in ast.walk(node.right))):
        return ["4 * t"]
    return []


def test_each_bound_is_stated_once():
    # epsilon_n and delta_n are each formed from one statement of their
    # short factors, which the bound readers and the exact rows all read
    stated = {}
    for name in ("construction.py", "cli.py"):
        tree = ast.parse((PACKAGE / name).read_text(), name)
        for node in ast.walk(tree):
            for term in bound_statements(node):
                stated.setdefault(term, []).append(name)
    assert stated == {"n + 3": ["construction.py"], "4 * t": ["construction.py"]}


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module's __all__ lists, none when it has no __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_read_in_its_module():
    # an import its module never reads is stranded, e.g. by the deletion
    # of the helper it named.  A re-export counts as read when __all__
    # lists it
    stranded, scanned = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
        read = exported_names(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        scanned += len(imported)
        stranded += [f"{path.name}: {name}" for name in sorted(imported - read)]
    # the scan sees the package's imports, the re-exports among them
    assert scanned > 50
    assert stranded == []
