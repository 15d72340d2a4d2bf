"""Every module of the package, the tests and the tools uses each name it imports, and
the tests name no more of the solver's private functions than they list."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to export them.
SOURCES = sorted(path.relative_to(ROOT) for folder in ("src/cfmimo", "tests", "tools")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\nos.sep\n") == [
        (1, "math"), (3, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_no_unused_import(path):
    assert unused_imports((ROOT / path).read_text()) == []


# The module-level private functions of fp_solver.py and opt.py named anywhere in tests/*.py;
# a test that names one more or one fewer changes this list in the same diff. This file and
# test_record_diff.py, which checks the line census tool on solver lines, are left out.
NAMED_SOLVER_INTERNALS = {
    "_arc_search", "_box_maximizer", "_column_lagrangian", "_column_model", "_column_objective",
    "_column_terms", "_dual_const", "_dual_power_solve", "_newton_direction",
    "_power_coefficients", "_power_form", "_qos_approximation", "_qos_rows", "_qos_start",
    "_qos_thresholds", "_quadratic", "_rows_hold", "_settled_columns", "_u_star",
    "_vertex_oracle", "_wprime"}


def test_tests_name_only_the_listed_solver_internals():
    private = {node.name for module in ("fp_solver.py", "opt.py")
               for node in ast.parse((ROOT / "src/cfmimo" / module).read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    named = {word for path in (ROOT / "tests").glob("*.py")
             if path.name not in ("test_record_diff.py", Path(__file__).name)
             for word in re.findall(r"\b_\w+", path.read_text())}
    assert private & named == NAMED_SOLVER_INTERNALS
