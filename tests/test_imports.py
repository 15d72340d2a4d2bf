"""Every module of the package, the tests and the tools uses each name it imports."""

import ast
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
