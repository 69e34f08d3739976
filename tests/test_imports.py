"""Every name a ``survmamba`` module imports is one it uses, so a check or
helper that goes leaves no import behind. ``__init__.py`` imports to
re-export and is not walked."""

import ast
from pathlib import Path

import pytest

import survmamba

MODULES = sorted(p for p in Path(survmamba.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    """The names bound by the module's imports, anywhere in it, that no
    name in it reads; ``from __future__`` imports bind nothing."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_a_dead_import_is_found():
    tree = ast.parse("import math\nfrom numbers import Real, Integral\nimport numpy as np\nx = np.zeros(Real)\n")
    assert _unused_imports(tree) == ["Integral", "math"]
