import ast
from pathlib import Path

import pytest

import inflap

MODULES = sorted(path for path in Path(inflap.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")   # __init__.py only re-exports


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_walk_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom .x import a, b\n"
                          "np.zeros(a)\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
