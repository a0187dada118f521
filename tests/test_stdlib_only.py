"""The runtime imports only the standard library (and itself)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tca_lab"


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [f"{path.name}:{line}: {name}" for path in files
               for line, name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"tca_lab"}]
    assert foreign == []
