"""Every module-level function, class and constant in ``src/tca_lab`` is
read somewhere in ``src/`` outside its own definition, or in ``demos/`` or
``perfbench/``.  Reference implementations that only tests call belong in
``tests/oracles.py``.  A string equal to the name counts as a read, because
``perfbench/tracer.py`` binds names that way; an import alone does not.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def reads(tree):
    """How often each name is read in ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def definitions(tree):
    """(name, node) for every function, class and constant bound at module
    level, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (s for t in targets for s in ast.walk(t)):
                if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                    yield sub.id, node


def unread_names():
    modules = {path.name: parse(path)
               for path in sorted((ROOT / "src" / "tca_lab").glob("*.py"))}
    users = [parse(path) for folder in ("demos", "perfbench")
             for path in sorted((ROOT / folder).glob("*.py"))]
    total = sum(map(reads, [*modules.values(), *users]), Counter())
    return [f"{module}: {name}" for module, tree in modules.items()
            for name, node in definitions(tree)
            if total[name] <= reads(node)[name]]


def test_every_module_level_name_is_read_outside_the_tests():
    assert unread_names() == []
