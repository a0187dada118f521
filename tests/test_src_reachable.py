"""Every module-level function, class and constant in ``src/tca_lab``, and
every method of such a class, is read somewhere in ``src/`` outside its own
definition, or in ``demos/`` or ``perfbench/``.  Reference implementations that only tests call belong in
``tests/oracles.py``, and each public function and class there is read in
some ``tests/test_*.py``.  A string equal to the name counts as a read,
because ``perfbench/tracer.py`` binds names that way; an import alone does
not.
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
    """(label, name, node) for every function, class and constant bound at
    module level, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (s for t in targets for s in ast.walk(t)):
                if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                    yield sub.id, sub.id, node


def methods(tree):
    """(Class.method, method, node) for every method defined on a
    module-level class, dunders excluded."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    yield f"{cls.name}.{node.name}", node.name, node


def unread_names(defined=definitions):
    modules = {path.name: parse(path)
               for path in sorted((ROOT / "src" / "tca_lab").glob("*.py"))}
    users = [parse(path) for folder in ("demos", "perfbench")
             for path in sorted((ROOT / folder).glob("*.py"))]
    total = sum(map(reads, [*modules.values(), *users]), Counter())
    return [f"{module}: {label}" for module, tree in modules.items()
            for label, name, node in defined(tree)
            if total[name] <= reads(node)[name]]


def test_every_module_level_name_is_read_outside_the_tests():
    assert unread_names() == []


def test_every_method_is_read_outside_the_tests():
    assert unread_names(methods) == []


def unused_oracles(oracles, tests):
    """Public module-level functions and classes of the ``oracles`` tree
    that no tree in ``tests`` reads."""
    total = sum(map(reads, tests), Counter())
    return [name for _, name, node in definitions(oracles)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not name.startswith("_") and not total[name]]


def test_every_oracle_is_read_by_a_test():
    tests = [parse(path) for path in sorted((ROOT / "tests").glob("test_*.py"))]
    assert unused_oracles(parse(ROOT / "tests" / "oracles.py"), tests) == []
