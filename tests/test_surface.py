"""The package's public surface is what it runs: every public function, class
and method in src/catprep is used somewhere in src/catprep outside its own
definition. Code that only the tests use belongs in tests/oracles.py."""

import ast
from pathlib import Path

import catprep

SRC = Path(catprep.__file__).resolve().parent


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _is_reference(node, module: str, qualname: str) -> bool:
    """A top-level name is used as a bare name or as module.name; a method by
    attribute access on anything. Only a load counts: an import is no use, and
    neither is a dataclass field of the same name (log_likelihood: float)."""
    if not isinstance(getattr(node, "ctx", None), ast.Load):
        return False
    if "." in qualname:
        return isinstance(node, ast.Attribute) and node.attr == qualname.split(".")[1]
    if isinstance(node, ast.Name):
        return node.id == qualname
    return (isinstance(node, ast.Attribute) and node.attr == qualname
            and isinstance(node.value, ast.Name) and node.value.id == module)


def test_every_public_name_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for qualname, definition in _public_definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            if not any(id(node) not in own and _is_reference(node, module, qualname)
                       for other in trees.values() for node in ast.walk(other)):
                unused.append(f"{module}.{qualname}")
    assert not unused, unused
