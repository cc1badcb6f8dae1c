"""Every top-level function and class in ``src/tabkit``, public or private,
and every private (``_name``) module-level name is used by the package
itself. Reference implementations and helpers that only tests call belong in
``tests/``, as ``tree_oracle``, ``knn_oracle`` and ``encode_cat_oracle`` do,
and a private helper that a deletion leaves behind shows as unused.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tabkit"


def referenced_names(node: ast.AST) -> Counter:
    """Names read anywhere under ``node``: bare names, attributes, imports and
    the entries of an ``__all__`` list, which exports them."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(child, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in child.targets)):
            names.update(ast.literal_eval(child.value))
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines that must be used: any
    function or class, and private (``_name``, not dunder) assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [child.id for target in targets for child in ast.walk(target)
            if isinstance(child, ast.Name) and child.id.startswith("_")
            and not child.id.startswith("__")]


def unreferenced_definitions(src: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(src.rglob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            for name in defined_names(node):
                # a reference inside its own definition is not a use
                if everywhere[name] <= referenced_names(node)[name]:
                    unused.append(f"{path.relative_to(src)}::{name}")
    return unused


def test_every_public_definition_is_used_in_src():
    assert unreferenced_definitions(SRC) == []


def test_an_unused_private_helper_is_found(tmp_path):
    (tmp_path / "module.py").write_text(
        "_USED = 1\n_UNUSED: int = 2\n__all__ = ['run']\n\n"
        "def run():\n    return _used(_USED)\n\n"
        "def _used(x):\n    return x\n\n"
        "def _unused():\n    return _unused()\n\n"
        "class _Dead:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == [
        "module.py::_UNUSED", "module.py::_unused", "module.py::_Dead"]
