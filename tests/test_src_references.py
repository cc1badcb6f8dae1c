"""Every public top-level function and class in ``src/tabkit`` is used by the
package itself: reference implementations and helpers that only tests call
belong in ``tests/``, as ``tree_oracle``, ``knn_oracle`` and
``encode_cat_oracle`` do.
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


def unreferenced_definitions(src: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(src.rglob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    # a reference inside its own body is not a use
                    and everywhere[node.name] <= referenced_names(node)[node.name]):
                unused.append(f"{path.relative_to(src)}::{node.name}")
    return unused


def test_every_public_definition_is_used_in_src():
    assert unreferenced_definitions(SRC) == []
