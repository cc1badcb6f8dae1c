"""Two rules that ``src/tabkit`` keeps by having one place for each:

- A method parses its hyperparameters once, in ``_check_config``: no ``_fit``
  or ``_predict`` under ``methods/`` reads ``self.config`` for anything but
  the run's ``seed``, so ``self.config.model`` and ``self.config.training``
  (and aliases of ``self.config``) are out.
- Every fitted-width check raises through ``errors.check_width``: no other
  ``ShapeError(...)`` call builds a "was fitted on" message.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tabkit"


def _is_self_config(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "config"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def config_reads(source: str) -> list[str]:
    """``function:line`` of each ``self.config`` in a ``_fit`` or ``_predict``
    that is not the ``.seed`` of it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ("_fit", "_predict")):
            continue
        seeds = {id(node.value) for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr == "seed"}
        found += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                  if _is_self_config(node) and id(node) not in seeds]
    return found


def fitted_on_shape_errors(source: str, allowed: str | None = None) -> list[int]:
    """Lines of the ``ShapeError(...)`` calls whose string parts say "was
    fitted on", outside the function named ``allowed``."""
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == allowed
            for node in ast.walk(fn)}
    lines = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or id(call) in skip:
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        text = "".join(part.value for arg in call.args for part in ast.walk(arg)
                       if isinstance(part, ast.Constant) and isinstance(part.value, str))
        if name == "ShapeError" and "was fitted on" in text:
            lines.append(call.lineno)
    return lines


def test_fit_and_predict_read_no_hyperparameters():
    found = {path.name: config_reads(path.read_text())
             for path in sorted((SRC / "methods").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_check_width_says_was_fitted_on():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        allowed = "check_width" if path == SRC / "errors.py" else None
        if lines := fitted_on_shape_errors(path.read_text(), allowed):
            found[str(path.relative_to(SRC))] = lines
    assert found == {}
    # the rule's one message is where the rule says it is
    assert fitted_on_shape_errors((SRC / "errors.py").read_text()) != []


def test_config_reads_are_found():
    source = (
        "class M:\n"
        "    def _check_config(self):\n"
        "        self._k = self.config.model['k']\n"
        "    def _fit(self, x):\n"
        "        rng = self.config.seed\n"
        "        lr = self.config.training['lr']\n"
        "    def _predict(self, x):\n"
        "        cfg = self.config\n"
        "        return cfg.model\n")
    assert config_reads(source) == ["_fit:6", "_predict:8"]


def test_fitted_on_messages_are_found():
    source = (
        "def check_width(stage, fitted, got):\n"
        "    raise ShapeError(f'{stage} was fitted on {fitted} columns')\n"
        "def transform(x):\n"
        "    raise errors.ShapeError(\n"
        "        f'encoder was fitted on {len(x)} columns, '\n"
        "        f'got {x.shape[1]}')\n"
        "def read(x):\n"
        "    raise ShapeError('feature and target lengths differ')\n")
    assert fitted_on_shape_errors(source, "check_width") == [4]
    assert fitted_on_shape_errors(source) == [2, 4]
