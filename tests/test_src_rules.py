"""Seven rules that ``src/tabkit`` keeps by having one place for each:

- A method parses its hyperparameters once, in ``_check_config``: no ``_fit``
  or ``_predict`` under ``methods/`` reads ``self.config`` for anything but
  the run's ``seed``, so ``self.config.model`` and ``self.config.training``
  (and aliases of ``self.config``) are out.
- Every fitted-width check raises through ``errors.check_width``: no other
  ``ShapeError(...)`` call builds a "was fitted on" message.
- Every float hyperparameter is parsed, and range-checked, by
  ``methods.base.bounded_float``: no other ``float(...)`` under ``methods/``
  wraps a ``.get(...)``.
- Every int hyperparameter is parsed, and range-checked, by
  ``methods.base.positive_int``, and a flag must be a bool, not be cast to
  one: no ``int(...)`` or ``bool(...)`` under ``methods/`` wraps a
  ``.get(...)`` outside ``positive_int``.
- Categorical cells become tokens in one tokenizer: only
  ``encode_cat._tokenize`` calls ``_tokens`` (one column), and only
  ``_tokens`` calls ``.astype(str)``.
- Whether a method reads the seed is declared once, by its class's
  ``reads_seed``: no class under ``methods/`` whose ``reads_seed`` is
  ``False`` (its own or inherited) reads ``.seed``, in its own body or a
  base's, short of ``Method``, whose constructor hands the seed to the
  pipeline.
- Whether a method reads the val part is declared once, by its class's
  ``reads_val``: no ``_fit`` of a class under ``methods/`` whose
  ``reads_val`` is ``False`` (its own or inherited), or of one of its bases
  short of ``Method``, names ``x_val`` or ``y_val``, which ``Method.fit``
  hands such a class as ``None``.
"""

import ast
from pathlib import Path

from tabkit.methods import get_method, registered_methods

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


def _calls(source: str, allowed: str | None):
    """(name, call) of each call outside the function named ``allowed``;
    the name is the called function's or attribute's."""
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == allowed
            for node in ast.walk(fn)}
    return [(getattr(call.func, "id", getattr(call.func, "attr", None)), call)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and id(call) not in skip]


def fitted_on_shape_errors(source: str, allowed: str | None = None) -> list[int]:
    """Lines of the ``ShapeError(...)`` calls whose string parts say "was
    fitted on", outside the function named ``allowed``."""
    lines = []
    for name, call in _calls(source, allowed):
        text = "".join(part.value for arg in call.args for part in ast.walk(arg)
                       if isinstance(part, ast.Constant) and isinstance(part.value, str))
        if name == "ShapeError" and "was fitted on" in text:
            lines.append(call.lineno)
    return lines


def cast_gets(source: str, casts: tuple, allowed: str | None = None) -> list[int]:
    """Lines of the calls to a builtin named in ``casts`` (``float(...)``,
    say) with a ``.get(...)`` call inside, outside the function named
    ``allowed``."""
    return [call.lineno for name, call in _calls(source, allowed)
            if name in casts and isinstance(call.func, ast.Name)
            and any(isinstance(part, ast.Call) and getattr(part.func, "attr", None) == "get"
                    for arg in call.args for part in ast.walk(arg))]


def token_calls(source: str, allowed: str | None = None) -> list[int]:
    """Lines of the ``_tokens(...)`` calls outside the function named
    ``allowed``."""
    return sorted(call.lineno for name, call in _calls(source, allowed)
                  if name == "_tokens")


def str_casts(source: str, allowed: str | None = None) -> list[int]:
    """Lines of the ``.astype(str)`` calls outside the function named
    ``allowed``."""
    return sorted(call.lineno for name, call in _calls(source, allowed)
                  if name == "astype" and any(isinstance(arg, ast.Name) and arg.id == "str"
                                              for arg in call.args))


def _declared(cls: ast.ClassDef, attr: str):
    """The value a class body assigns to ``attr``; None if it assigns none,
    True if the value is not a literal."""
    for stmt in cls.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == attr for t in targets):
            value = stmt.value
            return value.value if isinstance(value, ast.Constant) else True
    return None


def _lineages_where_false(sources, attr: str) -> dict[str, list[ast.ClassDef]]:
    """Each class in ``sources`` (sources of one package) whose ``attr``
    (``reads_seed``, say) is False, by name, with the chain of it and its
    bases defined there, nearest first; the attribute is True by default."""
    classes = {node.name: node for source in sources
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)}

    def lineage(cls):
        yield cls
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                yield from lineage(classes[base.id])

    chains = {name: list(lineage(cls)) for name, cls in classes.items()}
    return {name: chain for name, chain in chains.items()
            if next((value for value in (_declared(cls, attr) for cls in chain)
                     if value is not None), True) is False}


def _seed_free_lineages(sources) -> dict[str, list[ast.ClassDef]]:
    return _lineages_where_false(sources, "reads_seed")


def _val_free_lineages(sources) -> dict[str, list[ast.ClassDef]]:
    return _lineages_where_false(sources, "reads_val")


def seed_reads(sources) -> list[str]:
    """``Class:line`` of each ``.seed`` that a class whose ``reads_seed`` is
    False reads in its own body or a base's other than ``Method``'s."""
    return sorted(f"{name}:{node.lineno}"
                  for name, chain in _seed_free_lineages(sources).items()
                  for cls in chain if cls.name != "Method"
                  for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and node.attr == "seed")


def val_reads(sources) -> list[str]:
    """``Class:line`` of each ``x_val`` or ``y_val`` named in a ``_fit`` of a
    class whose ``reads_val`` is False, or of a base other than ``Method``;
    the parameters themselves are not names read."""
    return sorted(f"{name}:{node.lineno}"
                  for name, chain in _val_free_lineages(sources).items()
                  for cls in chain if cls.name != "Method"
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_fit"
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and node.id in ("x_val", "y_val"))


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


def _unparsed(casts: tuple, parser: str) -> dict[str, list[int]]:
    """File name -> lines, under ``methods/``, of the ``casts`` calls that
    wrap a ``.get(...)`` outside ``base.py``'s ``parser``."""
    found = {}
    for path in sorted((SRC / "methods").glob("*.py")):
        allowed = parser if path.name == "base.py" else None
        if lines := cast_gets(path.read_text(), casts, allowed):
            found[path.name] = lines
    # the rule's one parser is where the rule says it is
    assert cast_gets((SRC / "methods" / "base.py").read_text(), casts) != []
    return found


def test_float_hyperparameters_are_parsed_by_bounded_float():
    assert _unparsed(("float",), "bounded_float") == {}


def test_int_and_bool_hyperparameters_are_parsed_by_positive_int():
    assert _unparsed(("int", "bool"), "positive_int") == {}


def test_only_the_tokenizer_makes_tokens():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tokenizer = path == SRC / "encode_cat.py"
        source = path.read_text()
        lines = (token_calls(source, "_tokenize" if tokenizer else None)
                 + str_casts(source, "_tokens" if tokenizer else None))
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert found == {}
    # the rule's one tokenizer is where the rule says it is
    source = (SRC / "encode_cat.py").read_text()
    assert token_calls(source) != [] and str_casts(source) != []


def test_seed_free_methods_read_no_seed():
    sources = [path.read_text()
               for path in sorted((SRC / "methods").glob("*.py"))]
    assert seed_reads(sources) == []
    # the rule sees what each registered method declares
    seed_free = set(_seed_free_lineages(sources))
    classes = [get_method(name) for name in registered_methods()]
    assert {cls.__name__ for cls in classes if not cls.reads_seed} == {
        cls.__name__ for cls in classes if cls.__name__ in seed_free}
    assert seed_free


def test_val_free_methods_read_no_val():
    sources = [path.read_text()
               for path in sorted((SRC / "methods").glob("*.py"))]
    assert val_reads(sources) == []
    # the rule sees what each registered method declares
    val_free = set(_val_free_lineages(sources))
    classes = [get_method(name) for name in registered_methods()]
    assert {cls.__name__ for cls in classes if not cls.reads_val} == {
        cls.__name__ for cls in classes if cls.__name__ in val_free}
    assert val_free


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


def test_bare_float_gets_are_found():
    source = (
        "def bounded_float(cfg, key, default):\n"
        "    return float(cfg.get(key, default))\n"
        "class M:\n"
        "    def _check_config(self):\n"
        "        self._lr = float(self.config.training.get('lr', 0.1))\n"
        "        self._p = float(\n"
        "            str(cfg.get('p')))\n"
        "        self._mean = float(y.mean())\n"
        "        self._d = np.float64(cfg.get('d'))\n")
    assert cast_gets(source, ("float",), "bounded_float") == [5, 6]
    assert cast_gets(source, ("float",)) == [2, 5, 6]


def test_bare_int_and_bool_gets_are_found():
    source = (
        "def positive_int(cfg, key, default):\n"
        "    return int(cfg.get(key, default))\n"
        "class M:\n"
        "    def _check_config(self):\n"
        "        self._p = int(train_cfg.get('patience', 20))\n"
        "        self._b = bool(cfg.get('bootstrap', True))\n"
        "        self._n = int(size.max())\n"
        "        self._f = float(cfg.get('f'))\n")
    assert cast_gets(source, ("int", "bool"), "positive_int") == [5, 6]
    assert cast_gets(source, ("int", "bool")) == [2, 5, 6]


def test_token_calls_are_found():
    source = (
        "def _tokens(col):\n"
        "    return col.astype(str).tolist()\n"
        "def _tokenize(cat):\n"
        "    return [_tokens(col) for col in cat.T]\n"
        "def transform(cat):\n"
        "    cells = cat.astype(object)\n"
        "    tokens = enc._tokens(cat[:, 0])\n"
        "    return np.asarray(cat).astype(str)\n")
    assert token_calls(source, "_tokenize") == [7]
    assert token_calls(source) == [4, 7]
    assert str_casts(source, "_tokens") == [8]
    assert str_casts(source) == [2, 8]


def test_seed_reads_are_found():
    source = (
        "class Method:\n"
        "    reads_seed = True\n"
        "    def __init__(self, config):\n"
        "        self.pipeline = Pipeline(seed=config.seed)\n"
        "class Free(Method):\n"
        "    reads_seed = False\n"
        "    def _fit(self, x):\n"
        "        return x\n"
        "class Child(Free):\n"
        "    def _fit(self, x):\n"
        "        return rng_of(self.config.seed)\n"
        "class Seeded(Method):\n"
        "    def _fit(self, x):\n"
        "        return rng_of(self.config.seed)\n"
        "class Base(Method):\n"
        "    reads_seed: bool = False\n"
        "    def _noise(self):\n"
        "        return self.config.seed\n"
        "class Leaf(Base):\n"
        "    pass\n"
        "class Again(Base):\n"
        "    reads_seed = True\n"
        "    def _fit(self, x):\n"
        "        return rng_of(self.config.seed)\n")
    assert seed_reads([source]) == ["Base:18", "Child:11", "Leaf:18"]
    assert set(_seed_free_lineages([source])) == {"Free", "Child", "Base", "Leaf"}


def test_val_reads_are_found():
    source = (
        "class Method:\n"
        "    reads_val = True\n"
        "    def fit(self, x_val, y_val):\n"
        "        self._fit(None, None, x_val, y_val)\n"
        "class Free(Method):\n"
        "    reads_val = False\n"
        "    def _fit(self, x_train, y_train, x_val, y_val):\n"
        "        return x_train\n"
        "class Peeks(Free):\n"
        "    def _fit(self, x_train, y_train, x_val, y_val):\n"
        "        return len(y_val)\n"
        "class Reader(Method):\n"
        "    def _fit(self, x_train, y_train, x_val, y_val):\n"
        "        return x_val\n"
        "class Base(Method):\n"
        "    reads_val: bool = False\n"
        "    def _fit(self, x_train, y_train, x_val, y_val):\n"
        "        self._x_val = x_val\n"
        "    def _predict(self, x_val):\n"
        "        return x_val\n"
        "class Leaf(Base):\n"
        "    pass\n"
        "class Again(Base):\n"
        "    reads_val = True\n"
        "    def _fit(self, x_train, y_train, x_val, y_val):\n"
        "        return x_val\n")
    assert val_reads([source]) == ["Base:18", "Leaf:18", "Peeks:11"]
    assert set(_val_free_lineages([source])) == {"Free", "Peeks", "Base", "Leaf"}
