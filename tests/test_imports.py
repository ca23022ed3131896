"""Static checks on the package's sources.  No linter is a dependency, so
these walk the sources with `ast`.

- Every name a module imports is used in it: an imported name that no `Name`
  node of the module refers to is stale.
- Every top-level function and class, and every method, has a caller: some
  module of the package, the benchmark harness (whose tracer names its
  targets in strings) or the acceptance suite refers to it.  The check goes
  by name, so a method counts as called when any attribute of that name is
  read.  Dunder methods are called by Python itself.
- Every annotated class field (the dataclasses' fields) and every `self.`
  attribute is read: the same sources load an attribute of that name, or a
  string constant names it (`emit_csv` reads row fields by their column
  names).  A bare string statement, such as a docstring, reads nothing.

`__init__.py` only re-exports, so it is neither checked nor counted as a
caller, and `from __future__` imports are directives."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scaledgd"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
# sources that count as callers besides the package's own modules
CALLERS = sorted((ROOT / "benchmarks").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# definitions with no caller, kept on purpose
UNCALLED_OK = {
    "sensing.SensingOperator.row_svec": "the documented reference for operator row i",
    "problem.make_approx_truth": "the approximately low-rank truth of the claims "
                                 "ledger's tail-decay check",
    "problem.GroundTruth.x_star": "the planted factor, for the same check",
}
# fields and attributes nothing reads, kept on purpose
UNREAD_OK = {}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _definitions(tree) -> list[str]:
    """Top-level functions and classes, and methods as Class.method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{sub.name}" for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
    return out


def _references(tree, strings: bool) -> set[str]:
    """Names, attributes and imported names a source refers to and, with
    `strings`, every word of its string constants."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.asname or node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def _uncalled(modules: dict[str, str], callers: list[str]) -> list[str]:
    """module.definition for each definition in `modules` (name -> source)
    that neither they nor the `callers` sources refer to."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = set().union(*(_references(tree, False) for tree in trees.values()),
                       *(_references(ast.parse(source), True) for source in callers))
    return [f"{name}.{defn}" for name, tree in trees.items()
            for defn in _definitions(tree) if defn.rsplit(".", 1)[-1] not in refs]


def _fields(tree) -> list[str]:
    """Class.name for each annotated class field and each attribute a
    method assigns to self."""
    out = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        names = [sub.target.id for sub in cls.body
                 if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]
        names += [node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"]
        out += [f"{cls.name}.{name}" for name in dict.fromkeys(names)]
    return out


def _reads(tree) -> set[str]:
    """Attribute names a source loads (`x.a`, `x.a += 1`) and the words of its
    string constants, bar bare string statements."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            reads.add(node.target.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in bare):
            reads.update(re.findall(r"\w+", node.value))
    return reads


def _unread(modules: dict[str, str], readers: list[str]) -> list[str]:
    """module.Class.field for each field or attribute in `modules` (name ->
    source) that neither they nor the `readers` sources read."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = set().union(*(_reads(tree) for tree in trees.values()),
                        *(_reads(ast.parse(source)) for source in readers))
    return [f"{name}.{fld}" for name, tree in trees.items()
            for fld in _fields(tree) if fld.rsplit(".", 1)[-1] not in reads]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from .x import a, b\n"
              "print(system.argv, a)\n")
    assert _unused_imports(source) == ["line 2: os", "line 3: b"]


def test_every_definition_has_a_caller():
    # an allowlisted definition that gains a caller leaves the allowlist
    uncalled = _uncalled({path.stem: path.read_text() for path in MODULES},
                         [path.read_text() for path in CALLERS])
    assert sorted(uncalled) == sorted(UNCALLED_OK)


def test_checker_flags_a_definition_without_a_caller():
    modules = {"a": ("class K:\n"
                     "    def __repr__(self): return 'K'\n"
                     "    def used(self): pass\n"
                     "    def traced(self): pass\n"
                     "    def unused(self): pass\n"
                     "def helper(): return K().used()\n"
                     "def orphan(): pass\n"),
               "b": "from .a import helper\n"}
    assert _uncalled(modules, ["TARGETS = [('a', 'K.traced')]"]) == ["a.K.unused", "a.orphan"]


def test_every_field_is_read():
    # an allowlisted field that gains a reader leaves the allowlist
    unread = _unread({path.stem: path.read_text() for path in MODULES},
                     [path.read_text() for path in CALLERS])
    assert sorted(unread) == sorted(UNREAD_OK)


def test_checker_flags_an_unread_field():
    modules = {"a": ("@dataclass\n"
                     "class Row:\n"
                     "    \"\"\"A row; its stale field is unread.\"\"\"\n"
                     "    used: int\n"
                     "    by_name: int\n"
                     "    counted: int\n"
                     "    stale: int\n"
                     "    traced: int\n"
                     "class Acc:\n"
                     "    def __init__(self):\n"
                     "        self.total = 0\n"
                     "        self.orphan, self.spare = 1, 2\n"
                     "    def add(self, row):\n"
                     "        self.total += row.used + self.spare\n"
                     "COLUMNS = ('by_name',)\n"),
               "b": "def f(row): row.counted += 1\n"}
    assert _unread(modules, ["TRACED = 'Row.traced'"]) == ["a.Row.stale", "a.Acc.orphan"]
