"""Every module-level or local import in ``src/`` and ``tests/`` is used,
and every private function and every module-level class of ``src/`` is read
there.

A name bound by an import counts as used when it is read anywhere in the
module, string annotations included.  ``__init__.py`` files re-export their
imports and ``__future__`` imports bind nothing, so neither is checked.

A private (``_name``, not ``__name__``) module-level function or method in
``src/`` counts as read when some module of ``src/`` reads that name, as a
variable or as an attribute.  A mention in a docstring or a comment does not
count, so a helper that only tests call cannot stay in ``src/``.  The same
holds for a module-level class of ``src/``, so a class that only tests build
cannot stay there either.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _bound_names(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "FreeAut" or "Optional[Word]"
                used.update(_used_names(ast.parse(node.value, mode="eval")))
            except SyntaxError:
                pass
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree) if name not in used]


def test_scanner_finds_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import List, Optional\n"
        "from x import y as z\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(source) == [("regex", 3), ("z", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_functions(tree):
    """(name, line) for each private module-level function and method."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield name, item.lineno


def _read_names(tree):
    """The names a module reads, as variables or as attributes."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _module_classes(tree):
    """(name, line) for each module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno


def _unread(sources, definitions):
    """(source index, name, line) for each definition that `definitions`
    finds in one of `sources` and whose name no source reads."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*(_read_names(tree) for tree in trees))
    return [
        (i, name, line)
        for i, tree in enumerate(trees)
        for name, line in definitions(tree)
        if name not in read
    ]


def unread_private_functions(sources):
    """(source index, name, line) for each private function of `sources`
    whose name no source reads."""
    return _unread(sources, _private_functions)


def unread_classes(sources):
    """(source index, name, line) for each module-level class of `sources`
    whose name no source reads."""
    return _unread(sources, _module_classes)


def test_private_scanner_finds_unread_and_accepts_read():
    module = (
        "def _used():\n"
        "    '''_documented and _method are only mentioned here.'''\n"
        "def _documented():\n"
        "    pass  # _documented\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self._attr()\n"
        "    def _attr(self):\n"
        "        return _used()\n"
        "    def _method(self):\n"
        "        pass\n"
    )
    other = "from m import _documented as alias\nK()._method = None\n"
    assert unread_private_functions([module, other]) == [(0, "_documented", 3), (0, "_method", 10)]


def test_every_private_function_is_read():
    unread = unread_private_functions([path.read_text() for path in SOURCES])
    assert [(str(SOURCES[i].relative_to(ROOT)), name, line) for i, name, line in unread] == []


def test_class_scanner_finds_unread_and_accepts_read():
    module = (
        "class Base:\n"
        "    '''Documented is only mentioned here.'''\n"
        "class Built(Base):\n"
        "    pass\n"
        "class Documented:\n"
        "    pass  # Documented\n"
        "class Reached:\n"
        "    pass\n"
        "def make():\n"
        "    class Local:\n"
        "        pass\n"
        "    return Built()\n"
    )
    other = "import m\nfrom m import Documented as alias\nm.Reached\n"
    assert unread_classes([module, other]) == [(0, "Documented", 5)]


def test_every_class_is_read():
    unread = unread_classes([path.read_text() for path in SOURCES])
    assert [(str(SOURCES[i].relative_to(ROOT)), name, line) for i, name, line in unread] == []
