"""Every name a module of the package imports is used there or exported, and
every module-level function or class is used somewhere in the package or
exported."""

import ast
from pathlib import Path

import pytest

import ibetls

PACKAGE = Path(ibetls.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                        arguments.vararg, arguments.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def _names_read(tree: ast.AST) -> set[str]:
    """The bare names a module reads, in code or in quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation ("KemParams") names what it uses in a string.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(name, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    """The names source imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names_read(tree) | _exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes in sources (name -> text) that
    no source reads, reads as an attribute, imports or lists in __all__."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        referenced |= _names_read(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return [f"{name}: {node.name} (line {node.lineno})" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in referenced]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(path.relative_to(PACKAGE.parent)) for path in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["os (line 1)"]
    assert unused_imports('from a import b\n__all__ = ["b"]\n') == []
    assert unused_imports('from a import B\ndef f() -> "B": pass\n') == []


def test_no_dead_definitions():
    assert dead_definitions({str(path.relative_to(PACKAGE.parent)): path.read_text(
        encoding="utf-8") for path in SOURCES}) == []


def test_a_dead_definition_is_found():
    assert dead_definitions({"a.py": "def f(): pass\nclass C: pass\ndef g(): pass\nprint(g)\n"}) \
        == ["a.py: f (line 1)", "a.py: C (line 2)"]
    for user in ("from a import f\n", "import a\na.f()\n", '__all__ = ["f"]\n',
                 'def g(x: "f"): pass\ng(0)\n'):
        assert dead_definitions({"a.py": "def f(): pass\n", "b.py": user}) == [], user
