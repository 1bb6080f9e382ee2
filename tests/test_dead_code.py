"""Code nothing needs is deleted: every import of the package and of the
tests is used, and every module-level name of the package is referenced
inside it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "eigengaze"


def parsed(directory) -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))}


MODULES = parsed(SRC)
TEST_MODULES = parsed(TESTS)
# names that tools and importers read, not the package
KEPT = {"__all__", "__version__"}


def exported(tree) -> set:
    """The names a module's __all__ lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def loaded(tree) -> set:
    """The names a module reads, and those its __all__ lists."""
    return exported(tree) | {node.id for node in ast.walk(tree)
                             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def referenced(tree) -> set:
    """The names a module reads, reads as an attribute, imports by name or exports."""
    names = loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def imported(tree) -> set:
    """The names a module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return names


def defined(tree) -> set:
    """The names a module's own top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    tree = MODULES[name]
    assert sorted(imported(tree) - loaded(tree)) == []


@pytest.mark.parametrize("name", sorted(TEST_MODULES))
def test_every_import_of_the_tests_is_used(name):
    tree = TEST_MODULES[name]
    assert sorted(imported(tree) - loaded(tree)) == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_module_level_name_is_referenced(name):
    used = set().union(*map(referenced, MODULES.values()))
    assert sorted(defined(MODULES[name]) - KEPT - used) == []
