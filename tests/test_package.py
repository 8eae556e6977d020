"""Each public name has one import path: its submodule. The package root
re-exports nothing."""

import ast
import inspect
from pathlib import Path

import headlab

REPO = Path(__file__).resolve().parents[1]


def test_package_root_holds_no_function_or_class():
    exported = [name for name in dir(headlab)
                if inspect.isfunction(getattr(headlab, name))
                or inspect.isclass(getattr(headlab, name))]
    assert exported == []


def test_imports_from_the_root_name_only_submodules():
    sources = [*(REPO / "src").rglob("*.py"), *(REPO / "tests").glob("*.py"),
               *(REPO / "demos").glob("*.py")]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module == "headlab" or node.level and not node.module  # from . import
            ):
                for alias in node.names:
                    assert (REPO / "src" / "headlab" / f"{alias.name}.py").is_file(), (
                        path.name, alias.name)
