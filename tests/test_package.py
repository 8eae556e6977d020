"""Each public name has one import path: its submodule. The package root
re-exports nothing, the package holds no name that only tests use, every
name the README cites exists, and importing the CLI loads no slow scipy
subpackage."""

import ast
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
import tomllib
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


def test_every_public_name_has_a_caller_outside_the_tests(monkeypatch):
    """Each public module-level function and class of the package is named
    in package code or a demo (as a name, an attribute or an import), is a
    script entry point, or is a function the benchmark traces. A test-only
    helper belongs in tests/reference.py."""
    named = set()
    for path in [*(REPO / "src").rglob("*.py"), *(REPO / "demos").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    named.update(entry.rpartition(":")[2] for entry in scripts.values())
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    named.update(name.rpartition(".")[2]
                 for name in importlib.import_module("run").referenced_functions())
    unused = [f"{path.stem}.{node.name}"
              for path in sorted((REPO / "src" / "headlab").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named]
    assert unused == []


def test_every_dotted_name_in_the_readme_resolves():
    """Each dotted `headlab.<module>.<name>` in README.md is an attribute of
    its module, so a renamed or deleted name cannot stay in the docs."""
    cited = set(re.findall(r"\bheadlab(?:\.\w+){2,}", (REPO / "README.md").read_text()))
    unresolved = []
    for dotted in sorted(cited):
        _, module, *names = dotted.split(".")
        try:
            functools.reduce(getattr, names, importlib.import_module(f"headlab.{module}"))
        except (ImportError, AttributeError):
            unresolved.append(dotted)
    assert cited and unresolved == []


def test_importing_the_cli_loads_neither_scipy_stats_nor_scipy_optimize():
    """A fresh interpreter's `import headlab.cli` leaves both out of
    `sys.modules`: `scipy.stats` alone takes about a second to import, and
    every command and every test subprocess would pay it."""
    probe = ("import sys, headlab.cli; "
             "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_scipy_sparse():
    """A fresh interpreter's `import headlab.cli` leaves every `scipy.sparse`
    module out of `sys.modules`: they are about 80 modules and 3 MB of
    resident memory that every command and every fork-pool worker would
    carry."""
    probe = ("import sys, headlab.cli; "
             "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
