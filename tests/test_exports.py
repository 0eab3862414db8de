"""The package's public names agree with its submodules' own lists."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import stapy

SUBMODULES = [
    importlib.import_module(f"stapy.{info.name}")
    for info in pkgutil.iter_modules(stapy.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]
LISTED = [module for module in SUBMODULES if module.__name__ != "stapy.cli"]


def _written_in_all(path: Path) -> list[str]:
    """The string literals of the ``__all__`` assignment in a source file."""
    tree = ast.parse(path.read_text())
    return [
        node.value
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in statement.targets)
        for node in ast.walk(statement.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def test_every_export_resolves_and_every_submodule_export_is_a_package_export():
    assert all(hasattr(stapy, name) for name in stapy.__all__)
    listed = [module for module in SUBMODULES if hasattr(module, "__all__")]
    assert {m.__name__ for m in listed} >= {"stapy.benchmarks", "stapy.engine", "stapy.operators"}
    for module in listed:
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
        assert set(module.__all__) <= set(stapy.__all__), module.__name__


def test_every_submodule_but_the_cli_lists_its_exports():
    assert {m.__name__ for m in LISTED} >= {"stapy.core", "stapy.expressions"}
    for module in LISTED:
        assert isinstance(getattr(module, "__all__", None), list), module.__name__


def test_the_package_exports_its_submodules_lists_and_its_version():
    names = [name for module in LISTED for name in module.__all__] + ["__version__"]
    assert len(stapy.__all__) == len(set(stapy.__all__))
    assert sorted(stapy.__all__) == sorted(names)


def test_each_public_name_is_written_in_exactly_one_export_list():
    written = Counter(
        name for path in Path(stapy.__file__).parent.glob("*.py") for name in _written_in_all(path)
    )
    assert {name: written[name] for name in stapy.__all__ if written[name] != 1} == {}


def test_the_package_imports_no_public_name_by_name():
    tree = ast.parse(Path(stapy.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert set(imported) & set(stapy.__all__) == set()
