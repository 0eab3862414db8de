"""The package's public names agree with its submodules' own lists."""

import importlib
import pkgutil

import stapy

SUBMODULES = [
    importlib.import_module(f"stapy.{info.name}")
    for info in pkgutil.iter_modules(stapy.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


def test_every_export_resolves_and_every_submodule_export_is_a_package_export():
    assert all(hasattr(stapy, name) for name in stapy.__all__)
    listed = [module for module in SUBMODULES if hasattr(module, "__all__")]
    assert {m.__name__ for m in listed} >= {"stapy.benchmarks", "stapy.engine", "stapy.operators"}
    for module in listed:
        assert all(hasattr(module, name) for name in module.__all__), module.__name__
        assert set(module.__all__) <= set(stapy.__all__), module.__name__
