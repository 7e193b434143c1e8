import importlib
import pkgutil

import pytest

import oment

MODULES = [oment] + [
    importlib.import_module(f"oment.{info.name}") for info in pkgutil.iter_modules(oment.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_all_entry_resolves(module):
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_package_exports_every_module_api():
    for module in MODULES[1:]:
        assert set(getattr(module, "__all__", [])) <= set(oment.__all__), module.__name__
