import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_function_carries_its_name_and_a_docstring(module):
    # a stage bound as ``sigma = np.errstate(...)(_sigma)`` would show help()
    # the private name
    functions = {
        name: value
        for name in getattr(module, "__all__", [])
        if inspect.isfunction(value := getattr(module, name))
    }
    assert {name: f.__name__ for name, f in functions.items() if f.__name__ != name} == {}
    assert [name for name, f in functions.items() if not (f.__doc__ or "").strip()] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
