import importlib
import inspect
import math
import operator
import pkgutil
import re
from pathlib import Path

import pytest

import oment
import references
from oment import params
from oment.constants import C_LIGHT

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


def test_every_public_function_and_class_is_named_in_the_readme():
    text = README.read_text()
    public = [
        name
        for name in oment.__all__
        if inspect.isfunction(value := getattr(oment, name)) or inspect.isclass(value)
    ]
    assert [name for name in public if not re.search(rf"\b{name}\b", text)] == []


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _readme_range(text, unit):
    """The (above, low, below, high) rule of a README range cell, in the
    field's unit: Hz become rad/s."""
    per_hz = 2.0 * math.pi if unit == "Hz" else 1.0
    if closed := re.fullmatch(r"\[(\S+), (\S+)\]", text):
        low, high = (per_hz * float(bound) for bound in closed.groups())
        return operator.ge, low, operator.le, high
    symbol, bound = text.split()
    return {
        ">=": (operator.ge, float(bound), operator.le, math.inf),
        ">": (operator.gt, float(bound), operator.le, math.inf),
        "<": (operator.ge, -math.inf, operator.lt, float(bound)),
    }[symbol]


def test_readme_range_table_is_the_code_table():
    row = r"^\| `(\w+)` \|[^|]+\|([^|]+)\|([^|]*)\|$"
    rows = re.findall(row, README.read_text(), re.MULTILINE)
    table = {name: (cell.strip(), unit.strip()) for name, cell, unit in rows}
    assert set(table) == set(params._RANGES)
    # omega_laser is 2*pi*c/lambda, so its bounds are the wavelength's, swapped
    _, shortest, _, longest = _readme_range(*table.pop("laser_wavelength"))
    assert table.pop("omega_laser")[0] == "2πc/λ over the wavelength's range"
    assert params._RANGES["laser_wavelength"] == (operator.ge, shortest, operator.le, longest)
    slowest, fastest = (2.0 * math.pi * C_LIGHT / wavelength for wavelength in (longest, shortest))
    assert params._RANGES["omega_laser"] == (operator.ge, slowest, operator.le, fastest)
    assert {name: _readme_range(*cell) for name, cell in table.items()} == {
        name: params._RANGES[name] for name in table
    }


def test_the_reference_inventory_names_every_reference():
    # the docstring of references.py names each public function the module
    # defines, and nothing else but functions of oment
    named = set(re.findall(r":func:`([\w.]+)`", references.__doc__))
    local = {name for name in named if "." not in name}
    defined = {
        name for name, value in vars(references).items()
        if inspect.isfunction(value) and value.__module__ == "references" and name[0] != "_"
    }
    assert local == defined
    for name in named - local:
        assert name.startswith("oment.") and pkgutil.resolve_name(name), name
