"""The number of settable values in cusplab: defaulted parameters of module
functions and methods (dataclass ``__init__``s excluded, their fields are
counted instead), dataclass fields and config keys.  A change that adds or
removes a knob changes the pinned total in its diff."""

import dataclasses
import importlib
import inspect
import pkgutil

import cusplab
from cusplab import runio

SETTABLE_VALUES = 76


def _defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _settable_values():
    defaulted, fields = [], []
    for info in pkgutil.iter_modules(cusplab.__path__):
        module = importlib.import_module(f"cusplab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another module, counted there
            if inspect.isfunction(obj):
                defaulted += [f"{name}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc:
                    fields += [f"{name}.{f.name}" for f in dataclasses.fields(obj)]
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # static/class methods
                    if inspect.isfunction(member) and not (is_dc and attr == "__init__"):
                        defaulted += [f"{name}.{attr}({p})" for p in _defaulted(member)]
    keys = [f"[{section}] {key}" for section, ks in runio._KEYS.items() for key in ks]
    return defaulted, fields, keys


def test_settable_value_count_is_pinned():
    defaulted, fields, keys = _settable_values()
    total = len(defaulted) + len(fields) + len(keys)
    assert total == SETTABLE_VALUES, (defaulted, fields, keys)
