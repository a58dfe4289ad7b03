"""The size of cusplab's surface.

The number of settable values: defaulted parameters of module functions and
methods (dataclass ``__init__``s excluded, their fields are counted
instead), dataclass fields and config keys.  A change that adds or removes a
knob changes the pinned total in its diff.

The public names: every public function, class and method is referenced in
the package's code outside its own definition, or in the benchmark's code,
unless the allowlist below gives the reason it is kept."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import cusplab
from cusplab import runio

SETTABLE_VALUES = 75

SRC = Path(cusplab.__file__).parent
BENCH = SRC.parent.parent / "cuspbench"
# public names no code of the package or the benchmark references
KEPT_UNREFERENCED = {
    "halfplane.hyperbolic_distance": "test oracle for arc lengths along geodesics",
    "halfplane.MobiusMap.apply": "test oracle in the group-law and reduction checks",
    "paley.lp_block": "the benchmark traces it by name (ROADMAP item 4)",
}


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


def _references(paths):
    """(name, path, line) of every name and attribute read in the files."""
    refs = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))
    return refs


def _public_names():
    """(qualified name, name, object) of each public function, class and
    method (properties included) defined in cusplab."""
    for info in pkgutil.iter_modules(cusplab.__path__):
        module = importlib.import_module(f"cusplab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{info.name}.{name}", name, obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "fget", getattr(member, "func", member))
                    fn = getattr(fn, "__func__", fn)  # static/class methods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{info.name}.{name}.{attr}", attr, fn


def test_every_public_name_is_referenced_or_kept_for_a_reason():
    src_refs = _references(sorted(SRC.glob("*.py")))
    bench_names = {name for name, _, _ in _references(sorted(BENCH.glob("*.py")))}
    unreferenced = set()
    for qual, name, obj in _public_names():
        path = Path(inspect.getsourcefile(obj))
        lines, start = inspect.getsourcelines(obj)
        own = range(start, start + len(lines))
        if name in bench_names or any(
            n == name and not (p == path and line in own) for n, p, line in src_refs
        ):
            continue
        unreferenced.add(qual)
    # an entry that has found a caller leaves the allowlist
    assert unreferenced == set(KEPT_UNREFERENCED)
