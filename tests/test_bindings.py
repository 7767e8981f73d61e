"""Where kfaclab holds the functions the benchmark's span tracer wraps.

bench/tracer.py wraps the public functions of its TRACED_MODULES and the
output models' MODEL_METHODS, and rebinds each wrapper where kfaclab holds
the original: as a module attribute, as a value of a module-level dict, or
as a class attribute. A function held in any other place (a list, tuple or
set, a container inside a dict, an instance attribute, a function default,
a closure, a staticmethod or a functools.cache wrapper) keeps
calling the original, so its spans would read 0. The tracer itself refuses
only some of those places; this test refuses all of them.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import kfaclab
from kfaclab import harness, kfac

ROOT = Path(__file__).resolve().parent.parent


def _tracer_rule():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED_MODULES, module.MODEL_METHODS


def _traced_functions() -> dict:
    """{id: function} of every function the tracer wraps, by its rule."""
    modules, methods = _tracer_rule()
    found = {}
    for short in modules:
        mod = importlib.import_module(f"kfaclab.{short}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = obj
    metrics = importlib.import_module("kfaclab.metrics")
    for cls in vars(metrics).values():
        if inspect.isclass(cls) and cls.__module__ == metrics.__name__:
            for name in methods:
                fn = vars(cls).get(name)
                if inspect.isfunction(fn):
                    found[id(fn)] = fn
    return found


def _hidden_places(traced: dict) -> list:
    """Every place in kfaclab's modules that holds a traced function and is
    neither a module attribute, a value of a module-level dict, nor a class
    attribute."""
    for info in pkgutil.iter_modules(kfaclab.__path__):
        importlib.import_module(f"kfaclab.{info.name}")
    modules = {name: vars(mod) for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "kfaclab"}
    # the tracer rebinds a module-level dict's values in place, wherever
    # else the dict is reached from
    module_dicts = {id(v) for ns in modules.values() for v in ns.values() if isinstance(v, dict)}
    hidden, seen = [], set()

    def walk(value, where, rebound):
        if id(value) in traced and traced[id(value)] is value and not rebound:
            hidden.append(where)
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}[{key!r}]", id(value) in module_dicts)
        elif isinstance(value, (list, tuple, set, frozenset)):
            for i, item in enumerate(value):
                walk(item, f"{where}[{i}]", False)
        elif inspect.isclass(value):
            if value.__module__.startswith("kfaclab"):
                for attr, item in vars(value).items():
                    walk(item, f"{where}.{attr}", True)
        elif inspect.isfunction(value) and value.__module__.startswith("kfaclab"):
            for i, item in enumerate(value.__defaults__ or ()):
                walk(item, f"{where}.__defaults__[{i}]", False)
            for key, item in (value.__kwdefaults__ or {}).items():
                walk(item, f"{where}.__kwdefaults__[{key!r}]", False)
            for i, cell in enumerate(value.__closure__ or ()):
                try:
                    walk(cell.cell_contents, f"{where}.<closure {i}>", False)
                except ValueError:  # an empty cell
                    pass
        elif isinstance(value, (staticmethod, classmethod)):
            walk(value.__func__, f"{where}.__func__", False)
        elif hasattr(value, "__wrapped__"):  # functools.cache and lru_cache
            walk(value.__wrapped__, f"{where}.__wrapped__", False)
        elif type(value).__module__.startswith("kfaclab") and hasattr(value, "__dict__"):
            for attr, item in vars(value).items():
                walk(item, f"{where}.{attr}", False)

    for name, namespace in modules.items():
        for attr, value in namespace.items():
            walk(value, f"{name}.{attr}", True)
    return hidden


def test_every_traced_function_is_held_where_the_tracer_rebinds_it():
    traced = _traced_functions()
    assert kfac.kfac_step in traced.values() and len(traced) > 50
    assert _hidden_places(traced) == []


def test_a_traced_function_held_in_a_container_or_a_default_is_refused(monkeypatch):
    def planted(step=kfac.ngd_step):
        return step

    planted.__module__ = harness.__name__
    # the first is the shape of a (build, apply) registry, which the tracer
    # neither rebinds nor refuses
    monkeypatch.setattr(harness, "_REGISTRY", {"kfac": (kfac.kfac_step, None)}, raising=False)
    monkeypatch.setattr(harness, "_STEPS", [kfac.sgd_step], raising=False)
    monkeypatch.setattr(harness, "_planted", planted, raising=False)
    assert _hidden_places(_traced_functions()) == [
        "kfaclab.harness._REGISTRY['kfac'][0]",
        "kfaclab.harness._STEPS[0]",
        "kfaclab.harness._planted.__defaults__[0]",
    ]
