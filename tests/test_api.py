"""The public API has no tolerance knobs: every numerical guard's limit is
a module constant times the scale of the guard's own input, so no caller
can loosen or tighten one."""

import importlib
import inspect
import pkgutil

import crmatrix


def public_callables():
    """(qualified name, callable) of every public function and every public
    method of a public class defined in a crmatrix module."""
    for info in pkgutil.iter_modules(crmatrix.__path__):
        module = importlib.import_module(f"crmatrix.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield f"{module.__name__}.{name}.{attr}", method


def test_public_callables_exist():
    names = dict(public_callables())
    assert "crmatrix.model.eigenfield_from_stack" in names
    assert "crmatrix.model.BlochField.validate" in names
    assert "crmatrix.presets.qwz_pump" in names


#: not knobs: the manifest writer records the limits a run applied
RECORDS = {"crmatrix.io.write_manifest(tolerances)"}


def test_no_public_callable_takes_a_tolerance():
    knobs = {f"{name}({param})" for name, fn in public_callables()
             for param in inspect.signature(fn).parameters if "tol" in param.lower()}
    assert knobs - RECORDS == set()
