"""No module-level callable of the package carries ``__wrapped__``.

perfbench's tracer (``layertrace.any_installed``) reads any such callable as
one of its own wrappers left installed and refuses an untraced run. So a memo
in the package is a plain dict, never ``functools.lru_cache``, ``cache`` or
another decorator that sets ``__wrapped__``."""

import functools
import importlib
import pkgutil

import pytest

import mvop

MODULES = [mvop] + [importlib.import_module(f"mvop.{m.name}") for m in pkgutil.iter_modules(mvop.__path__)]


def _wrapped(mod):
    return sorted(name for name, value in vars(mod).items() if callable(value) and hasattr(value, "__wrapped__"))


def test_modules_found():
    assert {"mvop.exactalg", "mvop.diffop", "mvop.dwalgebra", "mvop.dsl"} <= {m.__name__ for m in MODULES}


@pytest.mark.parametrize("mod", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_wrapped_callables(mod):
    assert _wrapped(mod) == []


def test_a_memo_decorator_is_seen(monkeypatch):
    # the check sees what the tracer would refuse
    from mvop import exactalg

    monkeypatch.setattr(exactalg, "digit", functools.lru_cache(maxsize=None)(exactalg.digit))
    assert _wrapped(exactalg) == ["digit"]
