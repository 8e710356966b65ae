"""Every name a module of the package exports must exist.

Tools that walk the public surface (for example a tracer that wraps each
name in a module's ``__all__``) fail on a stale name left by a refactor.
"""

import importlib
import pkgutil

import pytest

import spcarec

_MODULES = sorted(m.name for m in pkgutil.iter_modules(spcarec.__path__))


def test_layer_modules_found():
    assert {"numerics", "graph", "sdp", "spca", "bounds", "baselines",
            "harness", "cli"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"spcarec.{name}")
    exported = getattr(mod, "__all__", ())
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)
