"""Every name a module of the package exports must exist, and some program
must reach it.

Tools that walk the public surface (for example a tracer that wraps each
name in a module's ``__all__``) fail on a stale name left by a refactor.
A name that only tests call is surface without a user: it is kept working
and documented for nobody.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


_ROOT = Path(__file__).resolve().parents[1]
# the programs: the package itself, the scripts and the benchmark
_PROGRAMS = sorted(
    p
    for d in ("src/spcarec", "scripts", "perfbench")
    for p in (_ROOT / d).glob("*.py")
    # the package's re-exports reach nothing by themselves
    if p != _ROOT / "src/spcarec/__init__.py"
)


def _loaded_names(path: Path, imports: bool) -> set:
    """Names `path` loads, as a Name or an Attribute, and with `imports`
    the names it imports with `from ... import`; comments and strings,
    docstrings included, do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_programs_found():
    assert {p.name for p in _PROGRAMS} >= {
        "sdp.py", "cli.py", "admm_iterations.py", "run.py", "workloads.py"
    }


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_is_reached(name):
    """Each name in __all__ is loaded inside its own module, or loaded or
    imported by another program file."""
    own = _ROOT / "src/spcarec" / f"{name}.py"
    reached = _loaded_names(own, imports=False)
    for path in _PROGRAMS:
        if path != own:
            reached |= _loaded_names(path, imports=True)
    mod = importlib.import_module(f"spcarec.{name}")
    unreached = [attr for attr in getattr(mod, "__all__", ()) if attr not in reached]
    assert unreached == []
