"""Every module's ``__all__`` names what it defines, and nothing else.

A name in ``__all__`` must resolve, and every public function and class a
module defines must be listed, so that a deletion leaves no stale export
and an addition is not left out of the public surface.
"""

import importlib
import inspect

import pytest

MODULES = ("io", "optics", "lifshitz", "corrections", "metrology", "hypforce")


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"casimetry.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = importlib.import_module(f"casimetry.{name}")
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_exports_resolve():
    import casimetry
    assert all(hasattr(casimetry, n) for n in casimetry.__all__)
