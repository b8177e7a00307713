import importlib
import pkgutil
import types

import pytest

import statecone

MODULES = [importlib.import_module(f"statecone.{info.name}")
           for info in pkgutil.iter_modules(statecone.__path__)]
LISTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", LISTING, ids=lambda m: m.__name__)
def test_module_exports_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve_and_are_listed():
    # the package re-exports names of its modules' lists
    public = [n for n, v in vars(statecone).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    listed = {n for m in LISTING for n in m.__all__}
    assert public
    assert [n for n in public if n not in listed] == []
    assert all(any(getattr(m, n, None) is getattr(statecone, n)
                   for m in LISTING) for n in public)
