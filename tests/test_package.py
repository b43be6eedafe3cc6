import importlib
import pkgutil

import pytest

import causalreg

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(causalreg.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    # A stale name in __all__ breaks `from causalreg.<module> import *`.
    mod = importlib.import_module(f"causalreg.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
