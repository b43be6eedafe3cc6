import importlib
import pkgutil
from collections import Counter

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


# The submodules whose __all__ the package searches for its names.
SEARCHED = [name for name in causalreg.__all__ if name in MODULES]


@pytest.mark.parametrize("module", SEARCHED)
def test_package_returns_each_exported_object(module):
    mod = importlib.import_module(f"causalreg.{module}")
    assert [name for name in mod.__all__ if getattr(causalreg, name) is not getattr(mod, name)] == []


def test_no_name_is_exported_by_two_searched_modules():
    # A later module's name would be shadowed by an earlier one's.
    counts = Counter(
        name for module in SEARCHED for name in importlib.import_module(f"causalreg.{module}").__all__
    )
    assert [name for name, count in counts.items() if count > 1] == []
