"""causalreg: decide when regression coefficients carry a causal meaning.

The package pairs graphical identification tools (d-separation, the
back-door criterion, missingness graphs, collapsibility arithmetic)
with a structural simulation engine and a replicated bias study that
demonstrates each failure mode empirically.

``import causalreg`` loads no submodule.  The package's names are its
submodules and the names in each searched submodule's ``__all__``.  A
lookup (PEP 562) answers a submodule name with the submodule, and
otherwise searches the ``__all__`` lists in layer order, importing
each module only as the search reaches it: first the graph layer
(``graph``, ``ident``, ``missing``, ``fixtures``), which runs without
numpy or scipy, then ``tables``, ``scm``, ``estimators`` and ``study``.
"""

import importlib.util

# The search order: a module loads only when no module before it has the name.
_SEARCHED = ("graph", "ident", "missing", "fixtures", "tables", "scm", "estimators", "study")

__version__ = "0.1.0"


def _searched_modules():
    for module in _SEARCHED:
        yield importlib.import_module(f"{__name__}.{module}")


def __getattr__(name: str):
    # Nothing is cached in this module's globals: each lookup reads the
    # submodule's current attribute, so a function replaced there (by a
    # test's monkeypatch, or a tracer that restores it later) is what
    # ``causalreg.<name>`` returns, now and after it is put back.
    if name == "__all__":
        return [*_SEARCHED, *(n for module in _searched_modules() for n in module.__all__)]
    # A private name, or one no import could name, fails at once; a
    # submodule name (``from causalreg import cli`` asks for one first)
    # must not import the numeric layer.
    if name.isidentifier() and not name.startswith("_"):
        if importlib.util.find_spec(f"{__name__}.{name}") is not None:
            return importlib.import_module(f"{__name__}.{name}")
        for module in _searched_modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
