"""The benchmark reaches the package by name; each name must exist.

``perfbench/tracing.py`` wraps the functions listed in ``SPANNED`` and
``COUNTED`` with ``getattr``, and the workloads call ``cr.<name>`` on the
package, so deleting or renaming one of them breaks only the benchmark.
These tests read the benchmark's source; they import none of it.
"""

import ast
import importlib
import re
from pathlib import Path

import causalreg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced_names() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            names += ast.literal_eval(node.value)
    return names


def _package_names() -> list[str]:
    found = set()
    for path in PERFBENCH.glob("*.py"):
        found.update(re.findall(r"\bcr\.([A-Za-z_]\w*)", path.read_text()))
    return sorted(found)


def test_traced_functions_exist():
    traced = _traced_names()
    assert traced
    missing = [
        name for name, module in traced
        if not callable(getattr(importlib.import_module(module), name.split(".", 1)[1], None))
    ]
    assert missing == []


def test_package_names_exist():
    names = _package_names()
    assert names
    assert [name for name in names if not hasattr(causalreg, name)] == []
