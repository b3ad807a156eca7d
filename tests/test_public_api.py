"""The public surface: every exported name resolves in its home module.

Tools that walk ``__all__`` (the benchmark tracer wraps the functions it
finds there) skip a missing name silently, so a stale entry must fail
here instead.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import chroma


def test_every_all_entry_resolves():
    modules = [
        importlib.import_module(f"chroma.{info.name}")
        for info in pkgutil.iter_modules(chroma.__path__)
    ]
    assert {m.__name__ for m in modules} >= {"chroma.coloring", "chroma.oracle"}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_package_reexports_come_from_home_all():
    tree = ast.parse(Path(chroma.__file__).read_text())
    reexported = 0
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level != 1 or node.module is None:
            continue
        home = importlib.import_module(f"chroma.{node.module}")
        for alias in node.names:
            assert alias.name in home.__all__, f"{alias.name} not in {home.__name__}.__all__"
            assert getattr(chroma, alias.asname or alias.name) is getattr(home, alias.name)
            reexported += 1
    assert reexported
