"""Tenants advance in one stepping loop.

:meth:`~repro.fabric.cosim.RackCoSimulator.step_frozen` is the one place
tenants advance, and :func:`~repro.fabric.cosim.step_racks` is the one loop
that calls it: a cluster's ``step`` and each rack's own ``step`` both run
through it.  A second caller under ``src/`` would be a second stepping loop,
which this test refuses.  Find callers by hand with
``grep -rn 'step_frozen(' src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


class _Callers(ast.NodeVisitor):
    """Collects the innermost enclosing function of each call to ``name``."""

    def __init__(self, name: str, module: str) -> None:
        self.name = name
        self.module = module
        self.scope = ["<module>"]
        self.found: list[str] = []

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == self.name:
            self.found.append(f"{self.module}:{self.scope[-1]}")
        self.generic_visit(node)


def callers(name: str) -> list[str]:
    """``module path:function`` of every call under ``src/`` to a method
    called ``name``, one entry per call site."""
    found: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Callers(name, path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.extend(visitor.found)
    return found


def test_step_frozen_is_called_only_from_step_racks():
    assert callers("step_frozen") == ["fabric/cosim.py:step_racks"]
