"""Every annotation in ``repro.fabric`` and ``repro.scheduler`` resolves.

With ``from __future__ import annotations`` an annotation is a string that
fails only once something evaluates it, e.g. :func:`typing.get_type_hints`.
No linter runs offline, so this test is the check for undefined names there.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro.fabric
import repro.scheduler


def _modules():
    for package in (repro.fabric, repro.scheduler):
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            yield importlib.import_module(f"{package.__name__}.{info.name}")


def _annotated():
    """(qualified name, object) of every function, class and method defined here."""
    for module in _modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    failures = []
    checked = 0
    for name, obj in _annotated():
        checked += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # NameError, TypeError, ...
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert checked > 100
    assert failures == []
