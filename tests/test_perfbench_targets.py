"""Every method the end-to-end benchmark wraps is defined where it looks.

``perfbench/layers.py`` installs its timers by replacing
``vars(owner)[name]`` for each ``(owner, name)`` that ``layer_targets()`` and
``lap_targets()`` list, so a method that is removed, renamed or only
inherited makes every traced benchmark sample fail with ``KeyError``.  This
test catches that in the test suite instead.  It loads ``layers.py`` from
its file and changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(targets) -> list[str]:
    return [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"
        for owner, name in targets
        if name not in vars(owner)
    ]


def test_every_layer_target_is_defined_on_its_owner():
    targets = [t for group in _layers().layer_targets().values() for t in group]
    assert targets
    assert _missing(targets) == []


def test_every_lap_target_is_defined_on_its_owner():
    targets = _layers().lap_targets()
    assert targets
    assert _missing(targets) == []
