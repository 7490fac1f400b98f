"""The cluster reaches into its racks' private state no more than it does now.

:class:`~repro.fabric.cluster.ClusterCoSimulator` drives one
:class:`~repro.fabric.cosim.RackCoSimulator` per rack, and every access to a
rack's underscore attribute from ``cluster.py`` couples the two classes
tighter.  The count may only fall: lower ``MAX_REACHES`` when a change removes
one, never raise it.  Count them by hand with
``grep -oE '\\b(sim|other)\\._[a-z_]+' src/repro/fabric/cluster.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.fabric.cluster

MAX_REACHES = 0

REACH = re.compile(r"\b(sim|other)\._[a-z_]+")


def test_cluster_reaches_into_racks_at_most_max_reaches_times():
    source = Path(repro.fabric.cluster.__file__).read_text(encoding="utf-8")
    reaches = [match.group(0) for match in REACH.finditer(source)]
    assert len(reaches) <= MAX_REACHES, reaches
