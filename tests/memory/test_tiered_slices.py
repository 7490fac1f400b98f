"""Slice placement against the index-array placement it replaced.

:meth:`TieredMemory.touch` writes a wholly unplaced first-touch, local or
remote object's pages by slice, and :meth:`TieredMemory.free` counts and
clears by slice.  Any sequence of touches, frees and migrations must leave
the same page tiers, the same capacity accounting and the same
:class:`AllocationError` outcomes as the index-array implementation kept in
:mod:`memory.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.config.errors import AllocationError
from repro.config.tiers import TieredMemoryConfig, TierSpec
from repro.memory.objects import PLACEMENT_POLICIES, AddressSpace, MemoryObject
from repro.memory.tiered import TieredMemory
from memory.oracles import IndexArrayTieredMemory

PAGE = 4096


def _config(capacities) -> TieredMemoryConfig:
    return TieredMemoryConfig(
        tiers=tuple(
            TierSpec(f"tier{i}", capacity, bandwidth=100e9 / (i + 1), latency=80e-9 * (i + 1))
            for i, capacity in enumerate(capacities)
        )
    )


def _outcome(fn):
    """``fn()``'s result, or the allocation error it raised (type and message)."""
    try:
        result = fn()
    except AllocationError as exc:
        return (type(exc), str(exc))
    return result.tolist() if isinstance(result, np.ndarray) else result


def _state(memory: TieredMemory):
    return (
        memory.page_tiers().tolist(),
        [u.used_bytes for u in memory.usage],
        memory.migrations,
    )


operations = st.lists(
    st.tuples(
        st.sampled_from(("touch", "touch", "free", "migrate")),
        st.integers(0, 7),  # which object (an index past the last is unregistered)
        st.integers(0, 2),  # migration target tier, modulo the tier count
        st.sampled_from((None, 0, 1, 3, -2)),  # migration page budget
    ),
    max_size=14,
)


def _replay(capacities, objects, ops, reserved=0, late=None) -> None:
    """Run ``ops`` on a :class:`TieredMemory` and the oracle; compare every step.

    ``ops`` holds (operation, object index, migration tier, migration budget);
    an object index past the last names an object that is never registered.
    Objects from index ``late`` on register after the memories exist, so the
    next operation grows the page table.
    """
    config = _config(capacities)
    stranger = MemoryObject("stranger", PAGE)
    space = AddressSpace(page_bytes=PAGE, line_bytes=64)
    late = len(objects) if late is None else late
    space.register_all(objects[:late])
    memory = TieredMemory(config, space, reserved_local_bytes=reserved)
    oracle = IndexArrayTieredMemory(config, space, reserved_local_bytes=reserved)
    space.register_all(objects[late:])
    pool = list(objects) + [stranger]
    for op, index, to_tier, budget in ops:
        target = pool[min(index, len(pool) - 1)]
        if op == "touch":
            calls = [lambda m=m: m.touch(target) for m in (memory, oracle)]
        elif op == "free":
            calls = [lambda m=m: m.free(target) for m in (memory, oracle)]
        else:
            tier = to_tier % len(config.tiers)
            calls = [lambda m=m: m.migrate(target, tier, budget) for m in (memory, oracle)]
        got, expected = (_outcome(call) for call in calls)
        assert got == expected, (op, target.name)
        assert _state(memory) == _state(oracle), (op, target.name)


operations = st.lists(
    st.tuples(
        st.sampled_from(("touch", "touch", "free", "migrate")),
        st.integers(0, 7),
        st.integers(0, 2),
        st.sampled_from((None, 0, 1, 3, -2)),
    ),
    max_size=14,
)


@given(
    sizes=st.lists(st.integers(1, 24), min_size=1, max_size=6),
    policies=st.lists(st.sampled_from(PLACEMENT_POLICIES), min_size=6, max_size=6),
    capacities=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from((0, 0, 1, PAGE // 2))),
        min_size=1,
        max_size=3,
    ),
    reserved=st.sampled_from((0, 0, PAGE // 3, PAGE, 2 * PAGE)),
    late=st.integers(0, 6),
    ops=operations,
)
def test_slice_placement_matches_the_index_array_placement(
    sizes, policies, capacities, reserved, late, ops
):
    capacities = [pages * PAGE + extra for pages, extra in capacities]
    assume(sum(capacities) > 0 and reserved <= capacities[0])
    objects = [
        MemoryObject(f"o{i}", size * PAGE - (i % 2) * 100, placement=policy)
        for i, (size, policy) in enumerate(zip(sizes, policies))
    ]
    _replay(capacities, objects, ops, reserved, late)


@pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
def test_a_partly_placed_object_places_only_its_unplaced_pages(policy):
    # An out-of-memory touch leaves "big" partly placed; once "small" is
    # freed, touching "big" again must place only the pages still unplaced.
    objects = [MemoryObject("small", 4 * PAGE), MemoryObject("big", 10 * PAGE, placement=policy)]
    ops = [("touch", 0, 0, None), ("touch", 1, 0, None), ("free", 0, 0, None)]
    _replay([6 * PAGE, 3 * PAGE], objects, ops + [("touch", 1, 0, None)] * 2)
