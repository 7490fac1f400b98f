"""Tests for tiered memory placement, including first-touch semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.errors import AllocationError, PlacementError
from repro.config.tiers import single_tier_config, two_tier_config
from repro.memory.objects import (
    AddressSpace,
    MemoryObject,
    PLACEMENT_INTERLEAVE,
    PLACEMENT_LOCAL,
    PLACEMENT_REMOTE,
)
from repro.memory.tiered import TieredMemory, TierUsage, UNPLACED

PAGE = 4096


def build(local_pages, remote_pages, objects, reserved=0):
    """Helper: an address space + tiered memory with page-granular capacities."""
    space = AddressSpace(page_bytes=PAGE, line_bytes=64)
    space.register_all(objects)
    config = two_tier_config(local_pages * PAGE, remote_pages * PAGE)
    return space, TieredMemory(config, space, reserved_local_bytes=reserved)


def obj(name, pages, **kwargs):
    return MemoryObject(name=name, size_bytes=pages * PAGE, **kwargs)


class TestFirstTouch:
    def test_fills_local_then_spills(self):
        a = obj("a", 6)
        _, memory = build(4, 10, [a])
        placement = memory.touch(a)
        assert (placement == 0).sum() == 4
        assert (placement == 1).sum() == 2

    def test_order_matters(self):
        hot = obj("hot", 2)
        big = obj("big", 4)
        _, memory = build(4, 10, [big, hot])
        memory.touch_in_order([big, hot])
        assert np.all(memory.placement_of(big) == 0)
        assert np.all(memory.placement_of(hot) == 1)

        # Reversed order places the hot object locally instead.
        hot2 = obj("hot", 2)
        big2 = obj("big", 4)
        _, memory2 = build(4, 10, [hot2, big2])
        memory2.touch_in_order([hot2, big2])
        assert np.all(memory2.placement_of(hot2) == 0)
        assert (memory2.placement_of(big2) == 1).sum() == 2

    def test_touch_is_idempotent(self):
        a = obj("a", 3)
        _, memory = build(8, 8, [a])
        first = memory.touch(a)
        second = memory.touch(a)
        np.testing.assert_array_equal(first, second)
        assert memory.usage[0].used_bytes == 3 * PAGE

    def test_reserved_local_bytes_shrinks_local_tier(self):
        a = obj("a", 4)
        _, memory = build(4, 10, [a], reserved=2 * PAGE)
        placement = memory.touch(a)
        assert (placement == 0).sum() == 2
        assert (placement == 1).sum() == 2

    def test_oom_when_nothing_fits(self):
        a = obj("a", 10)
        _, memory = build(2, 2, [a])
        with pytest.raises(AllocationError, match="out of memory"):
            memory.touch(a)


class TestExplicitPlacement:
    def test_local_and_remote_policies(self):
        a = obj("a", 2, placement=PLACEMENT_LOCAL)
        b = obj("b", 2, placement=PLACEMENT_REMOTE)
        _, memory = build(4, 4, [a, b])
        memory.touch_in_order([a, b])
        assert np.all(memory.placement_of(a) == 0)
        assert np.all(memory.placement_of(b) == 1)

    def test_local_policy_respects_capacity(self):
        a = obj("a", 6, placement=PLACEMENT_LOCAL)
        _, memory = build(4, 10, [a])
        with pytest.raises(AllocationError):
            memory.touch(a)

    def test_interleave_spreads_over_tiers(self):
        a = obj("a", 8, placement=PLACEMENT_INTERLEAVE)
        _, memory = build(8, 8, [a])
        placement = memory.touch(a)
        assert (placement == 0).sum() == 4
        assert (placement == 1).sum() == 4


class TestFreeAndMigrate:
    def test_free_releases_capacity(self):
        a = obj("a", 2)
        b = obj("b", 6)
        _, memory = build(4, 8, [a, b])
        memory.touch_in_order([a, b])  # b spills: 2 pages local, 4 remote
        released = memory.free(b)
        assert released == 6 * PAGE
        # Both tiers give b's pages back; a keeps its own.
        assert memory.usage[0].used_bytes == 2 * PAGE
        assert memory.usage[1].used_bytes == 0
        assert np.all(memory.placement_of(b) == UNPLACED)
        assert np.all(memory.placement_of(a) == 0)

    def test_free_then_reuse_local(self):
        a = obj("a", 4)
        b = obj("b", 3)
        _, memory = build(4, 6, [a, b])
        memory.touch(a)
        memory.free(a)
        memory.touch(b)
        assert np.all(memory.placement_of(b) == 0)

    def test_migrate_moves_pages(self):
        a = obj("a", 6)
        _, memory = build(4, 10, [a])
        memory.touch(a)
        moved = memory.migrate(a, to_tier=1)
        assert moved == 4
        assert np.all(memory.placement_of(a) == 1)
        assert memory.migrations == 4

    def test_migrate_respects_capacity_and_max_pages(self):
        a = obj("a", 6)
        _, memory = build(4, 10, [a])
        memory.touch(a)
        moved = memory.migrate(a, to_tier=0, max_pages=1)
        assert moved <= 1

    def test_migrate_invalid_tier(self):
        a = obj("a", 2)
        _, memory = build(4, 4, [a])
        memory.touch(a)
        with pytest.raises(PlacementError):
            memory.migrate(a, to_tier=5)

    def test_migrate_clamped_by_destination_capacity(self):
        """Asking for more pages than the destination holds moves only what fits."""
        a = obj("a", 2)
        b = obj("b", 6)
        _, memory = build(2, 10, [a, b])
        memory.touch(a)  # fills the local tier completely
        memory.touch(b)  # all 6 pages spill remote
        memory.free(a)  # 2 local pages free again
        moved = memory.migrate(b, to_tier=0)
        assert moved == 2
        placement = memory.placement_of(b)
        assert (placement == 0).sum() == 2
        assert (placement == 1).sum() == 4
        # Accounting stays consistent: the local tier is exactly full again.
        assert memory.usage[0].used_bytes == 2 * PAGE
        assert memory.usage[1].used_bytes == 4 * PAGE

    def test_migrate_zero_max_pages_is_a_noop(self):
        a = obj("a", 4)
        _, memory = build(4, 10, [a])
        memory.touch(a)
        before = [u.used_bytes for u in memory.usage]
        assert memory.migrate(a, to_tier=1, max_pages=0) == 0
        assert memory.migrations == 0
        assert [u.used_bytes for u in memory.usage] == before

    def test_migrate_negative_max_pages_treated_as_zero(self):
        a = obj("a", 4)
        _, memory = build(4, 10, [a])
        memory.touch(a)
        assert memory.migrate(a, to_tier=1, max_pages=-3) == 0

    def test_double_free_is_idempotent(self):
        a = obj("a", 4)
        _, memory = build(4, 4, [a])
        memory.touch(a)
        assert memory.free(a) == 4 * PAGE
        # Freeing again releases nothing and never drives usage negative.
        assert memory.free(a) == 0
        assert memory.usage[0].used_bytes == 0
        assert memory.usage[1].used_bytes == 0
        assert np.all(memory.placement_of(a) == UNPLACED)

    def test_free_untouched_object_is_a_noop(self):
        a = obj("a", 4)
        _, memory = build(4, 4, [a])
        assert memory.free(a) == 0
        assert memory.usage[0].used_bytes == 0


class TestQueries:
    def test_remote_capacity_ratio(self):
        a = obj("a", 8)
        _, memory = build(4, 8, [a])
        assert memory.remote_capacity_ratio() == 0.0  # nothing resident yet
        memory.touch(a)
        assert memory.remote_capacity_ratio() == pytest.approx(0.5)

    def test_tier_of_lines(self):
        a = obj("a", 4)
        space, memory = build(2, 4, [a])
        memory.touch(a)
        lines_per_page = space.lines_per_page
        lines = np.array([0, lines_per_page * 2, lines_per_page * 3])
        tiers = memory.tier_of_lines(lines)
        np.testing.assert_array_equal(tiers, [0, 1, 1])

    def test_object_tier_bytes(self):
        a = obj("a", 6)
        _, memory = build(4, 10, [a])
        memory.touch(a)
        by_tier = memory.object_tier_bytes(a)
        assert by_tier["local-dram"] == 4 * PAGE
        assert by_tier["memory-pool"] == 2 * PAGE

    def test_describe(self):
        a = obj("a", 2)
        _, memory = build(4, 4, [a])
        memory.touch(a)
        info = memory.describe()
        assert info["migrations"] == 0
        assert len(info["tiers"]) == 2

    def test_object_tier_bytes_follow_each_touch(self):
        hot = obj("hot", 2)
        cold = obj("cold", 6)
        _, memory = build(4, 8, [hot, cold])
        memory.touch(hot)
        assert memory.object_tier_bytes(hot) == {"local-dram": 2 * PAGE, "memory-pool": 0}
        assert memory.object_tier_bytes(cold) == {"local-dram": 0, "memory-pool": 0}
        memory.touch(cold)
        # cold spills: 2 pages fit locally after hot, 4 go remote.
        assert memory.object_tier_bytes(cold) == {"local-dram": 2 * PAGE, "memory-pool": 4 * PAGE}
        assert memory.remote_capacity_ratio() == pytest.approx(4 / 8)

    def test_resident_bytes_track_touch_and_free(self):
        hot = obj("hot", 2)
        cold = obj("cold", 6)
        _, memory = build(4, 8, [hot, cold])

        def rss():
            return memory.resident_bytes(0) + memory.resident_bytes(1)

        memory.touch(hot)
        assert rss() == 2 * PAGE
        memory.touch(cold)
        assert rss() == 8 * PAGE
        memory.free(cold)
        assert rss() == 2 * PAGE
        assert memory.resident_bytes(0) == 2 * PAGE
        assert memory.resident_bytes(1) == 0

    def test_resident_bytes_exclude_reserved_waste(self):
        a = obj("a", 4)
        _, memory = build(4, 10, [a], reserved=2 * PAGE)
        memory.touch(a)
        assert memory.usage[0].used_bytes == 4 * PAGE
        assert memory.resident_bytes(0) == 2 * PAGE
        assert memory.resident_bytes(1) == 2 * PAGE

    def test_remote_capacity_ratio_counts_only_application_pages(self):
        a = obj("a", 4)
        _, memory = build(4, 10, [a], reserved=3 * PAGE)
        memory.touch(a)  # 1 page local beside the waste, 3 remote
        assert memory.remote_capacity_ratio() == pytest.approx(3 / 4)

    def test_single_tier_ratio_is_zero(self):
        a = obj("a", 4)
        space = AddressSpace(page_bytes=PAGE, line_bytes=64)
        space.register(a)
        memory = TieredMemory(single_tier_config(8 * PAGE), space)
        memory.touch(a)
        assert memory.remote_capacity_ratio() == 0.0
        assert memory.object_tier_bytes(a) == {"local-dram": 4 * PAGE}

    def test_queries_of_unregistered_object_raise(self):
        a = obj("a", 2)
        stranger = obj("stranger", 2)
        _, memory = build(4, 4, [a])
        with pytest.raises(AllocationError, match="stranger"):
            memory.object_tier_bytes(stranger)
        with pytest.raises(AllocationError, match="stranger"):
            memory.placement_of(stranger)

    def test_placement_of_untouched_object_is_unplaced(self):
        a = obj("a", 3)
        _, memory = build(4, 4, [a])
        assert np.all(memory.placement_of(a) == UNPLACED)
        assert memory.resident_bytes(0) == memory.resident_bytes(1) == 0

    def test_describe_matches_queries(self):
        a = obj("a", 6)
        _, memory = build(4, 8, [a], reserved=PAGE)
        memory.touch(a)
        info = memory.describe()
        for tier, row in enumerate(info["tiers"]):
            assert row["resident_app_bytes"] == memory.resident_bytes(tier)
            assert row["used_bytes"] == memory.usage[tier].used_bytes
            assert row["utilization"] == memory.usage[tier].utilization
        assert info["remote_capacity_ratio"] == memory.remote_capacity_ratio() == pytest.approx(3 / 6)

    def test_reserved_bytes_validation(self):
        a = obj("a", 2)
        space = AddressSpace(page_bytes=PAGE)
        space.register(a)
        config = two_tier_config(4 * PAGE, 4 * PAGE)
        with pytest.raises(AllocationError):
            TieredMemory(config, space, reserved_local_bytes=-1)
        with pytest.raises(AllocationError):
            TieredMemory(config, space, reserved_local_bytes=5 * PAGE)


class TestTierUsage:
    def test_free_bytes_and_utilization(self):
        usage = TierUsage("t", capacity_bytes=8 * PAGE, used_bytes=2 * PAGE)
        assert usage.free_bytes == 6 * PAGE
        assert usage.utilization == pytest.approx(0.25)

    def test_zero_capacity_utilization_is_zero(self):
        assert TierUsage("t", capacity_bytes=0).utilization == 0.0


# -- property-based invariants ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
    local_pages=st.integers(min_value=1, max_value=100),
)
def test_first_touch_conserves_pages(sizes, local_pages):
    """Every touched page lands in exactly one tier and capacity is never exceeded."""
    objects = [obj(f"o{i}", pages) for i, pages in enumerate(sizes)]
    total_pages = sum(sizes)
    space = AddressSpace(page_bytes=PAGE, line_bytes=64)
    space.register_all(objects)
    config = two_tier_config(local_pages * PAGE, (total_pages + 1) * PAGE)
    memory = TieredMemory(config, space)
    memory.touch_in_order(objects)

    tiers = memory.page_tiers()
    assert len(tiers) == total_pages
    assert np.all(tiers >= 0)  # everything placed
    placed_local = int((tiers == 0).sum())
    placed_remote = int((tiers == 1).sum())
    assert placed_local + placed_remote == total_pages
    assert placed_local * PAGE <= config.tiers[0].capacity_bytes
    assert memory.usage[0].used_bytes == placed_local * PAGE
    assert memory.usage[1].used_bytes == placed_remote * PAGE
    # Local tier is filled greedily: remote only used once local is full.
    if placed_remote > 0:
        assert config.tiers[0].capacity_bytes - placed_local * PAGE < PAGE
