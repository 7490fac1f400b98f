"""Unit tests for the bench-document comparator behind ``--compare``.

Two synthetic documents (a baseline and a current run) exercise every
comparator outcome: clean pass, regression, config-mismatch skip, one-sided
skips, unusable statistics and the threshold edge — plus the versioned
schema split (v1/v2/v3) of :func:`validate_bench` the comparator relies on.
"""

from __future__ import annotations

import pytest

from repro.telemetry.benchjson import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    DEFAULT_REGRESSION_THRESHOLD,
    REQUIRED_GROUPS,
    REQUIRED_GROUPS_V1,
    REQUIRED_GROUPS_V2,
    REQUIRED_GROUPS_V3,
    SUPPORTED_VERSIONS,
    compare_bench,
    validate_bench,
)


def bench_row(name, min_s, config=None, **overrides):
    row = {
        "name": name,
        "group": name.split(".")[0],
        "config": config if config is not None else {"n": 4},
        "repeats": 5,
        "mean_s": min_s * 1.1 if min_s is not None else None,
        "min_s": min_s,
        "throughput_per_s": 1.0 / min_s if min_s else 0.0,
    }
    row.update(overrides)
    return row


def document(benchmarks, version=BENCH_SCHEMA_VERSION):
    return {
        "schema": BENCH_SCHEMA,
        "version": version,
        "created_unix": 1_754_524_800.0,
        "quick": True,
        "python": "3.11.7",
        "benchmarks": benchmarks,
        "telemetry_overhead": {
            "noop_span_ns": 100.0,
            "noop_counter_ns": 50.0,
            "events": 1000,
            "hook_calls": 1000,
            "disabled_wall_s": 1.0,
            "enabled_wall_s": 1.1,
            "enabled_overhead_pct": 10.0,
            "disabled_overhead_pct": 0.1,
        },
    }


BASELINE = document(
    [
        bench_row("fabric_solver.small", 0.010),
        bench_row("solver_vectorized.vectorized", 0.020),
        bench_row("cluster_fabric.step", 0.100),
        bench_row("rack_cosim_step.quick", 0.050, config={"steps": 200}),
        bench_row("cluster_events.replay", 0.030),
    ]
)


class TestCompareBench:
    def test_identical_documents_have_no_regressions(self):
        regressions, skipped = compare_bench(BASELINE, BASELINE)
        assert regressions == []
        assert skipped == []

    def test_regression_detected_above_threshold(self):
        current = document(
            [
                bench_row("fabric_solver.small", 0.010 * 1.6),  # 1.6x > 1.5x gate
                bench_row("solver_vectorized.vectorized", 0.020),
                bench_row("cluster_fabric.step", 0.100),
                bench_row("rack_cosim_step.quick", 0.050, config={"steps": 200}),
                bench_row("cluster_events.replay", 0.030),
            ]
        )
        regressions, skipped = compare_bench(BASELINE, current)
        assert len(regressions) == 1
        assert "fabric_solver.small" in regressions[0]
        assert "1.60x" in regressions[0]
        assert skipped == []

    def test_slowdown_at_threshold_is_not_a_regression(self):
        current = document([bench_row("fabric_solver.small", 0.010 * 1.5)])
        regressions, _ = compare_bench(BASELINE, current)
        assert regressions == []

    def test_speedup_is_never_a_regression(self):
        current = document([bench_row("fabric_solver.small", 0.001)])
        regressions, _ = compare_bench(BASELINE, current)
        assert regressions == []

    def test_config_mismatch_is_skipped_not_compared(self):
        # Same name but a different shape: a 10x slowdown must NOT count,
        # the pair is incommensurate and is reported as skipped instead.
        current = document(
            [bench_row("rack_cosim_step.quick", 0.500, config={"steps": 40})]
        )
        regressions, skipped = compare_bench(BASELINE, current)
        assert regressions == []
        assert any(
            "rack_cosim_step.quick" in s and "config differs" in s for s in skipped
        )

    def test_one_sided_benchmarks_are_reported_skipped(self):
        # A whole group the baseline predates collapses to one group-level
        # skip (the post-schema-bump case) instead of a per-row message.
        current = document([bench_row("brand_new.bench", 0.010)])
        regressions, skipped = compare_bench(BASELINE, current)
        assert regressions == []
        assert any("group 'brand_new': not in baseline" in s for s in skipped)
        assert not any("brand_new.bench" in s for s in skipped)
        # Every baseline row is absent from the current run.
        assert sum("not in current run" in s for s in skipped) == 5

    def test_new_name_in_known_group_still_skipped_by_name(self):
        current = document(
            [bench_row("fabric_solver.small", 0.010), bench_row("fabric_solver.huge", 0.010)]
        )
        regressions, skipped = compare_bench(BASELINE, current)
        assert regressions == []
        assert any("fabric_solver.huge: not in baseline" in s for s in skipped)

    def test_baseline_without_new_group_never_false_fails(self):
        # The exact post-bump CI situation: a fresh v5 run with trace_ingest
        # compared against a committed v4 baseline.  Must skip, not regress
        # and not KeyError.
        baseline = document(self._v4_rows(), version=4)
        current = document(
            self._v4_rows() + [bench_row("trace_ingest.synthetic", 0.010)]
        )
        assert validate_bench(baseline) == []
        regressions, skipped = compare_bench(baseline, current)
        assert regressions == []
        assert any("group 'trace_ingest': not in baseline" in s for s in skipped)

    @staticmethod
    def _v4_rows():
        from repro.telemetry.benchjson import REQUIRED_GROUPS_V4

        return [bench_row(f"{g}.case", 0.010) for g in REQUIRED_GROUPS_V4]

    def test_unusable_min_s_is_skipped(self):
        current = document([bench_row("fabric_solver.small", None)])
        regressions, skipped = compare_bench(BASELINE, current)
        assert regressions == []
        assert any(
            "fabric_solver.small" in s and "unusable min_s" in s for s in skipped
        )

    def test_zero_baseline_min_s_is_skipped(self):
        baseline = document([bench_row("fabric_solver.small", 0.0)])
        current = document([bench_row("fabric_solver.small", 0.010)])
        regressions, skipped = compare_bench(baseline, current)
        assert regressions == []
        assert any("unusable min_s" in s for s in skipped)

    def test_custom_threshold_tightens_the_gate(self):
        current = document([bench_row("fabric_solver.small", 0.010 * 1.2)])
        loose, _ = compare_bench(BASELINE, current)
        tight, _ = compare_bench(BASELINE, current, threshold=0.1)
        assert loose == []
        assert len(tight) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            compare_bench(BASELINE, BASELINE, threshold=-0.1)

    def test_default_threshold_is_generous(self):
        assert DEFAULT_REGRESSION_THRESHOLD == 0.5


class TestSchemaVersions:
    def _rows(self, groups):
        return [bench_row(f"{g}.case", 0.010) for g in groups]

    def test_v4_document_requires_parallel_groups(self):
        errors = validate_bench(document(self._rows(REQUIRED_GROUPS_V3)))
        assert any("sweep_sharded" in e for e in errors)
        assert any("cluster_step_batched" in e for e in errors)
        assert validate_bench(document(self._rows(REQUIRED_GROUPS))) == []

    def test_v6_document_requires_engine_profile_group(self):
        from repro.telemetry.benchjson import REQUIRED_GROUPS_V5

        errors = validate_bench(document(self._rows(REQUIRED_GROUPS_V5)))
        assert any("engine_profile_levels" in e for e in errors)
        assert validate_bench(document(self._rows(REQUIRED_GROUPS_V5), version=5)) == []

    def test_v3_document_requires_fault_injection_group(self):
        errors = validate_bench(document(self._rows(REQUIRED_GROUPS_V2), version=3))
        assert any("fault_injection" in e for e in errors)
        assert validate_bench(document(self._rows(REQUIRED_GROUPS_V3), version=3)) == []

    def test_v2_document_stays_valid_without_fault_group(self):
        doc = document(self._rows(REQUIRED_GROUPS_V2), version=2)
        assert validate_bench(doc) == []
        errors = validate_bench(document(self._rows(REQUIRED_GROUPS_V1), version=2))
        assert any("cluster_fabric" in e for e in errors)
        assert any("solver_vectorized" in e for e in errors)

    def test_v1_document_stays_valid_without_cluster_groups(self):
        doc = document(self._rows(REQUIRED_GROUPS_V1), version=1)
        assert validate_bench(doc) == []

    def test_v5_document_requires_trace_ingest_group(self):
        from repro.telemetry.benchjson import REQUIRED_GROUPS_V4

        errors = validate_bench(document(self._rows(REQUIRED_GROUPS_V4), version=5))
        assert any("trace_ingest" in e for e in errors)
        assert validate_bench(document(self._rows(REQUIRED_GROUPS), version=5)) == []

    def test_supported_versions_track_the_group_table(self):
        # A version bump that forgets to register its group tuple must never
        # silently drop support for older committed baselines (this was a
        # real latent bug: SUPPORTED_VERSIONS was hand-maintained).
        from repro.telemetry.benchjson import REQUIRED_GROUPS_BY_VERSION

        assert SUPPORTED_VERSIONS == tuple(sorted(REQUIRED_GROUPS_BY_VERSION))
        assert BENCH_SCHEMA_VERSION in SUPPORTED_VERSIONS
        assert all(v in SUPPORTED_VERSIONS for v in range(1, BENCH_SCHEMA_VERSION + 1))

    def test_unsupported_version_rejected(self):
        doc = document(self._rows(REQUIRED_GROUPS), version=99)
        assert any("version" in e for e in validate_bench(doc))
        assert 99 not in SUPPORTED_VERSIONS
