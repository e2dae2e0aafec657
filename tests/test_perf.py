"""Perf-harness tests: record shape, equivalence guard, baseline gate.

One tiny case is actually executed (both engines, wall-clock timed);
everything else works on synthesized records so the suite stays fast.
"""

import pytest

from repro.errors import ConfigError
from repro.perf import PerfCase, compare_to_baseline, run_perf
from repro.telemetry.schema import PERF_SCHEMA, validate_perf_record

TINY = PerfCase(
    "tiny_bs8",
    8,
    dim=32,
    m=8,
    n_clusters=8,
    n_vectors=600,
    nprobe=4,
    k=5,
    chips_per_dimm=1,
)


@pytest.fixture(scope="module")
def tiny_record():
    return run_perf(cases=(TINY,), repeats=1, seed=0)


class TestRunPerf:
    def test_record_is_schema_valid(self, tiny_record):
        assert validate_perf_record(tiny_record) == []
        assert tiny_record["schema"] == PERF_SCHEMA

    def test_case_fields(self, tiny_record):
        (case,) = tiny_record["cases"]
        assert case["name"] == "tiny_bs8"
        assert case["shape"]["batch_size"] == 8
        assert case["shape"]["n_dpus"] == TINY.n_dpus
        for field in ("looped_s", "grouped_cold_s", "grouped_warm_s"):
            assert case[field] > 0.0
        assert case["speedup_warm"] > 0.0
        assert case["speedup_cold"] > 0.0

    def test_totals_are_ratios_of_sums(self, tiny_record):
        (case,) = tiny_record["cases"]
        totals = tiny_record["totals"]
        assert totals["looped_s"] == pytest.approx(case["looped_s"])
        assert totals["speedup"] == pytest.approx(
            case["looped_s"] / case["grouped_warm_s"]
        )

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigError):
            run_perf(cases=(TINY,), repeats=0)

    def test_variance_stats_and_qps_fields(self, tiny_record):
        (case,) = tiny_record["cases"]
        for block in ("looped_stats", "grouped_warm_stats"):
            stats = case[block]
            assert stats["min"] > 0.0
            assert stats["median"] >= stats["min"]
            assert stats["stdev"] >= 0.0  # 0.0 at repeats=1
        assert case["qps_warm"] > 0.0
        assert case["qps_cold"] > 0.0
        assert case["speedup_warm_median"] > 0.0

    def test_mode_reflects_actual_cases(self, tiny_record):
        """Regression: the record used to claim mode "full" for every
        run, --quick included."""
        from repro.perf import FULL_CASES, QUICK_CASES, _mode_for

        assert tiny_record["config"]["mode"] == "custom"
        assert _mode_for(QUICK_CASES) == "quick"
        assert _mode_for(FULL_CASES) == "full"
        assert _mode_for((TINY,)) == "custom"
        assert tiny_record["config"]["host_cpus"] >= 1


def record_with(name, speedup_warm):
    return {
        "cases": [
            {
                "name": name,
                "speedup_warm": speedup_warm,
                "looped_s": 1.0,
                "grouped_warm_s": 1.0 / speedup_warm,
            }
        ]
    }


class TestCompareToBaseline:
    def test_self_comparison_passes(self, tiny_record):
        assert compare_to_baseline(tiny_record, tiny_record) == []

    def test_regression_beyond_factor_fails(self):
        current = record_with("a", 2.0)
        baseline = record_with("a", 5.0)
        failures = compare_to_baseline(current, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "fell below" in failures[0]

    def test_regression_within_factor_passes(self):
        current = record_with("a", 3.0)
        baseline = record_with("a", 5.0)
        assert compare_to_baseline(current, baseline, max_regression=2.0) == []

    def test_no_common_cases_is_a_failure(self):
        failures = compare_to_baseline(record_with("a", 2.0), record_with("b", 2.0))
        assert failures == ["no case names in common with the baseline record"]

    def test_rejects_max_regression_at_or_below_one(self):
        with pytest.raises(ConfigError):
            compare_to_baseline(record_with("a", 2.0), record_with("a", 2.0), max_regression=1.0)

    def test_gates_on_median_when_both_records_have_it(self):
        current = record_with("a", 9.0)  # min-based ratio looks fine
        baseline = record_with("a", 9.0)
        current["cases"][0]["speedup_warm_median"] = 2.0  # median regressed
        baseline["cases"][0]["speedup_warm_median"] = 9.0
        failures = compare_to_baseline(current, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "speedup_warm_median" in failures[0]

    def test_min_fallback_for_pre_variance_baselines(self):
        current = record_with("a", 2.0)
        current["cases"][0]["speedup_warm_median"] = 2.0
        baseline = record_with("a", 5.0)  # old record: no median field
        failures = compare_to_baseline(current, baseline, max_regression=2.0)
        assert len(failures) == 1
        assert "speedup_warm " in failures[0]

    def test_dropped_qps_fields_fail_the_gate(self):
        baseline = record_with("a", 2.0)
        baseline["cases"][0]["qps_warm"] = 100.0
        baseline["cases"][0]["qps_cold"] = 50.0
        current = record_with("a", 2.0)
        failures = compare_to_baseline(current, baseline)
        assert len(failures) == 2
        assert all("coverage regressed" in f for f in failures)
