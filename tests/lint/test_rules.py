"""Per-rule positive and negative fixtures for simlint."""

from __future__ import annotations

import json

import pytest

from repro.lint import SimlintConfig, all_rules, lint_source, resolve_rules
from repro.lint.report import render_json, render_text
from repro.lint.rules.unit001 import unit_of


def rule_ids(source: str, **config_kwargs) -> list[str]:
    config = SimlintConfig(**config_kwargs) if config_kwargs else None
    return [f.rule_id for f in lint_source(source, "fixture.py", config)]


class TestHW001:
    def test_literal_dma_max_flagged(self):
        assert rule_ids("CHUNK = 2048\n") == ["HW001"]

    def test_folded_expression_flagged(self):
        assert rule_ids("CAP = 64 * 1024\n") == ["HW001"]

    def test_wram_capacity_float_form_flagged(self):
        assert rule_ids("FREQ = 350e6\n") == ["HW001"]

    def test_named_import_is_clean(self):
        source = (
            "from repro.hardware.mram import MAX_DMA_BYTES\n"
            "CHUNK = MAX_DMA_BYTES\n"
        )
        assert rule_ids(source) == []

    def test_unrelated_number_is_clean(self):
        assert rule_ids("N = 2047\nM = 4096\n") == []

    def test_definition_site_exempt(self):
        config = SimlintConfig()
        findings = lint_source(
            "MAX_DMA_BYTES = 2048\n", "src/repro/hardware/mram.py", config
        )
        assert findings == []

    def test_contextual_tasklet_default_flagged(self):
        assert rule_ids("def f(n_tasklets: int = 11):\n    pass\n") == ["HW001"]

    def test_contextual_keyword_argument_flagged(self):
        assert rule_ids("configure(max_tasklets=24)\n") == ["HW001"]

    def test_contextual_class_field_flagged(self):
        source = "class C:\n    pipeline_stages: int = 14\n"
        assert rule_ids(source) == ["HW001"]

    def test_small_constant_without_context_is_clean(self):
        assert rule_ids("hours = 24\nk = 11\nstages = 3\n") == []

    def test_suppression_comment(self):
        assert rule_ids("CHUNK = 2048  # simlint: ignore[HW001]\n") == []

    def test_bare_suppression_covers_all_rules(self):
        assert rule_ids("CHUNK = 2048  # simlint: ignore\n") == []

    def test_skip_file_marker(self):
        assert rule_ids("# simlint: skip-file\nCHUNK = 2048\n") == []


class TestDMA001:
    def test_literal_chunk_flagged(self):
        source = "def f(dpu):\n    dpu.charge_mram_read(100, 4096)\n"
        assert rule_ids(source) == ["DMA001"]

    def test_keyword_chunk_flagged(self):
        source = (
            "def f(m):\n"
            "    m.bulk_transfer_cycles(100, chunk_bytes=16)\n"
        )
        assert rule_ids(source) == ["DMA001"]

    def test_illegal_size_mentioned_in_message(self):
        source = "def f(dpu):\n    dpu.charge_mram_write(64, 100)\n"
        findings = lint_source(source, "fixture.py")
        assert len(findings) == 1
        assert "not even a legal DMA size" in findings[0].message

    def test_derived_chunk_is_clean(self):
        source = (
            "def f(dpu, payload):\n"
            "    chunk = round_up_dma(payload)\n"
            "    dpu.charge_mram_read(100, chunk)\n"
        )
        assert rule_ids(source) == []

    def test_unrelated_call_is_clean(self):
        assert rule_ids("def f(x):\n    x.resize(100, 4096)\n") == []


class TestCOST001:
    def test_unpaired_charge_flagged(self):
        source = "def f(dpu):\n    dpu.charge_instructions(10)\n"
        assert rule_ids(source) == ["COST001"]

    def test_paired_charge_is_clean(self):
        source = (
            "def f(dpu):\n"
            "    dpu.charge_instructions(10)\n"
            "    t = dpu.pipeline.compute_cycles(10, 11)\n"
        )
        assert rule_ids(source) == []

    def test_elapsed_cycles_discharges(self):
        source = (
            "def f(dpu):\n"
            "    dpu.charge_instructions(10)\n"
            "    return dpu.elapsed_cycles()\n"
        )
        assert rule_ids(source) == []

    def test_nested_function_has_own_obligation(self):
        source = (
            "def outer(dpu):\n"
            "    t = dpu.pipeline.compute_cycles(1, 1)\n"
            "    def inner():\n"
            "        dpu.charge_instructions(10)\n"
            "    return inner\n"
        )
        assert rule_ids(source) == ["COST001"]


class TestUNIT001:
    def test_bytes_plus_cycles_flagged(self):
        source = "def f(total_bytes, setup_cycles):\n    return total_bytes + setup_cycles\n"
        assert rule_ids(source) == ["UNIT001"]

    def test_augmented_assignment_flagged(self):
        source = (
            "def f(total_cycles, extra_bytes):\n"
            "    total_cycles += extra_bytes\n"
        )
        assert rule_ids(source) == ["UNIT001"]

    def test_comparison_flagged(self):
        source = "def f(size_bytes, budget_cycles):\n    return size_bytes > budget_cycles\n"
        assert rule_ids(source) == ["UNIT001"]

    def test_same_unit_is_clean(self):
        source = "def f(a_bytes, b_bytes):\n    return a_bytes + b_bytes\n"
        assert rule_ids(source) == []

    def test_multiplication_is_a_conversion(self):
        source = "def f(n_bytes, cycles_factor):\n    return n_bytes * cycles_factor\n"
        assert rule_ids(source) == []

    def test_rate_suffixes_differ_from_base_unit(self):
        source = (
            "def f(bandwidth_bytes_per_s, total_bytes):\n"
            "    return bandwidth_bytes_per_s - total_bytes\n"
        )
        assert rule_ids(source) == ["UNIT001"]

    def test_unit_of_parsing(self):
        assert unit_of("setup_cycles") == "cycles"
        assert unit_of("bandwidth_bytes_per_s") == "bytes_per_s"
        assert unit_of("transfer_in_s") == "s"
        assert unit_of("offset") is None
        assert unit_of("cycles_per_tasklet") is None
        assert unit_of("s") is None  # a bare unit name carries no signal


class TestWRAM001:
    def test_overflowing_layout_flagged(self):
        source = 'X_WRAM_LAYOUT = (("p", (("a", 40000), ("b", 40000))),)\n'
        assert rule_ids(source) == ["WRAM001"]

    def test_fitting_layout_is_clean(self):
        source = 'X_WRAM_LAYOUT = (("p", (("a", 30000), ("b", 30000))),)\n'
        assert rule_ids(source) == []

    def test_sizes_fold_through_module_constants(self):
        source = (
            "ENTRY = 16\n"
            "COUNT = 4097\n"
            'X_WRAM_LAYOUT = (("p", (("big", ENTRY * COUNT),)),)\n'
        )
        assert rule_ids(source) == ["WRAM001"]  # 65552 B > 64 KiB capacity

    def test_exact_capacity_layout_is_clean(self):
        source = (
            "ENTRY = 16\n"
            "COUNT = 4096\n"
            'X_WRAM_LAYOUT = (("p", (("big", ENTRY * COUNT),)),)\n'
        )
        assert rule_ids(source) == []

    def test_explicit_offsets_overlap_flagged(self):
        source = (
            "X_WRAM_LAYOUT = ("
            '("p", (("a", 64, 0), ("b", 64, 32))),'
            ")\n"
        )
        findings = lint_source(source, "fixture.py")
        assert [f.rule_id for f in findings] == ["WRAM001"]
        assert "overlap" in findings[0].message

    def test_adjacent_explicit_offsets_are_clean(self):
        source = (
            "X_WRAM_LAYOUT = ("
            '("p", (("a", 64, 0), ("b", 64, 64))),'
            ")\n"
        )
        assert rule_ids(source) == []

    def test_region_changing_size_across_phases_flagged(self):
        source = (
            "X_WRAM_LAYOUT = ("
            '("p1", (("lut", 4096),)),'
            '("p2", (("lut", 8192),)),'
            ")\n"
        )
        findings = lint_source(source, "fixture.py")
        assert [f.rule_id for f in findings] == ["WRAM001"]
        assert "changes size" in findings[0].message

    def test_unfoldable_layout_flagged(self):
        source = 'X_WRAM_LAYOUT = (("p", (("a", mystery()),)),)\n'
        findings = lint_source(source, "fixture.py")
        assert [f.rule_id for f in findings] == ["WRAM001"]
        assert "not statically evaluable" in findings[0].message

    def test_alloc_sequence_overflow_flagged(self):
        source = (
            "def plan(wram):\n"
            "    wram.alloc('a', 50000)\n"
            "    wram.alloc('b', 50000)\n"
        )
        assert rule_ids(source) == ["WRAM001"]

    def test_alloc_sequence_with_reuse_is_clean(self):
        source = (
            "def plan(wram):\n"
            "    wram.alloc('codebook', 50000)\n"
            "    wram.free('codebook')\n"
            "    wram.alloc('buffers', 50000)\n"
        )
        assert rule_ids(source) == []

    def test_double_alloc_flagged(self):
        source = (
            "def plan(allocator):\n"
            "    allocator.alloc('a', 128)\n"
            "    allocator.alloc('a', 128)\n"
        )
        assert rule_ids(source) == ["WRAM001"]

    def test_dynamic_sizes_are_left_to_runtime(self):
        source = (
            "def plan(wram, plan_obj):\n"
            "    wram.alloc('a', plan_obj.nbytes)\n"
            "    wram.alloc('b', 90000)\n"
        )
        assert rule_ids(source) == []

    def test_control_flow_defers_to_runtime(self):
        source = (
            "def plan(wram, cond):\n"
            "    if cond:\n"
            "        wram.alloc('a', 90000)\n"
        )
        assert rule_ids(source) == []

    def test_capacity_override(self):
        source = "def plan(wram):\n    wram.alloc('a', 1024)\n"
        assert rule_ids(source, wram_capacity=512) == ["WRAM001"]
        assert rule_ids(source, wram_capacity=2048) == []


class TestTIME001:
    ENGINE_PATH = "src/repro/core/engine.py"

    def ids_at(self, source: str, path: str) -> list[str]:
        return [f.rule_id for f in lint_source(source, path)]

    def test_assignment_in_engine_flagged(self):
        source = "def f(timing, host):\n    timing.host_filter_s = host.cost()\n"
        assert self.ids_at(source, self.ENGINE_PATH) == ["TIME001"]

    def test_augmented_sum_in_engine_flagged(self):
        source = "def f(timing, extra):\n    timing.transfer_in_s += extra\n"
        assert self.ids_at(source, self.ENGINE_PATH) == ["TIME001"]

    def test_baseline_module_in_scope(self):
        source = "def f(t):\n    t.total_s = 1.0\n"
        assert self.ids_at(source, "src/repro/baselines/pim_naive.py") == [
            "TIME001"
        ]

    def test_span_recording_is_clean(self):
        source = (
            "def f(schedule, host, nq):\n"
            "    schedule.record('host_cpu', 'cluster_filter', host.cost(nq))\n"
        )
        assert self.ids_at(source, self.ENGINE_PATH) == []

    def test_local_variable_is_clean(self):
        source = "def f(host):\n    filter_s = host.cost()\n    return filter_s\n"
        assert self.ids_at(source, self.ENGINE_PATH) == []

    def test_out_of_scope_module_is_clean(self):
        source = "def f(stats, seconds):\n    stats.seconds_s = seconds\n"
        assert self.ids_at(source, "src/repro/hardware/rank.py") == []

    def test_suppression_comment(self):
        source = (
            "def f(t):\n"
            "    t.total_s = 1.0  # simlint: ignore[TIME001]\n"
        )
        assert self.ids_at(source, self.ENGINE_PATH) == []


class TestOBS001:
    def test_print_flagged(self):
        assert rule_ids('print("hello")\n') == ["OBS001"]

    def test_print_inside_function_flagged(self):
        source = "def f(x):\n    print(x)\n"
        assert rule_ids(source) == ["OBS001"]

    def test_logger_call_is_clean(self):
        source = (
            "from repro.telemetry.log import get_logger\n"
            "get_logger().info('event', n=1)\n"
        )
        assert rule_ids(source) == []

    def test_cli_module_exempt(self):
        findings = lint_source('print("result")\n', "src/repro/cli.py", None)
        assert findings == []

    def test_main_shim_exempt(self):
        findings = lint_source(
            'print("usage")\n', "src/repro/lint/__main__.py", None
        )
        assert findings == []

    def test_non_cli_path_not_exempt(self):
        findings = lint_source('print("x")\n', "src/repro/core/engine.py", None)
        assert [f.rule_id for f in findings] == ["OBS001"]

    def test_method_named_print_is_clean(self):
        # Only the builtin matters; attribute calls are fine.
        assert rule_ids("device.print(1)\n") == []

    def test_suppression_comment(self):
        assert rule_ids('print("x")  # simlint: ignore[OBS001]\n') == []


class TestEngineAndConfig:
    def test_select_limits_rules(self):
        source = (
            "CHUNK = 2048\n"
            "def f(dpu):\n    dpu.charge_instructions(1)\n"
        )
        config = SimlintConfig(select=["COST001"])
        assert [f.rule_id for f in lint_source(source, "x.py", config)] == [
            "COST001"
        ]

    def test_ignore_drops_rules(self):
        config = SimlintConfig(ignore=["HW001"])
        assert lint_source("CHUNK = 2048\n", "x.py", config) == []

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            resolve_rules(["NOPE999"], None)

class TestFLT001:
    CORE_PATH = "src/repro/core/engine.py"

    def ids_at(self, source: str, path: str) -> list[str]:
        return [f.rule_id for f in lint_source(source, path)]

    def test_bare_except_flagged(self):
        source = "try:\n    f()\nexcept:\n    pass\n"
        assert self.ids_at(source, self.CORE_PATH) == ["FLT001"]

    def test_broad_exception_flagged(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert self.ids_at(source, self.CORE_PATH) == ["FLT001"]

    def test_base_exception_flagged(self):
        source = "try:\n    f()\nexcept BaseException:\n    pass\n"
        assert self.ids_at(source, self.CORE_PATH) == ["FLT001"]

    def test_broad_in_tuple_flagged(self):
        source = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        assert self.ids_at(source, self.CORE_PATH) == ["FLT001"]

    def test_hardware_in_scope(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert self.ids_at(source, "src/repro/hardware/rank.py") == ["FLT001"]

    def test_typed_handler_is_clean(self):
        source = (
            "from repro.errors import DpuFailedError\n"
            "try:\n    f()\nexcept DpuFailedError:\n    pass\n"
        )
        assert self.ids_at(source, self.CORE_PATH) == []

    def test_tuple_of_typed_handlers_is_clean(self):
        source = "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n"
        assert self.ids_at(source, self.CORE_PATH) == []

    def test_out_of_scope_module_is_clean(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert self.ids_at(source, "src/repro/cli.py") == []
        assert self.ids_at(source, "tests/core/test_engine.py") == []

    def test_suppression_comment(self):
        source = (
            "try:\n    f()\n"
            "except Exception:  # simlint: ignore[FLT001]\n    pass\n"
        )
        assert self.ids_at(source, self.CORE_PATH) == []


class TestDET001:
    SIM_PATH = "src/repro/sim/schedule.py"

    def ids_at(self, source: str, path: str) -> list[str]:
        return [f.rule_id for f in lint_source(source, path)]

    def test_wall_clock_read_flagged(self):
        source = "import time\nt = time.time()\n"
        assert self.ids_at(source, self.SIM_PATH) == ["DET001"]

    def test_perf_counter_flagged(self):
        source = "import time\nt = time.perf_counter()\n"
        assert self.ids_at(source, self.SIM_PATH) == ["DET001"]

    def test_unseeded_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert self.ids_at(source, self.SIM_PATH) == ["DET001"]

    def test_seeded_default_rng_is_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert self.ids_at(source, self.SIM_PATH) == []

    def test_seed_keyword_is_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(seed=0)\n"
        assert self.ids_at(source, self.SIM_PATH) == []

    def test_legacy_numpy_global_rng_flagged_even_seeded(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "x = np.random.rand(4)\n"
        )
        assert self.ids_at(source, self.SIM_PATH) == ["DET001", "DET001"]

    def test_stdlib_random_flagged(self):
        source = "import random\nx = random.random()\n"
        assert self.ids_at(source, self.SIM_PATH) == ["DET001"]

    def test_stdlib_random_instance_is_clean(self):
        source = "import random\nrng = random.Random(7)\n"
        assert self.ids_at(source, self.SIM_PATH) == []

    def test_datetime_now_flagged(self):
        source = "from datetime import datetime\nd = datetime.now()\n"
        assert self.ids_at(source, self.SIM_PATH) == ["DET001"]

    def test_perf_module_is_out_of_scope(self):
        source = "import time\nt = time.perf_counter()\n"
        assert self.ids_at(source, "src/repro/perf.py") == []

    def test_cli_is_out_of_scope(self):
        source = "import time\nt = time.time()\n"
        assert self.ids_at(source, "src/repro/cli.py") == []

    def test_scope_is_configurable(self):
        config = SimlintConfig(det_scoped_paths=("mylib/",))
        source = "import time\nt = time.time()\n"
        findings = lint_source(source, "mylib/clockwork.py", config)
        assert [f.rule_id for f in findings] == ["DET001"]

    def test_suppression_comment(self):
        source = (
            "import time\n"
            "t = time.time()  # simlint: ignore[DET001]\n"
        )
        assert self.ids_at(source, self.SIM_PATH) == []


class TestDET002:
    FAULTS_PATH = "src/repro/faults.py"

    def ids_at(self, source: str, path: str) -> list[str]:
        return [f.rule_id for f in lint_source(source, path)]

    def test_iterating_set_literal_flagged(self):
        source = "for u in {1, 2, 3}:\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == ["DET002"]

    def test_iterating_set_call_flagged(self):
        source = "for u in set(units):\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == ["DET002"]

    def test_sorted_wrapper_is_clean(self):
        source = "for u in sorted({1, 2, 3}):\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == []

    def test_known_set_name_flagged(self):
        source = "for u in dead_units:\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == ["DET002"]

    def test_known_set_attribute_flagged(self):
        source = "rows = [u for u in state.exclude_dpus]\n"
        assert self.ids_at(source, self.FAULTS_PATH) == ["DET002"]

    def test_set_union_expression_flagged(self):
        source = "for u in alive | dead_units:\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == ["DET002"]

    def test_plain_list_iteration_is_clean(self):
        source = "for u in units:\n    pass\n"
        assert self.ids_at(source, self.FAULTS_PATH) == []

    def test_set_names_are_configurable(self):
        config = SimlintConfig(det_set_names=("shard_ids",))
        source = "for s in shard_ids:\n    pass\nfor u in dead_units:\n    pass\n"
        findings = lint_source(source, self.FAULTS_PATH, config)
        assert [f.line for f in findings] == [1]

    def test_out_of_scope_path_is_clean(self):
        source = "for u in dead_units:\n    pass\n"
        assert self.ids_at(source, "src/repro/analysis/sweep.py") == []


class TestSCHED001:
    ENGINE_PATH = "src/repro/core/engine.py"

    def ids_at(self, source: str, path: str) -> list[str]:
        return [f.rule_id for f in lint_source(source, path)]

    def test_hand_constructed_span_flagged(self):
        source = (
            "from repro.sim.span import Span\n"
            "s = Span('host_cpu', 'x', 0.0, 1.0)\n"
        )
        assert self.ids_at(source, self.ENGINE_PATH) == ["SCHED001"]

    def test_qualified_span_constructor_flagged(self):
        source = "import repro.sim.span as span\ns = span.Span('a', 'b', 0, 1)\n"
        assert self.ids_at(source, self.ENGINE_PATH) == ["SCHED001"]

    def test_spans_list_append_flagged(self):
        source = "tl.spans.append(s)\n"
        assert self.ids_at(source, self.ENGINE_PATH) == ["SCHED001"]

    def test_spans_list_extend_flagged(self):
        source = "schedule.timeline('pim_bus').spans.extend(extra)\n"
        assert self.ids_at(source, self.ENGINE_PATH) == ["SCHED001"]

    def test_record_api_is_clean(self):
        source = (
            "schedule.record('pim_bus', 'transfer_in', 0.5)\n"
            "schedule.record_at('host_cpu', 'aggregate', 1.0, 0.1)\n"
        )
        assert self.ids_at(source, self.ENGINE_PATH) == []

    def test_repro_sim_is_the_allowed_site(self):
        source = (
            "from repro.sim.span import Span\n"
            "s = Span('host_cpu', 'x', 0.0, 1.0)\n"
            "tl.spans.append(s)\n"
        )
        assert self.ids_at(source, "src/repro/sim/overlap.py") == []

    def test_allowed_paths_are_configurable(self):
        config = SimlintConfig(sched_allowed_paths=("repro/core/",))
        source = "s = Span('host_cpu', 'x', 0.0, 1.0)\n"
        findings = lint_source(source, self.ENGINE_PATH, config)
        assert findings == []

    def test_other_append_calls_are_clean(self):
        source = "rows.append(x)\nself.schedules.append(sched)\n"
        assert self.ids_at(source, self.ENGINE_PATH) == []

    def test_column_writes_flagged(self):
        source = (
            "schedule._span_t0.append(1.0)\n"
            "work._item_dur[0] = 2.0\n"
            "schedule._span_lane = lanes\n"
            "work._item_deps += extra\n"
            "del schedule._span_src[0]\n"
        )
        assert self.ids_at(source, "src/repro/core/service.py") == ["SCHED001"] * 5

    def test_column_reads_are_clean(self):
        source = (
            "cols = schedule.columns()\n"
            "n = len(work._item_res)\n"
            "t0 = schedule._span_t0[0]\n"
        )
        assert self.ids_at(source, self.ENGINE_PATH) == []

    def test_columns_writable_inside_repro_sim(self):
        source = "schedule._span_t0.append(1.0)\nwork._item_dur[0] = 2.0\n"
        assert self.ids_at(source, "src/repro/sim/events.py") == []


class TestInfrastructure:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def f(:\n", "broken.py")
        assert [f.rule_id for f in findings] == ["PARSE"]

    def test_all_rules_registered(self):
        assert set(all_rules()) == {
            "HW001",
            "DMA001",
            "COST001",
            "TIME001",
            "UNIT001",
            "WRAM001",
            "OBS001",
            "FLT001",
            "DET001",
            "DET002",
            "SCHED001",
        }

    def test_text_report_shape(self):
        findings = lint_source("CHUNK = 2048\n", "x.py")
        text = render_text(findings)
        assert "x.py:1:9: HW001" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "simlint: clean"

    def test_json_report_round_trips(self):
        findings = lint_source("CHUNK = 2048\n", "x.py")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "HW001"
        assert payload["findings"][0]["line"] == 1
