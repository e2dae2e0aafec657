"""Seeded chaos regression suite: failover, degradation, recovery.

Three contracts, all deterministic:

1. **Bit-identity.**  With no fault plan (or an empty one armed), the
   engine's timings equal the committed golden fixtures bit-for-bit —
   the fault plane costs literally nothing when unused.
2. **Zero recall loss under replication.**  Killing a DPU whose every
   cluster has a live replica changes *no* search result; the pairs
   re-route and the retry/re-route work is visible on the timeline and
   in the counters.
3. **Exact graceful degradation.**  When a cluster loses every replica
   its pairs drop, per-query coverage is the exact served fraction, and
   the service recovers by re-placing around the dead set.

``golden_chaos.json`` pins the full ``repro.chaos/v1`` record the CLI
scenario emits (seed 7), so any drift in the fault model's accounting
shows up as a diff against a committed artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine, _retry_work
from repro.core.flat_engine import IVFFlatPimEngine
from repro.core.multihost import MultiHostEngine
from repro.core.scheduling import AdaptivePolicy
from repro.core.service import OnlineService
from repro.errors import ConfigError
from repro.faults import BatchFaults, FaultPlan, pick_replicated_unit
from repro.hardware.specs import PimSystemSpec
from repro.sim import PIM_BUS, STAGE_RETRY, STAGE_TRANSFER_IN, BatchWork

GOLDEN_TIMINGS = json.loads(
    (Path(__file__).parent.parent / "sim" / "golden_timings.json").read_text()
)
GOLDEN_CHAOS_PATH = Path(__file__).parent / "golden_chaos.json"


def make_config(n_dpus=16):
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=8, k=5, batch_size=40),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=n_dpus // 8, dpus_per_chip=8),
    )


def build_engine(small_dataset, trained_index, history_queries, n_dpus=16):
    engine = UpANNSEngine(make_config(n_dpus=n_dpus))
    engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return engine


@pytest.fixture(scope="module")
def reference(small_dataset, trained_index, history_queries, small_queries):
    """Fault-free run: engine + one served batch, never mutated."""
    engine = build_engine(small_dataset, trained_index, history_queries)
    return engine, engine.search_batch(small_queries)


TIMING_FIELDS = (
    "host_filter_s",
    "host_schedule_s",
    "transfer_in_s",
    "dpu_makespan_s",
    "transfer_out_s",
    "host_aggregate_s",
    "total_s",
)


class TestBitIdentity:
    def test_fault_free_matches_golden(self, reference):
        """The no-plan path still reproduces the committed goldens."""
        _, result = reference
        expected = GOLDEN_TIMINGS["upanns"]["timing"]
        for name in TIMING_FIELDS:
            assert getattr(result.timing, name).hex() == expected[name], name

    def test_empty_plan_is_observationally_identical(
        self, reference, small_dataset, trained_index, history_queries, small_queries
    ):
        """Arming an empty plan changes nothing, bit-for-bit."""
        _, ref = reference
        engine = build_engine(small_dataset, trained_index, history_queries)
        engine.inject(FaultPlan())
        result = engine.search_batch(small_queries)
        assert np.array_equal(result.ids, ref.ids)
        assert np.array_equal(result.distances, ref.distances)
        for name in TIMING_FIELDS:
            assert getattr(result.timing, name) == getattr(ref.timing, name), name
        assert result.timing.retry_s == 0.0
        deg = result.degraded
        assert deg is not None and not deg.is_degraded
        assert deg.coverage_floor == 1.0

    def test_no_plan_means_no_degraded_flag(self, reference):
        _, result = reference
        assert result.degraded is None


class TestReplicaFailover:
    def test_dpu_death_with_replica_loses_nothing(
        self, reference, small_dataset, trained_index, history_queries, small_queries
    ):
        _, ref = reference
        engine = build_engine(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(engine.placement)
        assert target is not None, "tiny deployment must have a replicated DPU"
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@0"]))
        result = engine.search_batch(small_queries)
        # Functional results are exactly the fault-free ones.
        assert np.array_equal(result.ids, ref.ids)
        assert np.array_equal(result.distances, ref.distances)
        deg = result.degraded
        assert deg is not None
        assert not deg.is_degraded and deg.coverage_floor == 1.0
        assert deg.dropped_pairs == 0
        assert deg.rerouted_pairs > 0  # the work visibly moved
        assert deg.dead_units == (target,)
        # The dead DPU got no work.
        assert not result.assignment.per_dpu[target]

    def test_transient_transfer_fault_charges_retry_spans(
        self, reference, small_dataset, trained_index, history_queries, small_queries
    ):
        _, ref = reference
        engine = build_engine(small_dataset, trained_index, history_queries)
        engine.inject(FaultPlan.from_specs(["transfer:0@0"]))
        result = engine.search_batch(small_queries)
        # Functionally identical: the retry succeeded.
        assert np.array_equal(result.ids, ref.ids)
        deg = result.degraded
        assert deg is not None and deg.retries == 1
        assert result.timing.retry_s > 0.0
        # The retry is a real span on the bus lane, so the total
        # stretches by more than the backoff alone (retransmit too).
        retry_spans = [
            s
            for s in result.schedule.timeline(PIM_BUS).spans
            if s.stage == STAGE_RETRY
        ]
        assert len(retry_spans) == 1
        assert result.timing.retry_s == pytest.approx(
            sum(s.duration for s in retry_spans)
        )
        assert result.timing.total_s > ref.timing.total_s

    def test_escalated_units_charge_pre_death_retry_spans(self):
        """A unit fenced mid-batch still burned its retries first; they
        must appear on the bus lane like any transient's."""
        plan = FaultPlan(transfer_hazard=0.5, max_retries=3)
        state = plan.state(n_units=4)
        faults = BatchFaults(
            batch=0, newly_dead=(2,), transient={0: 1}, escalated={2: 3}
        )
        work = BatchWork()
        tin = work.work(PIM_BUS, STAGE_TRANSFER_IN, 0.0)
        _retry_work(work, faults, state, [8, 8, 8, 8], 1e9, after=tin)
        schedule = work.execute()
        spans = [
            s for s in schedule.timeline(PIM_BUS).spans if s.stage == STAGE_RETRY
        ]
        # 1 transient attempt + 3 pre-death attempts, each >= its backoff.
        assert len(spans) == 4
        assert all(s.duration >= state.backoff_s(1) for s in spans)

    def test_host_events_rejected_at_dpu_granularity(self):
        """`host` faults belong on the multihost coordinator; a DPU-pool
        engine must refuse them instead of silently killing DPU N."""
        plan = FaultPlan.from_specs(["host:0@0"])
        with pytest.raises(ConfigError):
            UpANNSEngine(make_config()).inject(plan)
        with pytest.raises(ConfigError):
            IVFFlatPimEngine(make_config()).inject(plan)


class TestGracefulDegradation:
    def test_unreplicated_loss_degrades_with_exact_coverage(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        engine = build_engine(small_dataset, trained_index, history_queries)
        # Kill every holder of cluster 0 so its pairs must drop.
        victims = sorted(set(engine.placement.replicas[0]))
        assert len(victims) < engine.pim.n_dpus
        engine.inject(
            FaultPlan.from_specs([f"dpu:{d}@0" for d in victims])
        )
        result = engine.search_batch(small_queries)
        deg = result.degraded
        assert deg is not None
        dropped = result.assignment.dropped
        if not dropped:
            pytest.skip("no query probed cluster 0 under this seed")
        assert deg.is_degraded
        assert deg.dropped_pairs == len(dropped)
        # Coverage is the exact served fraction for each query:
        # (probed - dropped) / probed, reconstructed from the schedule.
        nq = small_queries.shape[0]
        scheduled = np.zeros(nq)
        for pairs in result.assignment.per_dpu:
            for qi, _ in pairs:
                scheduled[qi] += 1
        lost = np.zeros(nq)
        for qi, _ in dropped:
            lost[qi] += 1
        denom = scheduled + lost
        expected = np.where(denom > 0, (denom - lost) / np.maximum(denom, 1), 1.0)
        assert np.allclose(deg.coverage, expected)
        assert deg.coverage_floor < 1.0


class TestServiceRecovery:
    def test_recovery_fires_once_and_restores_results(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        ref_engine = build_engine(small_dataset, trained_index, history_queries)
        ref_ids = ref_engine.search_batch(small_queries).ids

        engine = build_engine(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(engine.placement)
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@1"]))
        service = OnlineService(engine)
        reports = [service.submit(small_queries) for _ in range(4)]

        # Batch 0 is pre-fault; batch 1 observes the death and recovers.
        assert reports[0].recovery_s == 0.0
        assert reports[1].recovery_s > 0.0
        assert all(r.recovery_s == 0.0 for r in reports[2:])
        assert service.recovery_count == 1
        # Post-recovery placement excludes the corpse entirely.
        assert all(
            target not in dpus for dpus in engine.placement.replicas
        )
        # Replication meant no batch lost results.
        for report in reports:
            assert np.array_equal(report.result.ids, ref_ids)
            assert not report.degraded
        assert service.summary()["recoveries"] == 1.0

    def test_drift_refresh_does_not_resurrect_dead_dpus(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        """A drift-triggered refresh after recovery must keep excluding
        the dead set — otherwise clusters land back on the corpse, the
        unchanged dead set never re-triggers recovery, and coverage
        silently degrades forever."""
        ref_engine = build_engine(small_dataset, trained_index, history_queries)
        ref_ids = ref_engine.search_batch(small_queries).ids

        engine = build_engine(small_dataset, trained_index, history_queries)
        target = pick_replicated_unit(engine.placement)
        engine.inject(FaultPlan.from_specs([f"dpu:{target}@1"]))
        # replicate_threshold=0 makes every eligible batch refresh; the
        # rate limit of 2 pins the only drift refresh to batch 3, after
        # the batch-1 recovery reset the counter.
        service = OnlineService(
            engine,
            policy=AdaptivePolicy(replicate_threshold=0.0, relocate_threshold=0.9),
            min_batches_between_refreshes=2,
        )
        reports = [service.submit(small_queries) for _ in range(5)]

        assert service.recovery_count == 1
        assert reports[1].recovery_s > 0.0
        assert service.refresh_count >= 1  # a drift refresh ran post-recovery
        # The corpse stays out of the drift-refreshed placement...
        assert all(target not in dpus for dpus in engine.placement.replicas)
        # ...so no batch ever degrades and every result stays exact.
        for report in reports:
            assert not report.degraded
            assert report.coverage_floor == 1.0
            assert np.array_equal(report.result.ids, ref_ids)


class TestMultiHostFailover:
    def test_host_loss_and_reshard(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        def fresh():
            eng = MultiHostEngine(
                host_configs=[make_config(), make_config(), make_config()]
            )
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            return eng

        ref_ids = fresh().search_batch(small_queries).ids

        engine = fresh()
        engine.inject(FaultPlan.from_specs(["host:1@0"]))
        result = engine.search_batch(small_queries)
        deg = result.degraded
        assert deg is not None
        assert engine.hosts[1] is None or 1 in engine.fault_state.dead
        # Re-shard around the corpse: full coverage comes back.
        recovery_s = engine.reshard()
        assert recovery_s > 0.0
        assert engine.hosts[1] is None
        healed = engine.search_batch(small_queries)
        assert healed.degraded is not None
        assert not healed.degraded.is_degraded
        assert np.array_equal(healed.ids, ref_ids)

    def test_non_host_events_rejected(
        self, small_dataset, trained_index, history_queries
    ):
        engine = MultiHostEngine(host_configs=[make_config(), make_config()])
        engine.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        with pytest.raises(ConfigError):
            engine.inject(FaultPlan.from_specs(["dpu:0@0"]))


class TestGoldenChaosRecord:
    def test_cli_scenario_matches_committed_record(self, tmp_path, capsys):
        """`repro.cli chaos --seed 7` reproduces the pinned record.

        The whole record — retries, coverage, recovery cost — must match,
        and the run itself passes the in-CLI stream sanitize gate with a
        mid-flight DPU death.
        """
        from repro.cli import main

        out = tmp_path / "chaos.json"
        assert main(["-q", "chaos", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        golden = json.loads(GOLDEN_CHAOS_PATH.read_text())
        assert record == golden

    def test_event_core_matches_committed_record_modulo_engine(
        self, tmp_path, capsys
    ):
        """The event core is the only executor, so nothing names it.

        The CLI no longer takes a core selector, neither the run record
        nor the committed one carries a ``sim_engine`` tag, and every
        accounting section — retries, coverage, recovery cost — matches
        the committed record.
        """
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["-q", "chaos", "--seed", "7", "--sim-engine", "event"])
        capsys.readouterr()

        out = tmp_path / "chaos_event.json"
        assert main(["-q", "chaos", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        golden = json.loads(GOLDEN_CHAOS_PATH.read_text())
        assert "sim_engine" not in record["config"]
        assert "sim_engine" not in golden["config"]
        for section in ("faults", "degradation", "recovery", "batches"):
            assert record[section] == golden[section], section

    def test_committed_record_validates(self):
        from repro.telemetry.schema import validate_chaos_record

        golden = json.loads(GOLDEN_CHAOS_PATH.read_text())
        assert validate_chaos_record(golden) == []
