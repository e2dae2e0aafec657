"""The array batch plan against the list-of-tuples scheduler it replaced.

``schedule_batch`` computes Algorithm 2 as flat pair arrays; these
tests pin it to the per-pair implementation in ``list_scheduler``:
every DPU's pairs in the same order, workloads with the same bits and
dropped pairs in the same order.  The views the engines derive from the
plan — the grouped-kernel worklist and the per-DPU trace ids — are
pinned to the list-built ones the same way.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine, _unit_trace_ids
from repro.core.kernel import BatchWorklist
from repro.core.placement import Placement
from repro.core.scheduling import schedule_batch
from repro.errors import SchedulingError
from repro.faults import FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.sim import PIM_BUS, STAGE_RETRY
from repro.sim.span import dpu_resource
from repro.tracing.context import TraceContext
from tests.core.list_scheduler import (
    list_schedule_batch,
    list_unit_trace_ids,
    list_worklist,
)
from tests.core.looped_oracle import LoopedUpANNSEngine


def scenario(seed, n_dpus, n_clusters, nq, max_replicas, n_sizes, ragged, lost):
    """A random batch with deliberate ties.

    Cluster sizes come from ``n_sizes`` distinct values (zero included
    when ``n_sizes`` allows), so equal sizes and equal holder loads are
    common; replica counts run from 1 to ``max_replicas`` in shuffled
    holder order; ``lost`` clusters have no replica.  Ragged probe rows
    may be empty or repeat a cluster.
    """
    rng = np.random.default_rng(seed)
    values = rng.choice(np.arange(0, 4 * n_sizes), size=n_sizes, replace=False)
    sizes = values[rng.integers(0, n_sizes, n_clusters)].astype(np.int64)
    replicas = []
    for _ in range(n_clusters):
        count = int(rng.integers(1, min(max_replicas, n_dpus) + 1))
        replicas.append(rng.permutation(n_dpus)[:count].tolist())
    for c in rng.permutation(n_clusters)[:lost].tolist():
        replicas[c] = []
    placement = Placement(
        n_dpus=n_dpus,
        replicas=replicas,
        dpu_workload=np.zeros(n_dpus),
        dpu_vectors=np.zeros(n_dpus),
        mean_workload=0.0,
    )
    if ragged:
        probes = [
            rng.integers(0, n_clusters, int(rng.integers(0, 2 * n_clusters + 1)))
            for _ in range(nq)
        ]
    else:
        width = int(rng.integers(1, n_clusters + 1))
        probes = np.stack(
            [rng.permutation(n_clusters)[:width] for _ in range(nq)]
        )
    return probes, sizes, placement


def workload_bits(assignment):
    return [float.hex(w) for w in assignment.dpu_workload.tolist()]


SCENARIOS = dict(
    seed=st.integers(0, 2**32 - 1),
    n_dpus=st.integers(1, 12),
    n_clusters=st.integers(1, 24),
    nq=st.integers(1, 30),
    max_replicas=st.integers(2, 10),
    n_sizes=st.integers(1, 4),
    ragged=st.booleans(),
    lost=st.integers(0, 3),
)


class TestScheduleMatchesListOracle:
    @settings(max_examples=300, deadline=None)
    @given(refine=st.booleans(), **SCENARIOS)
    @example(
        refine=True, seed=1, n_dpus=1, n_clusters=5, nq=8, max_replicas=2,
        n_sizes=2, ragged=False, lost=0,
    )
    @example(
        refine=True, seed=2, n_dpus=8, n_clusters=6, nq=20, max_replicas=10,
        n_sizes=1, ragged=True, lost=2,
    )
    # Rare in random draws: a DPU that took a moved pair sheds load
    # again while that pair heads its cluster's bucket and another
    # cluster of equal size can move too.  The move order decides.
    @example(
        refine=True, seed=346, n_dpus=5, n_clusters=10, nq=7, max_replicas=4,
        n_sizes=3, ragged=False, lost=0,
    )
    @example(
        refine=True, seed=589, n_dpus=6, n_clusters=5, nq=14, max_replicas=4,
        n_sizes=2, ragged=True, lost=0,
    )
    def test_same_plan(
        self, refine, seed, n_dpus, n_clusters, nq, max_replicas, n_sizes,
        ragged, lost,
    ):
        probes, sizes, placement = scenario(
            seed, n_dpus, n_clusters, nq, max_replicas, n_sizes, ragged, lost
        )
        for on_missing in ("drop", "raise"):
            try:
                want = list_schedule_batch(
                    probes, sizes, placement, refine=refine, on_missing=on_missing
                )
            except SchedulingError as exc:
                with pytest.raises(SchedulingError, match=f"^{re.escape(str(exc))}$"):
                    schedule_batch(
                        probes, sizes, placement, refine=refine, on_missing=on_missing
                    )
                continue
            got = schedule_batch(
                probes, sizes, placement, refine=refine, on_missing=on_missing
            )
            assert got.per_dpu == want.per_dpu
            assert workload_bits(got) == workload_bits(want)
            assert got.dropped == want.dropped
            assert got.dpu_bounds.tolist() == [0, *np.cumsum(
                [len(p) for p in want.per_dpu]
            ).tolist()]

    def test_refinement_moves_pairs(self):
        """The oracle comparison above is only as strong as the moves it
        sees: on a skewed batch the refinement must actually move."""
        probes, sizes, placement = scenario(0, 8, 12, 30, 4, 3, False, 0)
        greedy = schedule_batch(probes, sizes, placement, refine=False)
        refined = schedule_batch(probes, sizes, placement)
        assert greedy.per_dpu != refined.per_dpu
        assert refined.per_dpu == list_schedule_batch(probes, sizes, placement).per_dpu


class TestPlanViews:
    @settings(max_examples=100, deadline=None)
    @given(**SCENARIOS)
    def test_worklist_and_trace_ids(
        self, seed, n_dpus, n_clusters, nq, max_replicas, n_sizes, ragged, lost
    ):
        probes, sizes, placement = scenario(
            seed, n_dpus, n_clusters, nq, max_replicas, n_sizes, ragged, lost
        )
        got = schedule_batch(probes, sizes, placement, on_missing="drop")
        per_dpu = list_schedule_batch(probes, sizes, placement, on_missing="drop").per_dpu
        want = list_worklist(per_dpu, sizes)
        worklist = BatchWorklist.from_assignment(got, sizes)
        for name in ("group_dpu", "group_query", "group_bounds", "pair_cluster"):
            assert getattr(worklist, name).tolist() == getattr(want, name).tolist(), name
        ctx = TraceContext.for_batch(nq, start=7)
        assert _unit_trace_ids(got, ctx) == list_unit_trace_ids(per_dpu, ctx)


def dpu_span_ids(result):
    """Trace ids of each DPU lane's spans, by DPU."""
    out = {}
    for d in range(result.assignment.n_dpus):
        tl = result.schedule.timelines.get(dpu_resource(d))
        if tl is not None:
            out[d] = {span.trace.trace_ids for span in tl.spans}
    return out


class TestEngineTraceIds:
    @pytest.mark.parametrize(
        "engine_cls",
        [UpANNSEngine, LoopedUpANNSEngine],
        ids=["grouped", "looped"],
    )
    def test_dpu_and_retry_spans(
        self, engine_cls, small_dataset, trained_index, history_queries, small_queries
    ):
        engine = engine_cls(
            SystemConfig(
                index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
                query=QueryConfig(nprobe=8, k=5, batch_size=40),
                upanns=UpANNSConfig(),
                pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
            )
        )
        engine.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        engine.inject(FaultPlan.from_specs(["transfer:0@0", "transfer:3@0"]))
        ctx = TraceContext.for_batch(len(small_queries), start=100)
        result = engine.search_batch(small_queries, trace=ctx)
        want = list_unit_trace_ids(result.assignment.per_dpu, ctx)
        assert dpu_span_ids(result) == {d: {ids} for d, ids in want.items()}
        retries = [
            span.trace.trace_ids
            for span in result.schedule.timeline(PIM_BUS).spans
            if span.stage == STAGE_RETRY
        ]
        assert retries == [want.get(0, ()), want.get(3, ())]
