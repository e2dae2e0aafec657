"""UpANNS core: the paper's four optimizations plus the engine facade."""

from repro.core.cooccurrence import (
    Combination,
    CooccurrenceModel,
    build_ecg,
    combination_coverage,
    mine_combinations,
)
from repro.core.encoding import (
    EncodedCluster,
    build_flat_table,
    decode_distances,
    encode_cluster,
    pack_device_rows,
    unpack_device_rows,
)
from repro.core.flat_engine import IVFFlatPimEngine, make_flat_engine
from repro.core.engine import (
    PIM_NAIVE_CONFIG,
    BatchResult,
    BatchTiming,
    UpANNSEngine,
    make_engine,
)
from repro.core.kernel import (
    ClusterPayload,
    KernelConfig,
    PairCharges,
    plan_pair_charges,
)
from repro.core.lut_cache import LutCache, query_digest
from repro.core.memory_plan import WramPlan, apply_plan, plan_wram, release_plan
from repro.core.multihost import (
    MultiHostBatchResult,
    MultiHostEngine,
    NetworkModel,
)
from repro.core.placement import Placement, place_clusters, random_placement
from repro.core.scheduling import AdaptivePolicy, Assignment, schedule_batch
from repro.core.service import OnlineService, ServiceReport
from repro.core.topk import HeapStats, scan_topk_fast

__all__ = [
    "AdaptivePolicy",
    "MultiHostBatchResult",
    "MultiHostEngine",
    "IVFFlatPimEngine",
    "NetworkModel",
    "OnlineService",
    "make_flat_engine",
    "ServiceReport",
    "Assignment",
    "BatchResult",
    "BatchTiming",
    "ClusterPayload",
    "Combination",
    "CooccurrenceModel",
    "EncodedCluster",
    "HeapStats",
    "KernelConfig",
    "LutCache",
    "PIM_NAIVE_CONFIG",
    "PairCharges",
    "Placement",
    "UpANNSEngine",
    "WramPlan",
    "apply_plan",
    "build_ecg",
    "build_flat_table",
    "combination_coverage",
    "decode_distances",
    "encode_cluster",
    "make_engine",
    "mine_combinations",
    "pack_device_rows",
    "place_clusters",
    "plan_pair_charges",
    "plan_wram",
    "query_digest",
    "random_placement",
    "release_plan",
    "scan_topk_fast",
    "schedule_batch",
    "unpack_device_rows",
]
