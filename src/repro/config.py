"""Configuration dataclasses shared across engines and benches."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hardware.specs import DEFAULT_N_TASKLETS, PimSystemSpec, UPMEM_7_DIMMS


@dataclass(frozen=True)
class IndexConfig:
    """IVFPQ geometry (paper defaults: IVF4096, M per dataset, 8-bit codes)."""

    dim: int
    n_clusters: int = 4096
    m: int = 16
    nbits: int = 8
    train_iters: int = 20

    def __post_init__(self) -> None:
        if self.dim % self.m != 0:
            raise ConfigError(f"dim {self.dim} not divisible by m {self.m}")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")


@dataclass(frozen=True)
class QueryConfig:
    """Online-phase knobs (paper sweeps nprobe 64-256, k 1-100, BS 10-1000)."""

    nprobe: int = 64
    k: int = 10
    batch_size: int = 1000

    def __post_init__(self) -> None:
        if self.nprobe < 1 or self.k < 1 or self.batch_size < 1:
            raise ConfigError("nprobe, k and batch_size must be >= 1")


@dataclass(frozen=True)
class UpANNSConfig:
    """All UpANNS-specific knobs with the paper's defaults.

    * ``n_tasklets=11``: section 5.3.2 finds QPS saturates at 11;
    * ``mram_read_vectors=16``: section 5.4.2 picks 16 vectors/DMA;
    * ``cae_combos=256`` length-3 combinations per cluster: section 4.3;
    * replication and scheduling per Algorithms 1-2.
    """

    n_tasklets: int = DEFAULT_N_TASKLETS
    mram_read_vectors: int = 16
    enable_placement: bool = True
    enable_cae: bool = True
    enable_topk_pruning: bool = True
    cae_combos: int = 256
    cae_combo_length: int = 3
    placement_threshold_rate: float = 0.02
    replication_headroom: float = 3.0
    max_dpu_vectors: int | None = None  # None = derive from MRAM capacity
    # Cross-batch LUT cache capacity, in bytes the cache holds for its
    # (query, cluster) top-k candidates: 8k + 16 per entry (a float32
    # distance and an int32 column per candidate, a stamp, an owner
    # cell) plus 4 x n_clusters + 256 per cached query; 0 disables.
    # Functional-path only: a hit skips host-side recomputation, never
    # the modeled DPU charge.  (Coincidentally MRAM-sized; this is host
    # memory, not a DPU limit.)
    lut_cache_bytes: int = 64 * 1024 * 1024  # simlint: ignore[HW001]

    def __post_init__(self) -> None:
        if self.n_tasklets < 1:
            raise ConfigError("n_tasklets must be >= 1")
        if self.mram_read_vectors < 1:
            raise ConfigError("mram_read_vectors must be >= 1")
        if self.lut_cache_bytes < 0:
            raise ConfigError("lut_cache_bytes must be >= 0 (0 disables)")
        if self.cae_combo_length < 2:
            raise ConfigError("co-occurrence combinations need length >= 2")
        if self.placement_threshold_rate <= 0:
            raise ConfigError("placement_threshold_rate must be positive")
        if self.replication_headroom < 1.0:
            raise ConfigError("replication_headroom must be >= 1.0")


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of everything an engine needs to be constructed."""

    index: IndexConfig
    query: QueryConfig = field(default_factory=QueryConfig)
    upanns: UpANNSConfig = field(default_factory=UpANNSConfig)
    pim: PimSystemSpec = UPMEM_7_DIMMS
    # Timing-only extrapolation factor: charge per-point costs as if
    # every inverted list were this many times longer.  Used to study
    # billion-scale behavior on scaled-down functional data (DESIGN.md
    # section 5); 1.0 = charge exactly what is simulated.
    timing_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.timing_scale <= 0:
            raise ConfigError("timing_scale must be positive")
