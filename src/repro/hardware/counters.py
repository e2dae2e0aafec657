"""Event counters collected while a DPU kernel executes.

The simulator separates *what happened* (these counters) from *how long it
took* (the timing models in :mod:`repro.hardware.pipeline` and
:mod:`repro.hardware.mram`).  Kernels charge counters as they run on real
data; the :class:`repro.hardware.dpu.DPU` converts the ledger into cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    """One DPU's event ledger (a snapshot: see :attr:`DPU.counters`)."""

    instructions: int = 0
    mram_read_bytes: int = 0
    mram_write_bytes: int = 0
    dma_transactions: int = 0
    dma_cycles: int = 0
    wram_reads: int = 0
    wram_writes: int = 0
    barriers: int = 0
    heap_comparisons: int = 0
    pruned_insertions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: :class:`Counters` field names: the columns of a DPU ledger row.
COUNTER_FIELDS = tuple(f.name for f in fields(Counters))


@dataclass
class StageCycles:
    """Per-pipeline-stage cycle attribution for the IVFPQ online stages.

    Mirrors the four-stage decomposition the paper reports in Figures 1,
    14 and 19: cluster filtering runs on the host, the other three run on
    the DPU.
    """

    cluster_filter: float = 0.0
    lut_construction: float = 0.0
    distance_calc: float = 0.0
    topk_selection: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.cluster_filter
            + self.lut_construction
            + self.distance_calc
            + self.topk_selection
            + self.other
        )

    def merge(self, other: "StageCycles") -> None:
        self.cluster_filter += other.cluster_filter
        self.lut_construction += other.lut_construction
        self.distance_calc += other.distance_calc
        self.topk_selection += other.topk_selection
        self.other += other.other

    def __iadd__(self, other: "StageCycles") -> "StageCycles":
        self.merge(other)
        return self

    def scaled(self, factor: float) -> "StageCycles":
        return StageCycles(
            cluster_filter=self.cluster_filter * factor,
            lut_construction=self.lut_construction * factor,
            distance_calc=self.distance_calc * factor,
            topk_selection=self.topk_selection * factor,
            other=self.other * factor,
        )

    def fractions(self) -> dict[str, float]:
        """Return each stage's share of the total (for breakdown plots)."""
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in self.as_dict()}
        return {k: v / total for k, v in self.as_dict().items()}

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: :class:`StageCycles` field names: the columns of a stage-cycle matrix.
STAGE_FIELDS = tuple(f.name for f in fields(StageCycles))
