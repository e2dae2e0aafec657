"""Functional-plus-timing model of a single DPU.

A :class:`DPU` holds named MRAM buffers (real NumPy arrays — kernels
compute on actual data), a WRAM allocator, and a cycle ledger.  Kernels
charge events through the ``charge_*`` methods; :meth:`elapsed_cycles`
converts the ledger into time using the pipeline and MRAM models.  The
ledger is an int64 row in :class:`Counters` field order — in a
:class:`~repro.hardware.rank.PimSystem`, a row of the system's ledger
matrix, so a batch's per-DPU deltas land in one vector step.

Timing composition: the 14-stage pipeline overlaps MRAM DMA with
computation when enough tasklets are resident (paper Opt2), so compute
and DMA cycles overlap up to an efficiency factor; barriers serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MramOverflowError
from repro.hardware.counters import COUNTER_FIELDS, Counters
from repro.hardware.mram import MramModel
from repro.hardware.pipeline import BarrierModel, PipelineModel
from repro.hardware.specs import DEFAULT_N_TASKLETS, DpuSpec
from repro.hardware.wram import WramAllocator
from repro.telemetry.pipeline import observe_dma


_COLUMN = {name: i for i, name in enumerate(COUNTER_FIELDS)}


@dataclass
class DPU:
    """One DRAM Processing Unit: storage + event ledger."""

    dpu_id: int
    spec: DpuSpec = field(default_factory=DpuSpec)
    mram_model: MramModel = field(default_factory=MramModel)
    n_tasklets: int = DEFAULT_N_TASKLETS
    # How completely the pipeline hides DMA latency behind compute:
    # 1.0 = perfect overlap (time = max), 0.0 = fully serial (time = sum).
    overlap_efficiency: float = 0.85

    ledger: np.ndarray = field(
        default_factory=lambda: np.zeros(len(COUNTER_FIELDS), dtype=np.int64),
        repr=False,
        compare=False,
    )
    wram: WramAllocator = field(init=False)
    _mram: dict[str, np.ndarray] = field(default_factory=dict)
    _mram_used: int = 0

    def __post_init__(self) -> None:
        self.wram = WramAllocator(capacity=self.spec.wram_bytes)
        self.pipeline = PipelineModel(self.spec)
        self.barrier_model = BarrierModel(self.spec)

    # --- MRAM storage (functional) -----------------------------------

    def mram_store(self, name: str, array: np.ndarray) -> None:
        """Place a named buffer in MRAM, enforcing the 64 MB capacity."""
        new_bytes = array.nbytes
        old = self._mram.get(name)
        projected = self._mram_used - (old.nbytes if old is not None else 0) + new_bytes
        if projected > self.spec.mram_bytes:
            raise MramOverflowError(
                f"DPU {self.dpu_id}: storing {name!r} ({new_bytes} B) exceeds "
                f"MRAM capacity {self.spec.mram_bytes} B "
                f"(used {self._mram_used} B)"
            )
        self._mram[name] = array
        self._mram_used = projected

    def mram_load(self, name: str) -> np.ndarray:
        return self._mram[name]

    def mram_contains(self, name: str) -> bool:
        return name in self._mram

    def mram_delete(self, name: str) -> None:
        arr = self._mram.pop(name)
        self._mram_used -= arr.nbytes

    @property
    def mram_used_bytes(self) -> int:
        return self._mram_used

    @property
    def mram_free_bytes(self) -> int:
        return self.spec.mram_bytes - self._mram_used

    # --- Event charging -----------------------------------------------

    @property
    def counters(self) -> Counters:
        """A snapshot of the ledger (charge through the ``charge_*``
        methods; writes to the snapshot do not reach the ledger)."""
        return Counters(*self.ledger.tolist())

    def _charge(self, name: str, amount: int) -> None:
        self.ledger[_COLUMN[name]] += amount

    def charge_instructions(self, count: float) -> None:
        self._charge("instructions", int(count))

    def _charge_dma(self, kind: str, total_bytes: int, chunk_bytes: int) -> float:
        cycles = self.mram_model.bulk_transfer_cycles(total_bytes, chunk_bytes)
        self._charge(f"mram_{kind}_bytes", total_bytes)
        self._charge(
            "dma_transactions",
            self.mram_model.transactions_for(total_bytes, chunk_bytes),
        )
        self._charge("dma_cycles", int(cycles))
        observe_dma(kind, total_bytes, chunk_bytes)
        return cycles

    def charge_mram_read(self, total_bytes: int, chunk_bytes: int) -> float:
        """Charge a bulk MRAM->WRAM stream; returns the DMA cycles added."""
        return self._charge_dma("read", total_bytes, chunk_bytes)

    def charge_mram_write(self, total_bytes: int, chunk_bytes: int) -> float:
        return self._charge_dma("write", total_bytes, chunk_bytes)

    def charge_barrier(self) -> float:
        self._charge("barriers", 1)
        return self.barrier_model.barrier_cycles(self.n_tasklets)

    def charge_heap(self, comparisons: int, pruned: int) -> None:
        """Charge a top-k merge's heap comparisons and pruned insertions."""
        self._charge("heap_comparisons", comparisons)
        self._charge("pruned_insertions", pruned)

    # --- Timing conversion ---------------------------------------------

    def combine_cycles(self, compute_cycles: float, dma_cycles: float) -> float:
        """Overlap compute and DMA per the pipeline-hiding model."""
        lo = max(compute_cycles, dma_cycles)
        hi = compute_cycles + dma_cycles
        return hi - self.overlap_efficiency * (hi - lo)

    def elapsed_cycles(self) -> float:
        """Total cycles implied by the current ledger (coarse view)."""
        counters = self.counters
        compute = self.pipeline.compute_cycles(
            counters.instructions, self.n_tasklets
        )
        dma = float(counters.dma_cycles)
        barrier = counters.barriers * self.barrier_model.barrier_cycles(
            self.n_tasklets
        )
        return self.combine_cycles(compute, dma) + barrier

    def elapsed_seconds(self) -> float:
        return self.elapsed_cycles() / self.spec.frequency_hz

    def reset_counters(self) -> None:
        self.ledger[:] = 0
