"""PIM system topology and host<->MRAM transfer model.

A :class:`PimSystem` owns the full set of simulated DPUs (896 for the
paper's 7-DIMM testbed) plus the host-side transfer model.  The key
architectural quirk it models (paper section 2.2): host->MRAM transfers
across DPUs proceed *in parallel only when every per-DPU buffer has the
same size*; otherwise the driver falls back to sequential per-DPU copies.
UpANNS exploits this by padding scheduling metadata to uniform sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.hardware.counters import COUNTER_FIELDS
from repro.hardware.dpu import DPU
from repro.hardware.mram import MramModel
from repro.hardware.specs import DEFAULT_N_TASKLETS, PimSystemSpec
from repro.sim.span import PIM_BUS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import BatchWork


@dataclass
class TransferStats:
    """Outcome of a host<->MRAM transfer batch."""

    total_bytes: int
    parallel: bool
    seconds: float


@dataclass
class PimSystem:
    """The simulated UPMEM deployment: topology + DPU instances."""

    spec: PimSystemSpec = field(default_factory=PimSystemSpec)
    n_tasklets: int = DEFAULT_N_TASKLETS
    mram_model: MramModel = field(default_factory=MramModel)
    dpus: list[DPU] = field(init=False)
    #: (n_dpus, len(COUNTER_FIELDS)) int64: row i is DPU i's ledger.
    ledger: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n_tasklets <= self.spec.dpu.max_tasklets:
            raise ConfigError(f"invalid tasklet count {self.n_tasklets}")
        self.ledger = np.zeros((self.spec.n_dpus, len(COUNTER_FIELDS)), np.int64)
        self.dpus = [
            DPU(
                dpu_id=i,
                spec=self.spec.dpu,
                mram_model=self.mram_model,
                n_tasklets=self.n_tasklets,
                ledger=self.ledger[i],
            )
            for i in range(self.spec.n_dpus)
        ]

    @property
    def n_dpus(self) -> int:
        return self.spec.n_dpus

    def dpu(self, dpu_id: int) -> DPU:
        return self.dpus[dpu_id]

    def reset_counters(self) -> None:
        self.ledger[:] = 0

    def add_counters(self, dpus: np.ndarray, deltas: np.ndarray) -> None:
        """Add row j of ``deltas`` (columns in :class:`Counters` field
        order) to the ledger of DPU ``dpus[j]``; ``dpus`` are distinct."""
        self.ledger[dpus] += deltas

    # --- Host <-> MRAM transfers ---------------------------------------

    def host_transfer_seconds(self, buffer_sizes: Sequence[int]) -> TransferStats:
        """Time to push (or pull) one buffer per DPU from the host.

        Uniform sizes -> one parallel transfer at the aggregate host
        bandwidth; non-uniform -> serialized copies (each at the
        aggregate bandwidth since only one DPU is active at a time,
        which is the degradation the paper warns about).
        """
        sizes = [int(s) for s in buffer_sizes if s > 0]
        if not sizes:
            return TransferStats(0, True, 0.0)
        bw = self.spec.host_transfer_bytes_per_s
        total = sum(sizes)
        uniform = len(set(sizes)) == 1
        if uniform:
            # All DPUs receive concurrently; wall time is one buffer's
            # worth at full host bandwidth.
            seconds = sizes[0] / bw
        else:
            seconds = total / bw
        return TransferStats(total, uniform, seconds)

    def broadcast_seconds(self, size_bytes: int) -> float:
        """Same buffer to all DPUs (e.g. the query batch)."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.spec.host_transfer_bytes_per_s

    def gather_seconds(self, per_dpu_bytes: Iterable[int]) -> TransferStats:
        """Pull per-DPU result buffers back to the host."""
        return self.host_transfer_seconds(list(per_dpu_bytes))

    # --- Work-emission transfer API --------------------------------------
    # The engines *describe* transfers as work items on the ``pim_bus``
    # lane and the event core places them.

    def work_broadcast(
        self,
        work: "BatchWork",
        size_bytes: int,
        *,
        stage: str,
        after: Iterable[int | None] = (),
        trace_ids: Iterable[str] = (),
    ) -> int:
        """Describe a same-buffer-to-all-DPUs push as a bus work item."""
        return work.work(
            PIM_BUS,
            stage,
            self.broadcast_seconds(size_bytes),
            after=after,
            trace_ids=trace_ids,
        )

    def work_transfer(
        self,
        work: "BatchWork",
        buffer_sizes: Sequence[int],
        *,
        stage: str,
        after: Iterable[int | None] = (),
        trace_ids: Iterable[str] = (),
    ) -> int:
        """Describe a per-DPU buffer push/pull as a bus work item."""
        stats = self.host_transfer_seconds(buffer_sizes)
        return work.work(
            PIM_BUS, stage, stats.seconds, after=after, trace_ids=trace_ids
        )

    def work_gather(
        self,
        work: "BatchWork",
        per_dpu_bytes: Iterable[int],
        *,
        stage: str,
        after: Iterable[int | None] = (),
        trace_ids: Iterable[str] = (),
    ) -> int:
        """Describe a per-DPU result pull as a bus work item."""
        return self.work_transfer(
            work,
            list(per_dpu_bytes),
            stage=stage,
            after=after,
            trace_ids=trace_ids,
        )

    # --- Aggregate views -------------------------------------------------

    def makespan_seconds(self) -> float:
        """Batch execution time: the slowest DPU determines the makespan.

        The paper: "the largest workload among DPUs determines the
        overall performance" (section 5.3.1).
        """
        if not self.dpus:
            return 0.0
        return max(d.elapsed_seconds() for d in self.dpus)

    def load_ratio(self) -> float:
        """max/mean DPU busy time — the Figure 11 balance metric."""
        from repro.metrics.balance import max_mean_ratio

        return max_mean_ratio([d.elapsed_cycles() for d in self.dpus])

    def total_mram_used(self) -> int:
        return sum(d.mram_used_bytes for d in self.dpus)
