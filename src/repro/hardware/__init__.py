"""Simulated UPMEM PIM hardware substrate.

Functional + timing models of the architecture described in the paper's
section 2.2: DPUs (350 MHz, 24 threads, 14-stage pipeline), the
MRAM/WRAM/IRAM memory hierarchy, DMA constraints, host transfer
semantics, topology and power.
"""

from repro.hardware.counters import Counters, StageCycles
from repro.hardware.dpu import DPU
from repro.hardware.energy import DpuPowerModel, batch_energy_report, peak_energy
from repro.hardware.host import HostModel
from repro.hardware.microsim import MicroSim, Op, OpKind, barrier, compute_block, dma_read
from repro.hardware.mram import (
    MAX_DMA_BYTES,
    MIN_DMA_BYTES,
    MramModel,
    round_up_dma,
    validate_dma_size,
)
from repro.hardware.pipeline import BarrierModel, PipelineModel
from repro.hardware.power import (
    EfficiencyReport,
    dpus_for_power_budget,
    report_for_pim,
    report_for_spec,
)
from repro.hardware.rank import PimSystem, TransferStats
from repro.hardware.specs import (
    A100_PCIE_80GB,
    TABLE1_ROWS,
    UPMEM_7_DIMMS,
    XEON_4110_PAIR,
    CpuSpec,
    DpuSpec,
    GpuSpec,
    HardwareSpec,
    PimSystemSpec,
)
from repro.hardware.wram import WramAllocator, WramRegion

__all__ = [
    "A100_PCIE_80GB",
    "BarrierModel",
    "Counters",
    "CpuSpec",
    "DPU",
    "DpuPowerModel",
    "DpuSpec",
    "EfficiencyReport",
    "GpuSpec",
    "HardwareSpec",
    "HostModel",
    "MAX_DMA_BYTES",
    "MIN_DMA_BYTES",
    "MicroSim",
    "MramModel",
    "Op",
    "OpKind",
    "barrier",
    "compute_block",
    "dma_read",
    "PimSystem",
    "PimSystemSpec",
    "PipelineModel",
    "StageCycles",
    "TABLE1_ROWS",
    "TransferStats",
    "UPMEM_7_DIMMS",
    "WramAllocator",
    "WramRegion",
    "batch_energy_report",
    "peak_energy",
    "XEON_4110_PAIR",
    "dpus_for_power_budget",
    "report_for_pim",
    "report_for_spec",
    "round_up_dma",
    "validate_dma_size",
]
