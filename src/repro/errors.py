"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch simulator/algorithm failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration was supplied.

    Also a :class:`ValueError`: construction-time validation (fault
    plans, admission policies, tenant configs) raises this, and callers
    holding only stdlib vocabulary can still catch it as the bad-value
    error it is.
    """


class InvalidQueryError(ReproError, ValueError):
    """A query array failed intake validation.

    Raised by :meth:`OnlineService.submit <repro.core.service.OnlineService.submit>`
    and the serving frontend for empty batches, dimension mismatches and
    non-finite vectors — instead of a deep numpy traceback from inside
    the pipeline.  Also a :class:`ValueError` for stdlib-only callers.
    """


class WramOverflowError(ReproError):
    """A WRAM allocation request exceeds the DPU's 64 KB scratchpad."""


class MramOverflowError(ReproError):
    """Data loaded onto a DPU exceeds its 64 MB MRAM capacity."""


class DmaAlignmentError(ReproError):
    """An MRAM DMA transfer violates UPMEM's size/alignment rules.

    Transfers must be 8-byte aligned, at least 8 bytes and at most
    2048 bytes (UPMEM SDK constraint, paper section 4.2.1).
    """


class PlacementError(ReproError):
    """Cluster placement could not satisfy capacity/balance constraints."""


class SchedulingError(ReproError):
    """A query references a cluster with no replica on any DPU."""


class DeviceOutOfMemoryError(ReproError):
    """A baseline device (e.g. the modeled GPU) cannot hold the index.

    Mirrors the GPU out-of-memory failure the paper reports for DEEP1B
    on the 80 GB A100 (blue 'X' markers in Figure 12).
    """


class NotTrainedError(ReproError):
    """An index/engine operation requires training that has not happened."""


class FaultError(ReproError):
    """Base class for injected-fault conditions (``repro.faults``).

    Raised only when graceful degradation is impossible or disabled;
    the fault plane's default posture is to re-route, retry, or degrade
    with a coverage flag rather than raise.
    """


class DpuFailedError(FaultError):
    """A DPU (or a whole rank/DIMM of DPUs) is permanently dead.

    Also the escalation of a transient transfer fault that exhausted
    its retry budget.
    """


class TransferFaultError(FaultError):
    """A host<->MRAM transfer failed and could not be retried."""


class CoverageError(FaultError):
    """A batch's coverage fell below a caller-required floor.

    Degraded batches normally complete with a per-query ``coverage``
    fraction; callers that cannot tolerate partial results raise this.
    """
