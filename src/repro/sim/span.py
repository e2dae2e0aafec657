"""Spans and per-resource timelines: the row view of a schedule.

A :class:`Span` is one contiguous interval of modeled work on one
resource (the host CPU, the host<->PIM bus, the network, or a single
DPU).  A :class:`ResourceTimeline` is an append-only, non-overlapping
sequence of spans on one resource.  A
:class:`~repro.sim.schedule.BatchSchedule` keeps its spans as columns
and builds these objects only when a consumer asks for rows (Chrome
export, trace records, ``explain``, the sanitizer).

Bit-for-bit note: a span stores its ``duration`` explicitly rather than
deriving it as ``t1 - t0``.  Sums of durations in append order replicate
the legacy scalar accumulation exactly (``0.0 + x == x`` for the first
term), which is what keeps the derived ``BatchTiming`` identical to the
pre-timeline numbers.  DPU spans additionally carry the ``cycles`` they
represent so makespans can be derived in cycle space, where the legacy
code computed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

#: Canonical resource names used by the engines.
HOST_CPU = "host_cpu"
#: Separate host lane for aggregation in double-buffered composition
#: (the 2x Xeon host has spare cores for the merge while the next
#: batch's pre-processing runs).
HOST_AGG = "host_agg"
PIM_BUS = "pim_bus"
NETWORK = "network"

_DPU_PREFIX = "dpu/"


def dpu_resource(dpu_id: int) -> str:
    """Resource name for one DPU's execution lane."""
    return f"{_DPU_PREFIX}{dpu_id}"


def is_dpu_resource(resource: str) -> bool:
    return resource.startswith(_DPU_PREFIX)


def sequential_sums(values, groups=None, n_groups: int = 1) -> np.ndarray:
    """Per-group float sums added left to right, in array order.

    Bit-identical to ``total = 0.0; for v in group: total += v``, the
    accumulation every derived ledger is pinned to: the groups are rows
    of one zero-padded matrix summed with ``np.cumsum`` (sequential by
    definition), never ``np.add.reduce`` (pairwise) or ``sum()``
    (compensated from Python 3.12).  ``groups`` holds each value's
    group index (default: one group); adding ``0.0`` turns a ``-0.0``
    total into the loop's ``0.0``.
    """
    values = np.asarray(values, dtype=np.float64)
    groups = np.zeros(values.size, np.intp) if groups is None else np.asarray(groups)
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=n_groups)
    rank = np.arange(values.size) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.zeros((n_groups, max(counts.max(initial=0), 1)))
    rows[groups[order], rank] = values[order]
    return np.cumsum(rows, axis=1)[:, -1] + 0.0


@dataclass(frozen=True)
class SpanTrace:
    """Causal metadata riding alongside a span — never part of timing.

    The event core attaches one of these when the work item that
    produced the span carried trace ids.  Everything here is *derived
    observability*: span ids and parents mirror the work DAG, the
    queue-wait split is computed from lane occupancy at dispatch time,
    and none of it feeds ``BatchTiming`` or any ledger — golden timings
    stay bit-identical whether tracing metadata is present or not.
    """

    #: Work-item uid within its batch DAG (stable across per-batch and
    #: stream runs).
    uid: int
    #: Uids of the work items this span causally depends on.
    parents: tuple[int, ...] = ()
    #: Query trace ids this span did work for (empty = untraced span).
    trace_ids: tuple[str, ...] = ()
    #: Stream batch index (0 for standalone batch execution).
    batch: int = 0
    #: Seconds the item sat ready but queued behind its lane's FIFO
    #: (service time is the span's own ``duration``).
    wait_s: float = 0.0
    #: True when a mid-flight fault fence truncated this span.
    killed: bool = False


@dataclass(frozen=True)
class Span:
    """One contiguous interval of modeled work on one resource."""

    resource: str
    stage: str
    t0: float
    duration: float  # seconds; authoritative (t1 is derived)
    cycles: float | None = None  # DPU spans: the cycles this span models
    counters: object | None = None  # optional ref (e.g. a StageCycles)
    trace: SpanTrace | None = None  # causal/trace metadata (never timing)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigError(
                f"negative span duration {self.duration} on {self.resource}"
            )
        if self.t0 < 0:
            raise ConfigError(f"negative span start {self.t0} on {self.resource}")

    @property
    def t1(self) -> float:
        return self.t0 + self.duration


class SpanList(list):
    """A timeline's spans, read-only: a stray ``append`` would silently
    diverge from the schedule's columns, so every mutator raises."""

    def _read_only(self, *args, **kwargs):
        raise ConfigError(
            "a timeline's spans are read-only; record through "
            "BatchSchedule.record*()"
        )

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only


@dataclass
class ResourceTimeline:
    """Append-only, non-overlapping span sequence on one resource."""

    resource: str
    spans: SpanList = field(default_factory=SpanList)

    def __post_init__(self) -> None:
        if not isinstance(self.spans, SpanList):
            self.spans = SpanList(self.spans)

    @property
    def end(self) -> float:
        """Time the resource becomes free (0.0 when never used)."""
        return self.spans[-1].t1 if self.spans else 0.0

    def append(self, span: Span) -> None:
        """Append a span; it must start at or after the current end."""
        if span.resource != self.resource:
            raise ConfigError(
                f"span for {span.resource!r} appended to {self.resource!r}"
            )
        if span.t0 < self.end:
            raise ConfigError(
                f"overlapping span on {self.resource}: "
                f"starts {span.t0} before lane end {self.end}"
            )
        list.append(self.spans, span)

    def busy_seconds(self) -> float:
        """Sum of span durations in append order (legacy accumulation)."""
        return float(sequential_sums([s.duration for s in self.spans])[0])

    def busy_cycles(self) -> float:
        """Sum of span cycle charges in append order (None counts as 0)."""
        cycles = [s.cycles for s in self.spans if s.cycles is not None]
        return float(sequential_sums(cycles)[0])

    def stage_seconds(self, stage: str) -> float:
        """Summed duration of this lane's spans with the given stage."""
        durations = [s.duration for s in self.spans if s.stage == stage]
        return float(sequential_sums(durations)[0])
