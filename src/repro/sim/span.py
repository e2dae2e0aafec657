"""Spans and per-resource timelines: the simulator's event core.

A :class:`Span` is one contiguous interval of modeled work on one
resource (the host CPU, the host<->PIM bus, the network, or a single
DPU).  A :class:`ResourceTimeline` is an append-only, non-overlapping
sequence of spans on one resource.  Timing views (``BatchTiming``,
stage breakdowns, Chrome traces) are all *derived* from these events.

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


@dataclass
class ResourceTimeline:
    """Append-only, non-overlapping span sequence on one resource."""

    resource: str
    spans: list[Span] = field(default_factory=list)

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
        self.spans.append(span)

    def busy_seconds(self) -> float:
        """Sum of span durations in append order (legacy accumulation)."""
        total = 0.0
        for span in self.spans:
            total += span.duration
        return total

    def busy_cycles(self) -> float:
        """Sum of span cycle charges in append order (None counts as 0)."""
        total = 0.0
        for span in self.spans:
            if span.cycles is not None:
                total += span.cycles
        return total

    def stage_seconds(self, stage: str) -> float:
        """Summed duration of this lane's spans with the given stage."""
        total = 0.0
        for span in self.spans:
            if span.stage == stage:
                total += span.duration
        return total
