"""Trace-context propagation: stable per-query ids assigned at intake.

A :class:`TraceContext` is created once per submitted batch — by
:class:`~repro.core.service.OnlineService` with a monotonically growing
query counter, or by an engine itself for standalone ``search_batch``
calls — and threaded through the work-DAG builders so every
work item of a :class:`~repro.sim.events.BatchWork` knows which
queries it does work for.  Ids are deterministic (a zero-padded counter, no RNG/wall-clock:
simlint DET001 applies to everything feeding the timeline).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigError


def format_trace_id(n: int) -> str:
    """Canonical trace id for the ``n``-th query a service has seen."""
    return f"q{n:06d}"


@dataclass(frozen=True)
class TraceContext:
    """Trace ids for one batch's queries, in query order.

    ``trace_ids[i]`` is query ``i``'s id within the batch; ``batch`` is
    the stream position the batch will occupy in the service's combined
    run (0 for standalone engine calls).
    """

    trace_ids: tuple[str, ...]
    batch: int = 0

    def __post_init__(self) -> None:
        if len(set(self.trace_ids)) != len(self.trace_ids):
            raise ConfigError("trace ids within a batch must be unique")
        if self.batch < 0:
            raise ConfigError(f"negative batch index {self.batch}")

    @classmethod
    def for_batch(
        cls, n_queries: int, *, batch: int = 0, start: int = 0
    ) -> "TraceContext":
        """Ids ``q<start>..q<start+n-1>`` for a batch of ``n_queries``."""
        if n_queries < 0:
            raise ConfigError(f"negative query count {n_queries}")
        return cls(
            trace_ids=tuple(
                format_trace_id(start + i) for i in range(n_queries)
            ),
            batch=batch,
        )

    def __len__(self) -> int:
        return len(self.trace_ids)

    def all_ids(self) -> tuple[str, ...]:
        """Every id in the batch (batch-wide stages serve all queries)."""
        return self.trace_ids

    def ids_for(self, query_indices: Iterable[int]) -> tuple[str, ...]:
        """Ids of a subset of queries (e.g. one DPU's assigned pairs).

        Deduplicates while preserving first-appearance order, so a DPU
        serving several (query, cluster) pairs of the same query tags
        its chain with that query once.
        """
        seen: dict[str, None] = {}
        for qi in query_indices:
            if not 0 <= qi < len(self.trace_ids):
                raise ConfigError(
                    f"query index {qi} outside batch of {len(self.trace_ids)}"
                )
            seen.setdefault(self.trace_ids[qi], None)
        return tuple(seen)
