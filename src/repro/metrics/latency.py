"""Serving-latency statistics over a stream of batches.

Online deployments (the paper's RAG / recommendation targets) care
about tail latency, not just throughput.  :class:`LatencyRecorder`
accumulates modeled batch latencies and reports percentiles.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class LatencyRecorder:
    """Accumulates (batch_size, batch_seconds) observations."""

    _sizes: list[int] = field(default_factory=list)
    _seconds: list[float] = field(default_factory=list)
    # Each batch's per-query latency (ms), computed once on record.
    _per_query_ms: list[float] = field(default_factory=list)

    def record(self, batch_size: int, batch_seconds: float) -> None:
        if batch_size < 1 or batch_seconds < 0:
            raise ConfigError("invalid latency observation")
        self._sizes.append(batch_size)
        self._seconds.append(batch_seconds)
        self._per_query_ms.append(batch_seconds / batch_size * 1e3)

    def record_batch_result(self, result) -> None:
        """Record a :class:`~repro.core.engine.BatchResult`-like object."""
        self.record(result.ids.shape[0], result.timing.total_s)

    @property
    def n_batches(self) -> int:
        return len(self._sizes)

    @property
    def total_queries(self) -> int:
        return int(sum(self._sizes))

    def per_query_ms(self) -> np.ndarray:
        """Per-batch per-query latency samples in milliseconds."""
        if not self._sizes:
            raise ConfigError("no observations recorded")
        return np.array(self._per_query_ms)

    def percentiles_ms(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Per-query latency percentiles (ms) from one ``np.percentile``
        call, each q in [0, 100]; equal to one call per q."""
        if not all(0 <= q <= 100 for q in qs):
            raise ConfigError("percentile must be in [0, 100]")
        return tuple(float(v) for v in np.percentile(self.per_query_ms(), qs))

    def percentile_ms(self, q: float) -> float:
        """q-th percentile of per-query latency (ms), q in [0, 100]."""
        (value,) = self.percentiles_ms((q,))
        return value

    def mean_qps(self) -> float:
        total_s = sum(self._seconds)
        if total_s <= 0:
            raise ConfigError("no elapsed time recorded")
        return self.total_queries / total_s

    def summary(self) -> dict[str, float]:
        """p50/p95/p99 latency and mean throughput."""
        p50, p95, p99 = self.percentiles_ms((50, 95, 99))
        return {
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "mean_qps": self.mean_qps(),
        }
