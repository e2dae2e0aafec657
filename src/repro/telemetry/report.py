"""Utilization reports derived from recorded :class:`BatchSchedule` events.

The paper's core claims are about *where time goes* — host sync vs MRAM
traffic vs DPU compute.  Given any schedule (one batch or a combined
stream), :func:`utilization_report` derives, per resource lane:

* busy seconds (sum of span durations) and idle seconds (makespan
  window minus busy),
* utilization (busy / makespan),

plus a **critical-path attribution**: walking backwards from the
makespan, each instant is attributed to the latest-starting span
covering it (ties broken deterministically), and uncovered instants to
``(wait)``.  The per-resource totals answer "which resource would I
speed up to shorten this run" — the utilization numbers alone cannot
(a lane can be 95% busy entirely off the critical path).

DPU lanes (``dpu/<i>``) are collapsed into one aggregate row by default
— a 896-DPU schedule would otherwise drown the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sim.span import is_dpu_resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.schedule import BatchSchedule

#: Aggregate row name for collapsed DPU lanes.
DPU_GROUP = "dpu/*"
#: Critical-path key for instants no span covers.
WAIT = "(wait)"


@dataclass(frozen=True)
class ResourceUtilization:
    """Busy/idle accounting for one resource lane (or lane group)."""

    resource: str
    busy_s: float
    idle_s: float
    utilization: float  # busy / (n_lanes * makespan), in [0, 1]
    n_spans: int
    n_lanes: int = 1


@dataclass
class UtilizationReport:
    """Per-resource utilization + critical-path attribution."""

    makespan_s: float
    resources: list[ResourceUtilization]
    critical_path: dict[str, float]  # resource (or WAIT) -> seconds

    def resource(self, name: str) -> ResourceUtilization:
        for row in self.resources:
            if row.resource == name:
                return row
        raise KeyError(name)

    def to_json(self) -> dict[str, Any]:
        return {
            "makespan_s": self.makespan_s,
            "resources": [
                {
                    "resource": r.resource,
                    "busy_s": r.busy_s,
                    "idle_s": r.idle_s,
                    "utilization": r.utilization,
                    "n_spans": r.n_spans,
                    "n_lanes": r.n_lanes,
                }
                for r in self.resources
            ],
            "critical_path": dict(self.critical_path),
        }

    def render_text(self) -> str:
        """Human-readable table + critical-path summary."""
        from repro.analysis.report import render_table

        rows = [
            [
                r.resource,
                r.busy_s * 1e3,
                r.idle_s * 1e3,
                100.0 * r.utilization,
                r.n_spans,
            ]
            for r in self.resources
        ]
        table = render_table(
            ["resource", "busy ms", "idle ms", "util %", "spans"],
            rows,
            title=f"utilization over {self.makespan_s * 1e3:.3f} ms makespan",
            float_fmt="{:.3f}",
        )
        total = sum(self.critical_path.values())
        parts = [
            f"{name} {seconds * 1e3:.3f} ms ({100.0 * seconds / total:.1f}%)"
            for name, seconds in sorted(
                self.critical_path.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return table + "\ncritical path: " + (" | ".join(parts) if parts else "-")


def _group(resource: str, collapse_dpus: bool) -> str:
    return DPU_GROUP if collapse_dpus and is_dpu_resource(resource) else resource


def critical_path_attribution(
    schedule: "BatchSchedule", *, collapse_dpus: bool = True
) -> dict[str, float]:
    """Seconds of the makespan attributed to each resource (or ``(wait)``).

    Backward walk from the makespan: at time ``t`` the responsible span
    is the latest-starting span covering ``(t0 < t <= t1)``; ties broken
    by latest end, then resource name, so the attribution is fully
    deterministic.  When no span covers ``t``, the gap back to the
    previous span end is attributed to :data:`WAIT`.

    One sort and one sweep: ``t`` only decreases, so spans ordered by
    that key (descending) that start at or after ``t`` never cover it
    again, and a suffix max of span ends says whether any of the rest
    does (or where the gap before ``t`` ends).
    """
    attribution: dict[str, float] = {}
    t = schedule.makespan
    cols = schedule.columns()
    keep = np.flatnonzero(cols.duration > 0)
    if not keep.size or t <= 0:
        return attribution
    name_rank = np.argsort(np.argsort(np.array(cols.lanes, dtype=object)))
    lanes = cols.lane[keep]
    order = keep[np.lexsort((name_rank[lanes], cols.t1[keep], cols.t0[keep]))[::-1]]
    t0s, t1s = cols.t0[order].tolist(), cols.t1[order].tolist()
    groups = [_group(cols.lanes[lane], collapse_dpus) for lane in cols.lane[order].tolist()]
    latest_end = list(accumulate(reversed(t1s), max))[::-1] + [0.0]
    p, n = 0, len(t0s)
    while t > 0:
        while p < n and t0s[p] >= t:
            p += 1
        if latest_end[p] < t:
            attribution[WAIT] = attribution.get(WAIT, 0.0) + (t - latest_end[p])
            t = latest_end[p]
            continue
        best = p
        while t1s[best] < t:
            best += 1
        group = groups[best]
        attribution[group] = attribution.get(group, 0.0) + (t - t0s[best])
        t = t0s[best]
    return attribution


def utilization_report(
    schedule: "BatchSchedule", *, collapse_dpus: bool = True
) -> UtilizationReport:
    """Derive per-resource busy/idle/utilization from any schedule."""
    makespan = schedule.makespan
    cols = schedule.columns()
    lane_busy = cols.lane_sums(cols.duration).tolist()
    lane_spans = np.bincount(cols.lane, minlength=len(cols.lanes)).tolist()
    busy: dict[str, float] = {}
    n_spans: dict[str, int] = {}
    n_lanes: dict[str, int] = {}
    for lane, resource in enumerate(cols.lanes):
        group = _group(resource, collapse_dpus)
        busy[group] = busy.get(group, 0.0) + lane_busy[lane]
        n_spans[group] = n_spans.get(group, 0) + lane_spans[lane]
        n_lanes[group] = n_lanes.get(group, 0) + 1
    resources = []
    for group in sorted(busy):
        window = makespan * n_lanes[group]
        utilization = busy[group] / window if window > 0 else 0.0
        resources.append(
            ResourceUtilization(
                resource=group,
                busy_s=busy[group],
                idle_s=max(0.0, window - busy[group]),
                utilization=min(1.0, utilization),
                n_spans=n_spans[group],
                n_lanes=n_lanes[group],
            )
        )
    return UtilizationReport(
        makespan_s=makespan,
        resources=resources,
        critical_path=critical_path_attribution(
            schedule, collapse_dpus=collapse_dpus
        ),
    )
