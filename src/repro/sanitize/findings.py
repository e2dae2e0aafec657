"""Finding record emitted by the schedule sanitizer ("simsan").

Each defect class has its own code so callers (tests, CI, the engines'
debug hook) can assert *which* invariant broke, not just that something
did:

``SAN-OVERLAP``
    Exclusive-resource double-booking: two spans on the same lane
    (a DPU, the host<->PIM bus, a network link) overlap in time.
``SAN-ORDER``
    Happens-before violation: a DPU executes before its inputs landed,
    aggregation starts before results were gathered, or a retry span is
    not contiguous with the transfer traffic it recovers.
``SAN-NUMERIC``
    Numeric anomaly: NaN/negative/infinite span start or duration
    (zero-duration spans are legal — e.g. an empty result gather — and
    flagged only in strict mode).
``SAN-LEDGER``
    Conservation mismatch: a derived ledger (``BatchTiming``,
    ``StageCycles``, fault retry/attempt charges, record-level sums)
    disagrees with the spans or rows it was derived from.
``SAN-SCHEMA``
    Structural problem in the input itself (malformed trace event,
    span filed under the wrong lane, unrecognized payload, a tagged
    record breaking its spec's field rules or structural invariants).
``SAN-TRACE``
    Trace-metadata defect: trace ids fail to partition the span set
    (some spans traced, some not), one trace id spans multiple batches,
    duplicate ``(batch, uid)`` span identities, or a negative queue
    wait.
"""

from __future__ import annotations

from dataclasses import dataclass

# The record specs' invariants report as these two, so they are defined
# beside the specs.
from repro.telemetry.schema import SAN_LEDGER, SAN_SCHEMA

SAN_OVERLAP = "SAN-OVERLAP"
SAN_ORDER = "SAN-ORDER"
SAN_NUMERIC = "SAN-NUMERIC"
SAN_TRACE = "SAN-TRACE"

#: Every code the sanitizer can emit, in severity-agnostic render order.
ALL_CODES = (
    SAN_OVERLAP,
    SAN_ORDER,
    SAN_NUMERIC,
    SAN_LEDGER,
    SAN_SCHEMA,
    SAN_TRACE,
)


@dataclass(frozen=True, order=True)
class SanFinding:
    """One violated invariant at one location."""

    code: str
    location: str  # lane/resource, ledger field, or record path
    message: str
    source: str = ""  # optional file the input came from

    def render(self) -> str:
        prefix = f"{self.source}: " if self.source else ""
        return f"{prefix}{self.code} {self.location}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "code": self.code,
            "location": self.location,
            "message": self.message,
        }
        if self.source:
            out["source"] = self.source
        return out


def with_source(findings: list[SanFinding], source: str) -> list[SanFinding]:
    """The same findings, stamped with the file they came from."""
    return [
        SanFinding(f.code, f.location, f.message, source) for f in findings
    ]
