"""Per-query causal tracing: trace contexts, trace records, explainers.

The simulator's spans say *where* time went; this package says *whose*
time it was.  A :class:`TraceContext` assigns every query in a batch a
stable trace id at service intake; the engines thread those ids through
their :class:`~repro.sim.events.BatchWork` DAGs so the event core emits
spans carrying :class:`~repro.sim.span.SpanTrace` metadata
(trace ids, causal parents, and a queue-wait vs. service-time split).

Downstream:

* :func:`make_trace_record` / :func:`validate_trace_record` export a
  schedule's traced spans as a schema-versioned ``repro.trace/v1``
  record (validated like ``repro.bench.result/v1``);
* :func:`explain_query` walks a query's span DAG backward along the
  critical path and returns ranked wait/compute/transfer/retry
  contributions, including fault-retry and mid-flight-kill annotations;
* ``repro.cli trace --trace-out/--query`` and ``repro.cli explain``
  expose both on the command line.

Nothing here feeds a timing ledger: trace metadata rides alongside the
spans, and golden timings stay bit-identical with tracing enabled.
"""

from repro.tracing.context import TraceContext, format_trace_id
from repro.tracing.explain import (
    Contribution,
    QueryExplanation,
    explain_query,
    render_explanation,
    worst_query,
)
from repro.tracing.record import (
    TRACE_SCHEMA,
    make_trace_record,
    query_latencies,
    query_spans,
    span_id,
    validate_trace_record,
)

__all__ = [
    "Contribution",
    "QueryExplanation",
    "TRACE_SCHEMA",
    "TraceContext",
    "explain_query",
    "format_trace_id",
    "make_trace_record",
    "query_latencies",
    "query_spans",
    "render_explanation",
    "span_id",
    "validate_trace_record",
    "worst_query",
]
