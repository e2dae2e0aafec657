"""SCHED001 — spans enter timelines only via ``BatchSchedule.record*``.

``BatchSchedule.record`` / ``record_at`` / ``record_dpu_stages`` are the
only constructors that keep the simulator's invariants: they clamp
starts against per-resource lane ends (no double-booking by
construction), derive DPU durations from cycles at the configured
frequency, and keep the derived ledgers (``BatchTiming``,
``StageCycles``) consistent with the spans.  A hand-built
``Span(...)`` appended to a timeline outside :mod:`repro.sim` bypasses
all of that — it is exactly the class of bug the simsan dynamic checker
(:mod:`repro.sanitize`) exists to catch at runtime; this rule catches
it at lint time.

The event core keeps schedules and work descriptions as columns
(``BatchSchedule._span_*``, ``BatchWork._item_*``); the ``Span`` rows
are a view built from them, so writing a column from outside bypasses
the same invariants and desynchronizes the view.

Flagged outside ``sched-allowed-paths`` (default ``repro/sim/``):

* any call spelled ``Span(...)`` (bare name or ``span.Span`` /
  ``sim.Span`` attribute);
* any ``<expr>.spans.append(...)`` / ``.extend(...)`` / ``.insert(...)``
  — mutating a timeline's span list directly;
* any write to a ``_span_*`` / ``_item_*`` column: assigning it,
  assigning into it, or calling a list mutator on it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_MUTATORS = frozenset({"append", "extend", "insert"})
_COLUMN_MUTATORS = _MUTATORS | {"pop", "remove", "clear", "sort", "reverse"}
_COLUMN_PREFIXES = ("_span_", "_item_")


def _is_column(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr.startswith(_COLUMN_PREFIXES)


def _column_writes(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Nodes that write a schedule or work-description column."""
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _COLUMN_MUTATORS
                and _is_column(func.value)
            ):
                yield node
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if _is_column(target) or (
                isinstance(target, ast.Subscript) and _is_column(target.value)
            ):
                yield node
                break


def _is_span_constructor(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "Span"
    if isinstance(func, ast.Attribute):
        return func.attr == "Span"
    return False


def _is_spans_mutation(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _MUTATORS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "spans"
    )


@register
class SpanRecordingRule(Rule):
    rule_id = "SCHED001"
    summary = (
        "spans must be recorded via BatchSchedule.record*, not "
        "hand-constructed outside repro.sim"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.is_sched_recorder_site(ctx.path):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if _is_span_constructor(node.func):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "hand-constructed Span outside repro.sim — record it "
                    "with BatchSchedule.record()/record_at()/"
                    "record_dpu_stages() so lane clamping and derived "
                    "ledgers stay correct",
                )
            elif _is_spans_mutation(node.func):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "direct mutation of a timeline's .spans list bypasses "
                    "the non-overlap clamp — use BatchSchedule.record* "
                    "(or build the timeline inside repro.sim)",
                )
        for node in _column_writes(ctx.nodes):
            yield ctx.finding(
                self.rule_id,
                node,
                "write to a schedule/work column outside repro.sim — the "
                "span view would diverge from it; use BatchSchedule.record* "
                "or BatchWork.work*",
            )
