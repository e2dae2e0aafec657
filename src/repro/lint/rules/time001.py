"""TIME001 — engines must not hand-sum seconds into timing fields.

The timeline refactor moved all online-pipeline time accounting into
``repro.sim.record`` / ``BatchSchedule``: timed work becomes a span on a
resource lane, and the legacy additive scalars (``BatchTiming`` et al.)
are *derived* from the spans.  Writing ``something.foo_s = ...`` (or
``+=``) inside an engine module reintroduces the ad-hoc scalar
accounting the refactor removed — the written value bypasses the
schedule, so it never shows up in traces and can silently disagree with
the derived views.

The rule is path-scoped to the online pipelines (``core/engine.py``,
``core/flat_engine.py``, ``core/multihost.py``, ``core/service.py`` and
``baselines/``); cost models and metrics modules legitimately build
``*_s`` values and are not checked.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Path fragments identifying the modules under the span-only contract.
_SCOPED_PATHS = (
    "core/engine.py",
    "core/flat_engine.py",
    "core/multihost.py",
    "core/service.py",
    "baselines/",
)


def _in_scope(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in _SCOPED_PATHS)


@register
class TimingAssignmentRule(Rule):
    rule_id = "TIME001"
    summary = (
        "engine modules must route timed work through repro.sim.record, "
        "not hand-summed *_s attribute assignments"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx.path):
            return
        for node in ctx.nodes:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr.endswith("_s"):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"assignment to timing field .{target.attr} in an engine "
                        "module — emit a span via repro.sim.record() on a "
                        "BatchSchedule instead of hand-summing seconds",
                    )
