"""FLT001 — fault-handling code must catch the taxonomy, not Exception.

The fault-injection plane (``repro.faults``) gives every failure mode a
typed exception rooted at ``ReproError`` (``DpuFailedError``,
``TransferFaultError``, ``SchedulingError``, ...).  A ``try`` block that
catches bare ``Exception`` (or a naked ``except:``) inside the serving
stack swallows the taxonomy: fault-plane errors, programming bugs and
``KeyboardInterrupt``-adjacent conditions all collapse into one handler,
and the failover logic can no longer distinguish "re-route to a replica"
from "the simulator itself is broken".

The rule is path-scoped to ``src/repro/core`` and ``src/repro/hardware``
— the layers that sit on the failure path.  CLI entry points and test
helpers may legitimately catch broadly for reporting and are out of
scope.  A deliberate broad handler (e.g. a last-resort boundary) can be
suppressed with ``# simlint: ignore[FLT001]``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Path fragments identifying the modules on the failure path.
_SCOPED_PATHS = (
    "repro/core/",
    "repro/hardware/",
)


def _in_scope(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in _SCOPED_PATHS)


def _names(expr: ast.expr | None) -> Iterator[ast.expr]:
    """Flatten ``except (A, B)`` tuples into individual name nodes."""
    if expr is None:
        return
    if isinstance(expr, ast.Tuple):
        yield from expr.elts
    else:
        yield expr


@register
class BroadExceptRule(Rule):
    rule_id = "FLT001"
    summary = (
        "failure-path modules must catch typed repro errors, "
        "not bare/broad Exception handlers"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx.path):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "bare `except:` on the failure path — catch a typed "
                    "error from repro.errors so failover logic can tell "
                    "fault-plane failures from bugs",
                )
                continue
            for name in _names(node.type):
                if isinstance(name, ast.Name) and name.id in (
                    "Exception",
                    "BaseException",
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"`except {name.id}` on the failure path — catch a "
                        "typed error from repro.errors so failover logic "
                        "can tell fault-plane failures from bugs",
                    )
