"""OBS001 — library code must not ``print()``; use the structured logger.

The telemetry layer gives every module a levelled, deterministic,
stderr-bound logger (``repro.telemetry.log.get_logger``).  A raw
``print()`` inside ``src/repro`` bypasses the ``--verbose``/``--quiet``
controls, lands on stdout where it corrupts machine-readable output
(``metrics --json`` records, Chrome traces piped to files), and cannot
be filtered by level.

Exempt by basename: ``cli.py`` (its stdout *is* the user-facing result
surface) and ``__main__.py`` entry shims.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Files whose stdout is the product, not diagnostics.
_EXEMPT_BASENAMES = ("cli.py", "__main__.py")


def _exempt(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.rsplit("/", 1)[-1] in _EXEMPT_BASENAMES


@register
class PrintCallRule(Rule):
    rule_id = "OBS001"
    summary = (
        "library modules must log through repro.telemetry.log, "
        "not raw print() calls"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _exempt(ctx.path):
            return
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "raw print() in library code — route diagnostics through "
                    "repro.telemetry.log.get_logger() so they are levelled, "
                    "stderr-bound and controllable via --verbose/--quiet",
                )
