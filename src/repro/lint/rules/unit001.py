"""UNIT001 — unit-suffixed quantities must not mix in +/- arithmetic.

The codebase's naming convention carries units in identifier suffixes
(``_bytes``, ``_cycles``, ``_s``, ``_us``, ``_hz``, ``_w``, and rate
forms like ``_bytes_per_s``).  Adding or subtracting two quantities of
*different* units is a dimensional error — the classic simulator bug of
adding cycles to bytes — while multiplying/dividing is how units legally
convert, so only ``+``/``-`` (including ``+=``/``-=`` and comparisons)
between two recognizably-united simple operands are checked.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_UNIT_TOKENS = frozenset(
    {"bytes", "cycles", "s", "us", "ns", "ms", "hz", "w", "usd"}
)


def unit_of(name: str) -> str | None:
    """Extract the unit suffix of an identifier, or None.

    ``setup_cycles`` -> ``cycles``; ``bandwidth_bytes_per_s`` ->
    ``bytes_per_s``; ``offset`` -> None.  A trailing ``per`` run with no
    unit on its left is treated as unclassifiable.
    """
    tokens = name.lower().strip("_").split("_")
    run: list[str] = []
    for token in reversed(tokens):
        if token in _UNIT_TOKENS or token == "per":
            run.insert(0, token)
        else:
            break
    while run and run[0] == "per":
        run.pop(0)
    if not run or all(t == "per" for t in run):
        return None
    if len(run) == len(tokens):
        return None  # the whole name is a unit ("s", "bytes") — no signal
    return "_".join(run)


def _operand_unit(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return unit_of(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of(node.attr)
    return None


@register
class UnitMixRule(Rule):
    rule_id = "UNIT001"
    summary = (
        "quantities with different unit suffixes must not be added, "
        "subtracted or compared without an explicit conversion"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(ctx, node, node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(ctx, node, node.target, node.value)
            elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
                yield from self._check_pair(
                    ctx, node, node.left, node.comparators[0]
                )

    def _check_pair(
        self, ctx: FileContext, node: ast.AST, left: ast.expr, right: ast.expr
    ) -> Iterator[Finding]:
        left_unit = _operand_unit(left)
        right_unit = _operand_unit(right)
        if left_unit is None or right_unit is None or left_unit == right_unit:
            return
        yield ctx.finding(
            self.rule_id,
            node,
            f"mixing units without conversion: "
            f"{ast.unparse(left)} [{left_unit}] vs "
            f"{ast.unparse(right)} [{right_unit}]",
        )
