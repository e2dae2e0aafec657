"""DMA001 — DMA chunk sizes must be derived, not spelled as literals.

Every MRAM<->WRAM transfer in the simulator flows through a ``chunk``
argument (``charge_mram_read/write``, ``bulk_transfer_cycles``,
``transactions_for``).  UPMEM hardware only accepts 8-byte-aligned
transfers in [8, 2048]; the blessed way to obtain a chunk size is
``round_up_dma()`` or a named constant such as ``MAX_DMA_BYTES``.  A
literal chunk bypasses that validation path — and even a *currently*
legal literal is a latent bug, because nothing re-checks it when the
payload geometry changes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.evaluate import fold_literal
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_CHUNK_METHODS = frozenset(
    {"charge_mram_read", "charge_mram_write", "bulk_transfer_cycles",
     "transactions_for"}
)


def _chunk_argument(call: ast.Call) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == "chunk_bytes":
            return kw.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


@register
class DmaChunkRule(Rule):
    rule_id = "DMA001"
    summary = (
        "DMA chunk sizes passed to charge_mram_read/write must come from "
        "round_up_dma() or a named DMA constant, never a literal"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.hardware.mram import DMA_ALIGN, MAX_DMA_BYTES, MIN_DMA_BYTES

        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr in _CHUNK_METHODS):
                continue
            chunk = _chunk_argument(node)
            if chunk is None:
                continue
            folded = fold_literal(chunk)
            if folded is None:
                continue
            message = (
                f"literal DMA chunk size {folded!r} passed to {func.attr}(); "
                "derive it with round_up_dma() or import a named constant "
                "from repro.hardware.mram"
            )
            size = int(folded)
            if (
                folded != size
                or size < MIN_DMA_BYTES
                or size > MAX_DMA_BYTES
                or size % DMA_ALIGN != 0
            ):
                message += (
                    f" — and {folded!r} is not even a legal DMA size "
                    f"({DMA_ALIGN}-byte aligned in "
                    f"[{MIN_DMA_BYTES}, {MAX_DMA_BYTES}])"
                )
            yield ctx.finding(self.rule_id, chunk, message)
