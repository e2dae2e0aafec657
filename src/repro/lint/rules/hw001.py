"""HW001 — hardware magic constants must come from the spec modules.

The UPMEM invariants (2048 B max DMA, 64 KiB WRAM, 64 MiB MRAM, 350 MHz,
24 tasklets, ...) have exactly one definition site each:
``repro/hardware/specs.py`` and ``repro/hardware/mram.py``.  A literal
``2048`` or ``64 * 1024`` anywhere else is a silently-drifting copy: if
a spec changes, the copy does not, and every figure the cost model
produces is corrupted without a test failing.

Two sub-checks:

* **value check** — any literal (or literal arithmetic folding to) one
  of the canonical big constants, anywhere outside the spec modules;
* **context check** — the small pipeline constants (11, 14, 24) are too
  common to flag bare, so they are flagged only when bound to a name
  that marks them as hardware-meaning: assignments, annotated defaults
  or keyword arguments whose name mentions a tasklet/pipeline concept.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.evaluate import fold_literal
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_CONTEXT_NAME_PARTS = ("tasklet", "pipeline", "reissue")


def _value_table() -> dict[float, str]:
    """Canonical constant -> symbol to import, built from the live specs."""
    from repro.hardware import mram, specs

    dpu = specs.DpuSpec()
    pim = specs.PimSystemSpec()
    return {
        float(mram.MAX_DMA_BYTES): "repro.hardware.mram.MAX_DMA_BYTES",
        float(dpu.wram_bytes): "DpuSpec.wram_bytes (repro.hardware.specs)",
        float(dpu.mram_bytes): "DpuSpec.mram_bytes (repro.hardware.specs)",
        float(dpu.iram_bytes): "DpuSpec.iram_bytes (repro.hardware.specs)",
        float(dpu.frequency_hz): "DpuSpec.frequency_hz (repro.hardware.specs)",
        float(pim.n_dpus): "PimSystemSpec.n_dpus (repro.hardware.specs)",
        float(pim.dimm_peak_power_w): (
            "PimSystemSpec.dimm_peak_power_w (repro.hardware.specs)"
        ),
    }


def _context_table() -> dict[float, str]:
    from repro.hardware import specs

    dpu = specs.DpuSpec()
    return {
        float(dpu.pipeline_reissue_cycles): (
            "DpuSpec.pipeline_reissue_cycles / DEFAULT_N_TASKLETS "
            "(repro.hardware.specs)"
        ),
        float(dpu.pipeline_stages): "DpuSpec.pipeline_stages (repro.hardware.specs)",
        float(dpu.max_tasklets): "DpuSpec.max_tasklets (repro.hardware.specs)",
    }


def _is_hw_context_name(name: str) -> bool:
    lowered = name.lower()
    return any(part in lowered for part in _CONTEXT_NAME_PARTS)


@register
class HardwareConstantRule(Rule):
    rule_id = "HW001"
    summary = (
        "hardware magic constants must be imported from "
        "repro.hardware.specs / repro.hardware.mram, not re-declared"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.is_hw_definition_site(ctx.path):
            return
        values = _value_table()
        contexts = _context_table()
        yield from self._check_values(ctx, ctx.tree, values)
        yield from self._check_contexts(ctx, contexts)

    # --- value check ---------------------------------------------------

    def _check_values(
        self, ctx: FileContext, node: ast.AST, values: dict[float, str]
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                folded = fold_literal(child)
                if folded is not None:
                    symbol = values.get(float(folded))
                    if symbol is not None:
                        yield ctx.finding(
                            self.rule_id,
                            child,
                            f"hardware constant {folded!r} re-declared; "
                            f"import {symbol} instead",
                        )
                        continue  # don't flag the pieces again
            yield from self._check_values(ctx, child, values)

    # --- context check -------------------------------------------------

    def _check_contexts(
        self, ctx: FileContext, contexts: dict[float, str]
    ) -> Iterator[Finding]:
        for node in ctx.nodes:
            for name, value in self._bindings(node):
                folded = fold_literal(value)
                if folded is None or not _is_hw_context_name(name):
                    continue
                symbol = contexts.get(float(folded))
                if symbol is not None:
                    yield ctx.finding(
                        self.rule_id,
                        value,
                        f"pipeline constant {folded!r} bound to {name!r}; "
                        f"derive it from {symbol} instead",
                    )

    @staticmethod
    def _bindings(node: ast.AST) -> Iterator[tuple[str, ast.expr]]:
        """(name, value-expr) pairs for every name-binding construct."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value
                elif isinstance(target, ast.Attribute):
                    yield target.attr, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                yield node.target.id, node.value
            elif isinstance(node.target, ast.Attribute):
                yield node.target.attr, node.value
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg is not None:
                    yield kw.arg, kw.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                    args.defaults):
                yield arg.arg, default
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is not None:
                    yield arg.arg, kw_default
