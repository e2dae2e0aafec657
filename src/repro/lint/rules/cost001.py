"""COST001 — instruction charges must be converted into time.

``DPU.charge_instructions`` only increments an event counter; it adds no
cycles.  Every kernel that charges instructions must also charge the
time those instructions take via ``pipeline.compute_cycles`` (or fold
the whole ledger with ``elapsed_cycles``) *in the same function* —
otherwise the work is counted but free, and the stage breakdown the
paper's figures are built from silently loses a term.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_CHARGE = "charge_instructions"
_DISCHARGERS = frozenset({"compute_cycles", "elapsed_cycles", "elapsed_seconds"})

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


def _own_calls(func: _FunctionNode) -> Iterator[ast.Call]:
    """Calls in ``func``'s body, excluding nested function bodies."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested scope owns its own pairing obligation
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class CostPairingRule(Rule):
    rule_id = "COST001"
    summary = (
        "charge_instructions must be paired with a pipeline.compute_cycles "
        "charge in the same function"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            charges: list[ast.Call] = []
            discharged = False
            for call in _own_calls(node):
                if isinstance(call.func, ast.Attribute):
                    if call.func.attr == _CHARGE:
                        charges.append(call)
                    elif call.func.attr in _DISCHARGERS:
                        discharged = True
            if discharged:
                continue
            for call in charges:
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"{_CHARGE}() in {node.name}() has no matching "
                    "pipeline.compute_cycles charge in the same function — "
                    "instructions are counted but cost no time",
                )
