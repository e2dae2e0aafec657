"""DET002 — don't iterate sets where the order can reach a timeline.

``set`` iteration order in CPython depends on insertion history and hash
randomization of the element type; two runs of the same config can visit
DPU ids in different orders, and any loop that appends spans, charges a
ledger or emits rows in that order produces a different-but-"valid"
timeline each run.  The convention in this codebase is ``for u in
sorted(the_set)`` everywhere order is observable.

This rule flags, inside the determinism scope (``det-scoped-paths``):

* ``for``-loops and comprehensions iterating directly over a set
  display, a ``set(...)``/``frozenset(...)`` call, or a set union /
  intersection / difference expression;
* iteration over names (or attributes) from ``det-set-names`` — the
  codebase's conventional set-valued fault registries (``dead_units``,
  ``exclude_dpus``, ...) whose static type the linter cannot see.

Wrapping the iterable in ``sorted(...)`` (or any other call) is the fix
and silences the rule by construction.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Binary set operators whose result is a set when operands are sets.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Set-returning method names on set objects.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_set_expr(node: ast.expr, set_names: tuple[str, ...]) -> str | None:
    """Describe why ``node`` is set-valued, or None if it is not."""
    if isinstance(node, ast.Set):
        return "a set display"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}(...) call"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set_expr(func.value, set_names) is not None
        ):
            return f"a set .{func.attr}(...) result"
        return None
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"the set-valued name {node.id!r}"
    if isinstance(node, ast.Attribute) and node.attr in set_names:
        return f"the set-valued attribute .{node.attr}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        left = _is_set_expr(node.left, set_names)
        right = _is_set_expr(node.right, set_names)
        if left is not None or right is not None:
            return "a set-operator expression"
    return None


@register
class SetIterationRule(Rule):
    rule_id = "DET002"
    summary = (
        "simulator-scope loops must not iterate unsorted sets of "
        "resources/DPU ids"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.in_det_scope(ctx.path):
            return
        set_names = ctx.config.det_set_names
        for node in ctx.nodes:
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                why = _is_set_expr(it, set_names)
                if why is not None:
                    yield ctx.finding(
                        self.rule_id,
                        it,
                        f"iterating {why} — set order is nondeterministic; "
                        "wrap the iterable in sorted(...) so the visit order "
                        "(and any spans/ledgers it feeds) replays identically",
                    )
