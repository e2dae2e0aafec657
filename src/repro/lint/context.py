"""Per-file analysis context shared by every rule.

A :class:`FileContext` is built once per file: parsed tree, its node
list (walked once), suppression table (``# simlint: ignore[...]``
comments), and a symbol table of module-level constants folded together
with the canonical hardware symbols — so rules never re-derive any of
it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property

from repro.lint.config import SimlintConfig
from repro.lint.evaluate import Num, fold_symbolic
from repro.lint.findings import Finding

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")

#: Canonical hardware symbols rules may resolve by name.  Built from the
#: live spec modules so the linter never duplicates a magic constant.
def hardware_symbols() -> dict[str, Num]:
    from repro.hardware import mram, specs, wram

    dpu = specs.DpuSpec()
    return {
        "MIN_DMA_BYTES": mram.MIN_DMA_BYTES,
        "MAX_DMA_BYTES": mram.MAX_DMA_BYTES,
        "DMA_ALIGN": mram.DMA_ALIGN,
        "WRAM_ALIGN": wram.WRAM_ALIGN,
        "DEFAULT_N_TASKLETS": specs.DEFAULT_N_TASKLETS,
        "KiB": specs.KiB,
        "MiB": specs.MiB,
        "GiB": specs.GiB,
        "GB": specs.GB,
        "WRAM_BYTES": dpu.wram_bytes,
        "MRAM_BYTES": dpu.mram_bytes,
    }


@dataclass
class FileContext:
    """Everything a rule needs to analyze one source file."""

    path: str
    source: str
    tree: ast.Module
    #: line -> suppressed rule ids; empty frozenset = every rule.
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: module-level names with statically known numeric values.
    constants: dict[str, Num] = field(default_factory=dict)
    config: SimlintConfig = field(default_factory=SimlintConfig)
    skip_file: bool = False

    @classmethod
    def build(
        cls, source: str, path: str, config: SimlintConfig | None = None
    ) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree)
        if config is not None:
            ctx.config = config
        ctx._scan_suppressions()
        ctx._fold_module_constants()
        return ctx

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """Every node of the tree in :func:`ast.walk` order, walked once
        and shared by the rules."""
        return tuple(ast.walk(self.tree))

    def _scan_suppressions(self) -> None:
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            if lineno <= 5 and _SKIP_FILE_RE.search(line):
                self.skip_file = True
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group(1)
            if rules is None:
                self.suppressions[lineno] = frozenset()
            else:
                ids = frozenset(r.strip().upper() for r in rules.split(",") if r.strip())
                self.suppressions[lineno] = self.suppressions.get(lineno, ids) | ids

    def _fold_module_constants(self) -> None:
        table: dict[str, Num] = dict(hardware_symbols())
        for stmt in self.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            folded = fold_symbolic(value, table)
            if folded is not None:
                table[target.id] = folded
                self.constants[target.id] = folded

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if rules is None:
            return False
        return not rules or finding.rule_id.upper() in rules

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )
