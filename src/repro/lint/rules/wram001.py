"""WRAM001 — statically prove declared WRAM layouts fit and never overlap.

UPMEM DPUs address their 64 KB WRAM physically, with no MMU to catch a
bad layout at runtime (paper challenge 2).  The dynamic checks in
:mod:`repro.hardware.wram` catch violations *when a kernel runs*; this
rule proves them *before* anything runs, from the source alone:

* **declared layouts** — module-level ``*WRAM_LAYOUT*`` constants of the
  form ``(("phase", (("region", SIZE), ...)), ...)`` (an optional third
  element fixes a region's physical offset).  Sizes are const-evaluated
  from module constants and the canonical hardware symbols; each phase
  is packed with the same 8-byte-aligned first-fit the real allocator
  uses and must fit in ``DpuSpec.wram_bytes``; a region appearing in
  several phases must keep one size (it survives in place, Figure 6);
* **alloc/free sequences** — straight-line functions whose
  ``allocator.alloc(name, size)`` / ``allocator.free(name)`` calls all
  have statically evaluable arguments are replayed against a real
  :class:`~repro.hardware.wram.WramAllocator`, so double-alloc,
  double-free and capacity overflow are compile-time findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.evaluate import Num, fold_symbolic
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Simulated allocation event: ("alloc", name, size) or ("free", name, 0).
Event = tuple[str, str, int]


def _wram_capacity(configured: int | None) -> int:
    if configured is not None:
        return configured
    from repro.hardware.specs import DpuSpec

    return DpuSpec().wram_bytes


def simulate_events(events: list[Event], capacity: int) -> list[str]:
    """Replay alloc/free events on a real allocator; return problems.

    This is the shared engine behind the static rule and the history-log
    tests: the same first-fit semantics the runtime uses decide whether
    a statically-declared sequence can ever fit.
    """
    from repro.errors import WramOverflowError
    from repro.hardware.wram import WramAllocator

    allocator = WramAllocator(capacity=capacity)
    problems: list[str] = []
    for op, name, size in events:
        try:
            if op == "alloc":
                allocator.alloc(name, size)
            elif op == "free":
                allocator.free(name)
            else:
                problems.append(f"unknown WRAM event {op!r}")
        except WramOverflowError as exc:
            problems.append(str(exc))
    return problems


@register
class WramLayoutRule(Rule):
    rule_id = "WRAM001"
    summary = (
        "declared WRAM layouts must fit DpuSpec.wram_bytes with no two "
        "simultaneously-live regions overlapping"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        capacity = _wram_capacity(ctx.config.wram_capacity)
        names = dict(ctx.constants)
        from repro.lint.context import hardware_symbols

        names.update({k: v for k, v in hardware_symbols().items() if k not in names})

        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and "WRAM_LAYOUT" in target.id:
                    yield from self._check_layout(
                        ctx, target.id, stmt.value, names, capacity
                    )
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_alloc_sequence(ctx, node, names, capacity)

    # --- declared layout constants -------------------------------------

    def _check_layout(
        self,
        ctx: FileContext,
        layout_name: str,
        node: ast.expr,
        names: dict[str, Num],
        capacity: int,
    ) -> Iterator[Finding]:
        phases = self._eval_layout(node, names)
        if phases is None:
            yield ctx.finding(
                self.rule_id,
                node,
                f"{layout_name} is not statically evaluable — a WRAM layout "
                "must be a tuple of (phase, ((region, size[, offset]), ...)) "
                "with const-foldable sizes, or it proves nothing",
            )
            return
        sizes_seen: dict[str, int] = {}
        for phase, regions in phases:
            yield from self._check_phase(
                ctx, node, layout_name, phase, regions, capacity
            )
            for region, size, _offset in regions:
                previous = sizes_seen.setdefault(region, size)
                if previous != size:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{layout_name}: region {region!r} changes size "
                        f"across phases ({previous} B vs {size} B) — a "
                        "surviving region must keep its footprint",
                    )

    def _check_phase(
        self,
        ctx: FileContext,
        node: ast.expr,
        layout_name: str,
        phase: str,
        regions: list[tuple[str, int, int | None]],
        capacity: int,
    ) -> Iterator[Finding]:
        from repro.hardware.wram import WRAM_ALIGN, WramRegion

        def aligned(size: int) -> int:
            return (size + WRAM_ALIGN - 1) // WRAM_ALIGN * WRAM_ALIGN

        seen: set[str] = set()
        placed: list[WramRegion] = []
        for name, size, offset in regions:
            where = f"{layout_name} phase {phase!r}"
            if name in seen:
                yield ctx.finding(
                    self.rule_id, node, f"{where}: duplicate region {name!r}"
                )
                continue
            seen.add(name)
            if size <= 0:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{where}: region {name!r} has non-positive size {size}",
                )
                continue
            size = aligned(size)
            if offset is not None and offset % WRAM_ALIGN != 0:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{where}: region {name!r} offset {offset} is not "
                    f"{WRAM_ALIGN}-byte aligned",
                )
                continue
            if offset is None:
                offset = self._first_fit(placed, size, capacity)
                if offset is None:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{where}: region {name!r} ({size} B) does not fit — "
                        f"{sum(r.size for r in placed)} B of {capacity} B "
                        "already live",
                    )
                    continue
            region = WramRegion(name, offset, size)
            for other in placed:
                if region.overlaps(other):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{where}: regions {name!r} and {other.name!r} overlap "
                        f"([{region.offset}, {region.end}) vs "
                        f"[{other.offset}, {other.end}))",
                    )
            if region.end > capacity:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{where}: region {name!r} ends at {region.end} B, past "
                    f"the {capacity} B WRAM capacity",
                )
            placed.append(region)

    @staticmethod
    def _first_fit(placed: list, size: int, capacity: int) -> int | None:
        cursor = 0
        for region in sorted(placed, key=lambda r: r.offset):
            if region.offset - cursor >= size:
                return cursor
            cursor = max(cursor, region.end)
        if capacity - cursor >= size:
            return cursor
        return None

    def _eval_layout(
        self, node: ast.expr, names: dict[str, Num]
    ) -> list[tuple[str, list[tuple[str, int, int | None]]]] | None:
        if not isinstance(node, (ast.Tuple, ast.List)):
            return None
        phases: list[tuple[str, list[tuple[str, int, int | None]]]] = []
        for element in node.elts:
            if not isinstance(element, (ast.Tuple, ast.List)):
                return None
            if len(element.elts) != 2:
                return None
            phase_node, regions_node = element.elts
            if not (
                isinstance(phase_node, ast.Constant)
                and isinstance(phase_node.value, str)
            ):
                return None
            if not isinstance(regions_node, (ast.Tuple, ast.List)):
                return None
            regions: list[tuple[str, int, int | None]] = []
            for region_node in regions_node.elts:
                if not isinstance(region_node, (ast.Tuple, ast.List)):
                    return None
                elts = region_node.elts
                if len(elts) not in (2, 3):
                    return None
                name_node = elts[0]
                if not (
                    isinstance(name_node, ast.Constant)
                    and isinstance(name_node.value, str)
                ):
                    return None
                size = fold_symbolic(elts[1], names)
                if size is None or size != int(size):
                    return None
                offset: int | None = None
                if len(elts) == 3:
                    folded = fold_symbolic(elts[2], names)
                    if folded is None or folded != int(folded):
                        return None
                    offset = int(folded)
                regions.append((name_node.value, int(size), offset))
            phases.append((phase_node.value, regions))
        return phases

    # --- straight-line alloc/free sequences -----------------------------

    @staticmethod
    def _is_wram_receiver(node: ast.expr) -> bool:
        """True when the call receiver looks like a WRAM allocator."""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        lowered = name.lower()
        return "wram" in lowered or "alloc" in lowered

    def _check_alloc_sequence(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        names: dict[str, Num],
        capacity: int,
    ) -> Iterator[Finding]:
        events: list[tuple[ast.Call, Event]] = []
        for stmt in func.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.For, ast.While, ast.If,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                    return  # control flow: leave it to the dynamic checks
                if not isinstance(node, ast.Call):
                    continue
                call_func = node.func
                if not (
                    isinstance(call_func, ast.Attribute)
                    and call_func.attr in ("alloc", "free")
                    and self._is_wram_receiver(call_func.value)
                ):
                    continue
                if not node.args or not (
                    isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    return
                region = node.args[0].value
                if call_func.attr == "free":
                    events.append((node, ("free", region, 0)))
                    continue
                if len(node.args) < 2:
                    return
                size = fold_symbolic(node.args[1], names)
                if size is None or size != int(size):
                    return  # dynamic size: not statically provable
                events.append((node, ("alloc", region, int(size))))
        if not events:
            return
        for problem in simulate_events([event for _, event in events], capacity):
            yield ctx.finding(
                self.rule_id,
                events[0][0],
                f"static replay of {func.name}()'s WRAM plan fails: {problem}",
            )
