"""DET001 — no wall-clock or unseeded randomness in the simulator core.

The simulator's whole value is that the same config and seed reproduce
the same timeline bit-for-bit (the golden-equivalence suite pins
``float.hex`` timings).  One ``time.time()`` or unseeded RNG call inside
the modeled path silently turns a deterministic model into a flaky one.
This rule bans, inside the determinism scope (``det-scoped-paths`` in
``[tool.simlint]``):

* ``numpy.random.default_rng()`` / ``RandomState()`` with no seed
  argument — entropy-seeded generators;
* the legacy numpy global-RNG surface (``np.random.rand`` et al.),
  seeded or not — global RNG state is shared mutable state;
* the stdlib ``random`` module's module-level functions (``random.Random(seed)``
  instances are fine);
* wall-clock reads: ``time.time``/``time_ns``/``perf_counter``/
  ``monotonic`` (+ ``_ns`` variants), ``datetime.now``/``utcnow``/
  ``today``.

``repro/perf.py`` (real microbenchmarks) and ``cli.py`` are outside the
default scope by design.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Legacy numpy global-RNG entry points (module-level, shared state).
_NP_GLOBAL_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "seed",
        "bytes",
    }
)

#: ``time`` module functions that read a real clock.
_WALL_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``datetime``-family constructors that embed "now".
_DATETIME_NOW_FNS = frozenset({"now", "utcnow", "today"})


def _import_aliases(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Local name -> fully qualified module/object path for imports."""
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _dotted_name(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve a call target to a dotted path through the import table."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _has_seed_argument(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg in ("seed", "rng") or kw.arg is None for kw in call.keywords)


@register
class DeterminismRule(Rule):
    rule_id = "DET001"
    summary = (
        "simulator-scope modules must not read wall clocks or unseeded "
        "global RNGs"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.in_det_scope(ctx.path):
            return
        aliases = _import_aliases(ctx.nodes)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            full = _dotted_name(node.func, aliases)
            if full is None:
                continue
            finding = self._classify(full, node)
            if finding is not None:
                yield ctx.finding(self.rule_id, node, finding)

    def _classify(self, full: str, call: ast.Call) -> str | None:
        leaf = full.rsplit(".", 1)[-1]
        if full in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not _has_seed_argument(call):
                return (
                    f"{leaf}() without a seed draws OS entropy — thread the "
                    "run seed through (e.g. default_rng(seed)) so timelines "
                    "replay bit-for-bit"
                )
            return None
        if full.startswith("numpy.random.") and leaf in _NP_GLOBAL_FNS:
            return (
                f"numpy.random.{leaf}() uses the shared global RNG — use a "
                "seeded numpy.random.default_rng(seed) generator instead"
            )
        if full == "random" or (
            full.startswith("random.") and leaf[:1].islower()
        ):
            return (
                f"stdlib random.{leaf}() uses hidden global state — use a "
                "seeded random.Random(seed) or numpy default_rng(seed)"
            )
        if full.startswith("time.") and leaf in _WALL_CLOCK_FNS:
            return (
                f"time.{leaf}() reads a real clock inside the simulator "
                "scope — modeled time must come from the cost model / "
                "schedule, never the host clock"
            )
        if leaf in _DATETIME_NOW_FNS and (
            full.startswith("datetime.") or ".datetime." in full or ".date." in full
        ):
            return (
                f"{leaf}() embeds wall-clock 'now' inside the simulator "
                "scope — pass timestamps in explicitly"
            )
        return None
