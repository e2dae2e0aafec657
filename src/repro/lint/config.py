"""``[tool.simlint]`` configuration loaded from pyproject.toml."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11; gracefully degrade to defaults on 3.10.
    import tomllib
except ImportError:  # pragma: no cover - depends on interpreter
    tomllib = None  # type: ignore[assignment]

#: Modules allowed to spell hardware magic constants literally — the
#: canonical definition sites.  Matched as path suffixes.
DEFAULT_HW_ALLOWED = ("hardware/specs.py", "hardware/mram.py")

#: Path fragments under the determinism contract (DET001/DET002): the
#: simulator core plus everything whose output feeds a timeline or
#: ledger.  ``cli.py`` is deliberately absent.
DEFAULT_DET_SCOPED = (
    "repro/sim/",
    "repro/core/",
    "repro/hardware/",
    "repro/faults.py",
    "repro/data/",
    "repro/workload/",
)

#: Variable names that conventionally hold *sets* of resources/DPU ids
#: in this codebase; iterating them unsorted is a DET002 finding even
#: where the static type is unknown.
DEFAULT_DET_SET_NAMES = (
    "dead",
    "dead_units",
    "exclude_dpus",
    "rerouted_clusters",
)

#: Path fragments allowed to construct ``Span`` objects or append to a
#: timeline's span list directly (SCHED001); everything else must go
#: through ``BatchSchedule.record*``.
DEFAULT_SCHED_ALLOWED = ("repro/sim/",)

@dataclass
class SimlintConfig:
    """Resolved configuration for one lint run."""

    paths: list[str] = field(default_factory=list)
    select: list[str] = field(default_factory=list)
    ignore: list[str] = field(default_factory=list)
    exclude: list[str] = field(default_factory=list)
    hw_allowed_modules: tuple[str, ...] = DEFAULT_HW_ALLOWED
    wram_capacity: int | None = None  # None = DpuSpec().wram_bytes
    det_scoped_paths: tuple[str, ...] = DEFAULT_DET_SCOPED
    det_set_names: tuple[str, ...] = DEFAULT_DET_SET_NAMES
    sched_allowed_paths: tuple[str, ...] = DEFAULT_SCHED_ALLOWED

    def is_hw_definition_site(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return normalized.endswith(self.hw_allowed_modules)

    def in_det_scope(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return any(fragment in normalized for fragment in self.det_scoped_paths)

    def is_sched_recorder_site(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return any(
            fragment in normalized for fragment in self.sched_allowed_paths
        )


def find_pyproject(start: Path) -> Path | None:
    """Walk upward from ``start`` looking for a pyproject.toml."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Path | None = None) -> SimlintConfig:
    """Load ``[tool.simlint]`` from the nearest pyproject.toml.

    Missing file, missing table or a 3.10 interpreter without tomllib
    all fall back to defaults — configuration is strictly optional.
    """
    config = SimlintConfig()
    if tomllib is None:
        return config
    pyproject = find_pyproject(start if start is not None else Path.cwd())
    if pyproject is None:
        return config
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return config
    table = data.get("tool", {}).get("simlint", {})
    if not isinstance(table, dict):
        return config
    config.paths = [str(p) for p in table.get("paths", [])]
    config.select = [str(r) for r in table.get("select", [])]
    config.ignore = [str(r) for r in table.get("ignore", [])]
    config.exclude = [str(p) for p in table.get("exclude", [])]
    allowed = table.get("hw-allowed-modules")
    if allowed:
        config.hw_allowed_modules = tuple(str(m) for m in allowed)
    capacity = table.get("wram-capacity")
    if isinstance(capacity, int) and not isinstance(capacity, bool):
        config.wram_capacity = capacity
    det_paths = table.get("det-scoped-paths")
    if det_paths:
        config.det_scoped_paths = tuple(str(p) for p in det_paths)
    det_names = table.get("det-set-names")
    if det_names:
        config.det_set_names = tuple(str(n) for n in det_names)
    sched_paths = table.get("sched-allowed-paths")
    if sched_paths:
        config.sched_allowed_paths = tuple(str(p) for p in sched_paths)
    return config
