"""Rule modules — importing this package registers every rule."""

from __future__ import annotations

from repro.lint.rules import (
    cost001,
    det001,
    det002,
    dma001,
    flt001,
    hw001,
    obs001,
    sched001,
    time001,
    unit001,
    wram001,
)

__all__ = [
    "cost001",
    "det001",
    "det002",
    "dma001",
    "flt001",
    "hw001",
    "obs001",
    "sched001",
    "time001",
    "unit001",
    "wram001",
]
