"""Outside-in per-layer tracer: timing wrappers installed at call sites.

The program carries no instrumentation of its own, so the traced run
replaces each layer's public function *at the name its caller looks up*
(``repro.core.engine.schedule_batch``, not
``repro.core.scheduling.schedule_batch``) with a wrapper that opens a
span, calls the original and closes the span.  Spans nest on one stack,
so a layer's self time is its span minus the spans of its direct
children.

Targets are resolved by dotted path at install time.  A path that no
longer resolves (the program was refactored) is recorded as missing and
its layer is reported as ``null`` with a warning; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: its layer and dotted path.

    ``count`` optionally turns a call's ``(args, kwargs, result)`` into
    a work count added to the layer's ``work`` total.
    """

    layer: str
    path: str
    count: Callable[[tuple, dict, object], int] | None = None


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    work: int = 0


def _lut_tables(args: tuple, kwargs: dict, _result: object) -> int:
    probe_ids = kwargs["probe_ids"] if "probe_ids" in kwargs else args[3]
    return len(probe_ids)


def _spans(_args: tuple, _kwargs: dict, schedule: object) -> int:
    return sum(len(tl.spans) for tl in schedule.timelines.values())


#: Layers wrapped while timed units run.  Their roots are the two entry
#: points a user calls: ``core.engine`` and ``serving.frontend``.
TIMED_TARGETS: tuple[Target, ...] = (
    Target("core.engine", "repro.core.engine.UpANNSEngine.search_batch"),
    Target("core.engine.refresh", "repro.core.engine.UpANNSEngine.refresh_placement"),
    Target("core.kernel", "repro.core.kernel.compute_groups_functional"),
    Target("core.kernel.gather", "repro.core.kernel.compute_pair_distances"),
    Target("core.topk", "repro.core.kernel.scan_topk_fast_batch_flat"),
    Target("core.kernel.replay", "repro.core.kernel.replay_batch_charges"),
    Target("ivfpq.lut", "repro.ivfpq.lut.build_luts_for_probes", count=_lut_tables),
    Target("core.encoding.flat_table", "repro.core.engine.build_flat_table"),
    Target("core.lut_cache", "repro.core.lut_cache.LutCache.get_many"),
    Target("core.lut_cache", "repro.core.lut_cache.LutCache.put"),
    Target("core.scheduling", "repro.core.engine.schedule_batch"),
    Target("ivfpq.ivf", "repro.ivfpq.ivf.InvertedFile.search_clusters"),
    Target("workload.trace", "repro.workload.trace.AccessTrace.record_batch"),
    Target("hardware.rank", "repro.hardware.rank.PimSystem.work_broadcast"),
    Target("hardware.rank", "repro.hardware.rank.PimSystem.work_transfer"),
    Target("hardware.rank", "repro.hardware.rank.PimSystem.work_gather"),
    Target("sim.events.emit", "repro.sim.events.BatchWork.work_dpu_stages"),
    Target("sim.events.execute", "repro.sim.events.BatchWork.execute", count=_spans),
    Target("sim.events.stream", "repro.serving.frontend.execute_stream", count=_spans),
    Target("ivfpq.adc", "repro.core.engine.topk_from_distances"),
    Target("metrics.breakdown", "repro.core.engine.stage_seconds_from_schedule"),
    Target("telemetry.pipeline", "repro.core.engine.observe_batch"),
    Target("telemetry.pipeline", "repro.core.service.observe_query_latencies"),
    Target("sanitize.hook", "repro.core.engine.debug_sanitize_schedule"),
    Target("sanitize.hook", "repro.serving.frontend.debug_sanitize_schedule"),
    Target("core.service", "repro.core.service.OnlineService.submit"),
    Target("serving.frontend", "repro.serving.frontend.ServingFrontend.run"),
    Target("serving.admission", "repro.serving.admission.AdmissionPolicy.decide"),
    Target("serving.coalescer", "repro.serving.coalescer.BatchCoalescer.enqueue"),
    Target("serving.coalescer", "repro.serving.coalescer.BatchCoalescer.drain"),
    Target("serving.coalescer", "repro.serving.coalescer.BatchCoalescer.expire"),
)

#: Layers wrapped while the engine is built (the ``setup_s`` metric).
#: They are not wrapped in the timed phase, so a placement refresh there
#: counts as ``core.engine.refresh`` self time.
SETUP_TARGETS: tuple[Target, ...] = (
    Target("setup", "repro.core.engine.UpANNSEngine.build"),
    Target("ivfpq.index.train", "repro.ivfpq.index.IVFPQIndex.train"),
    Target("ivfpq.index.add", "repro.ivfpq.index.IVFPQIndex.add"),
    Target("core.cooccurrence", "repro.core.engine.mine_combinations"),
    Target("core.encoding.encode", "repro.core.engine.encode_cluster"),
    Target("core.placement", "repro.core.engine.place_clusters"),
    Target("core.memory_plan", "repro.core.engine.plan_wram"),
)


def resolve(path: str) -> tuple[object, str]:
    """(owner, attribute name) for a dotted path such as
    ``pkg.module.Class.method``; raises LookupError when it is gone."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"no importable module in {path!r}")
    try:
        for attr in parts[split:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
    except AttributeError as exc:
        raise LookupError(f"{path!r}: {exc}") from None
    return owner, parts[-1]


class Tracer:
    """Span stack plus per-layer self time, call and work counts."""

    def __init__(
        self,
        targets: tuple[Target, ...],
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.targets = targets
        self.clock = clock
        self.layers = tuple(dict.fromkeys(t.layer for t in targets))
        self.stats = {layer: LayerStats() for layer in self.layers}
        #: layer -> dotted paths that did not resolve at the last install.
        self.missing: dict[str, list[str]] = {}
        #: Total and self time of spans opened with an empty stack.
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._stack: list[list] = []  # [layer, start, child seconds]
        self._installed: list[tuple[object, str, object, bool]] = []

    # --- Spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        span = self.clock() - start
        st = self.stats[layer]
        st.self_s += span - child
        st.calls += 1
        if self._stack:
            self._stack[-1][2] += span
        else:
            self.root_s += span
            self.root_self_s += span - child

    def _wrap(self, target: Target, fn):
        layer, count, tracer = target.layer, target.count, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                tracer.stats[layer].work += count(args, kwargs, result)
            return result

        return traced

    # --- Installation ------------------------------------------------------

    def install(self) -> None:
        missing: dict[str, list[str]] = {}
        for target in self.targets:
            try:
                owner, name = resolve(target.path)
            except LookupError:
                missing.setdefault(target.layer, []).append(target.path)
                continue
            own = name in vars(owner)
            original = vars(owner)[name] if own else getattr(owner, name)
            setattr(owner, name, self._wrap(target, original))
            self._installed.append((owner, name, original, own))
        self.missing = missing

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original, own = self._installed.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def unresolved_layers(self) -> list[str]:
        """Layers none of whose targets resolved (reported as null)."""
        n_targets: dict[str, int] = {}
        for target in self.targets:
            n_targets[target.layer] = n_targets.get(target.layer, 0) + 1
        return [
            layer
            for layer, paths in self.missing.items()
            if len(paths) == n_targets[layer]
        ]

    def warnings(self) -> list[str]:
        dead = set(self.unresolved_layers())
        return [
            f"layer {layer} is {'null' if layer in dead else 'partly traced'}: "
            f"{', '.join(paths)} did not resolve"
            for layer, paths in self.missing.items()
        ]

    def layer_metrics(self, wall_s: float) -> dict[str, dict]:
        """``<layer>.self_s|calls|share`` rows; share is self time over
        ``wall_s``.  Unresolved layers get ``None`` values."""
        dead = set(self.unresolved_layers())
        out: dict[str, dict] = {}
        for layer in self.layers:
            st = self.stats[layer]
            gone = layer in dead
            out[f"{layer}.self_s"] = _row(None if gone else st.self_s, "s")
            out[f"{layer}.calls"] = _row(None if gone else st.calls, "count")
            share = st.self_s / wall_s if wall_s > 0 else 0.0
            out[f"{layer}.share"] = _row(None if gone else share, "fraction")
        return out


def _row(value, unit: str) -> dict:
    return {"value": value, "unit": unit}
