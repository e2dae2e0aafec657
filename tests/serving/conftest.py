"""Serving-suite fixtures.

The frontend mutates its service (submitted batches, retained works,
adaptive placement), so every test builds a fresh engine from the
session-scoped dataset and prebuilt-index fixtures — training stays
amortized across the session while run state stays private per test.
"""

from __future__ import annotations

import pytest

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.service import OnlineService
from repro.hardware.specs import PimSystemSpec


def build_service(
    small_dataset, trained_index, history_queries, *, batch_size: int = 30
) -> OnlineService:
    cfg = SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=batch_size),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )
    engine = UpANNSEngine(cfg)
    engine.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return OnlineService(engine, overlap="sequential")


@pytest.fixture
def service_factory(small_dataset, trained_index, history_queries):
    """Builds a fresh service on demand."""

    def build(**kwargs) -> OnlineService:
        return build_service(
            small_dataset, trained_index, history_queries, **kwargs
        )

    return build
