"""Intake validation for query arrays.

:meth:`UpANNSEngine.search_batch
<repro.core.engine.UpANNSEngine.search_batch>` and the serving surfaces
(:meth:`OnlineService.submit <repro.core.service.OnlineService.submit>`
and the ``repro.serving`` frontend) funnel every externally supplied
query array through :func:`validate_queries`, so malformed input fails
with a typed :class:`~repro.errors.InvalidQueryError` at the door
instead of a numpy traceback from deep inside the pipeline — or, for
NaN/inf, silently wrong results and poisoned LUT-cache entries.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidQueryError


def validate_queries(queries: object, *, dim: int) -> np.ndarray:
    """Canonicalize ``queries`` to a contiguous float32 ``(n, dim)`` array.

    Raises :class:`InvalidQueryError` when the input is empty, not
    2-D after promoting a single vector, has the wrong dimensionality,
    or contains non-finite values (NaN/inf poison distance kernels
    silently — every downstream comparison involving them is False).
    """
    try:
        arr = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"queries are not a numeric array: {exc}") from exc
    if arr.ndim != 2:
        raise InvalidQueryError(
            f"queries must be a vector or a 2-D batch, got ndim={arr.ndim}"
        )
    if arr.shape[0] == 0:
        raise InvalidQueryError("queries are empty (no rows)")
    if arr.shape[1] != dim:
        raise InvalidQueryError(
            f"query dimension mismatch: got {arr.shape[1]}, index has {dim}"
        )
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise InvalidQueryError(
            f"queries contain non-finite values (first bad row: {bad})"
        )
    return arr
