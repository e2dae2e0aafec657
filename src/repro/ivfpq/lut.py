"""Lookup-table construction for residual IVFPQ (paper stage b).

With IVF residual encoding, the LUT depends on both the query *and* the
probed cluster: the effective query for cluster c is the residual
``q - centroid_c``.  ``lut[sub, j] = || (q - c)_sub - codeword[sub][j] ||^2``
so the ADC distance of any member point is ``sum_sub lut[sub, code_sub]``.
"""

from __future__ import annotations

import numpy as np

from repro.ivfpq.pq import ProductQuantizer


def build_lut(
    pq: ProductQuantizer, query: np.ndarray, centroid: np.ndarray
) -> np.ndarray:
    """LUT for one (query, cluster) pair: (m, ksub) float32."""
    query = np.asarray(query, dtype=np.float32)
    centroid = np.asarray(centroid, dtype=np.float32)
    return pq.compute_lut(query - centroid)


def build_luts_for_probes(
    pq: ProductQuantizer,
    query: np.ndarray,
    centroids: np.ndarray,
    probe_ids: np.ndarray,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """LUTs for (query, probed cluster) pairs -> (len(probe_ids), m, ksub).

    ``query`` is one (dim,) query probed against every cluster in
    ``probe_ids``, or, with ``rows``, an (nq, dim) stack in which pair
    i is query ``rows[i]`` against cluster ``probe_ids[i]``: the
    residuals of pairs from many queries become one stack and one gemm
    per subspace.  Each LUT's bits are independent of the stack it is
    built in (:meth:`ProductQuantizer.compute_luts`), which writes them
    into ``out`` when given.  This is the unit of work each DPU repeats
    per assigned (query, cluster) pair in the paper's pipeline.
    """
    query = np.asarray(query, dtype=np.float32)
    if rows is not None:
        query = query[rows]
    return pq.compute_luts(query - centroids[probe_ids], out=out)


def lut_size_bytes(pq: ProductQuantizer, dtype_bytes: int = 2) -> int:
    """WRAM footprint of one LUT.

    The paper stores LUT entries as uint16 on the DPU (section 4.2.1:
    ``M x 256 x sizeof(uint16)`` = 8 KB for M=16); the functional
    simulator keeps float32 for accuracy but charges WRAM at the
    on-device width.
    """
    return pq.m * pq.ksub * dtype_bytes


def codebook_size_bytes(pq: ProductQuantizer, dtype_bytes: int = 1) -> int:
    """WRAM footprint of the codebooks (paper: D x 256 = 32 KB for SIFT)."""
    return pq.dim * pq.ksub * dtype_bytes
