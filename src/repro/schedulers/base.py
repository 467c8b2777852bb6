"""Shared scaffolding for the baseline inspectors.

Every entry of :data:`SCHEDULERS` has the signature
``schedule(g, cost, p=1, **options) -> Schedule`` so the harness can treat
the paper's five comparison points (Wavefront, SpMP, LBC, DAGP, MKL) and
HDagg uniformly.  The registry itself lives in
:mod:`repro.passes.registry`: registering a pass group is what makes a
scheduler.
"""

from __future__ import annotations

from typing import Any, Callable, List

import numpy as np

from ..passes.registry import SCHEDULERS
from ..sparse.csr import INDEX_DTYPE

__all__ = ["chunk_by_cost", "chunk_by_count", "SCHEDULERS", "get_scheduler"]


def chunk_by_cost(vertices: np.ndarray, cost: np.ndarray, p: int) -> List[np.ndarray]:
    """Split ``vertices`` (kept in order) into at most ``p`` contiguous chunks
    of approximately equal total cost.

    This is the static "balanced chunks" strategy of cost-aware level-set
    executors: chunk boundaries fall where the cost prefix crosses multiples
    of ``total / p``.
    """
    if vertices.shape[0] == 0:
        return []
    c = cost[vertices]
    total = float(c.sum())
    if total <= 0.0 or p == 1:
        return [vertices]
    prefix = np.cumsum(c)
    bounds = [0]
    for k in range(1, p):
        # greedy fill: a chunk ends with the vertex whose prefix reaches the
        # k-th cost quantile (so a single huge vertex gets its own chunk)
        pos = int(np.searchsorted(prefix, total * k / p, side="left")) + 1
        if pos > bounds[-1] and pos < vertices.shape[0]:
            bounds.append(pos)
    bounds.append(vertices.shape[0])
    return [vertices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def chunk_by_count(vertices: np.ndarray, p: int) -> List[np.ndarray]:
    """Split ``vertices`` into at most ``p`` contiguous chunks of equal count
    (cost-oblivious static scheduling, the vendor-library default)."""
    n = vertices.shape[0]
    if n == 0:
        return []
    p = min(p, n)
    bounds = np.linspace(0, n, p + 1).astype(INDEX_DTYPE)
    return [vertices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def get_scheduler(name: str) -> Callable[..., Any]:
    """Look up a registered scheduler; raises ``KeyError`` with choices listed."""
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; available: {sorted(SCHEDULERS)}") from None
