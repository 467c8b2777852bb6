"""SpMP baseline: level grouping with point-to-point synchronisation [4].

SpMP keeps the wavefront structure but (a) *groups* the vertices of each
wavefront into ``p`` balanced per-core workloads and (b) replaces the global
barrier with point-to-point synchronisation between groups, letting a core
start its next group as soon as that group's cross-core dependences are
satisfied (the orange arrows of Figure 1(b)).

Following Park et al.'s implementation, each level is split into contiguous
cost-balanced row blocks (the matrix is level-permuted, so blocks are
ascending-id runs); the load-balance edge over plain Wavefront comes from
the *overlap*: a core starts its next block as soon as the blocks it
depends on are done, so imbalance within one level is absorbed by the next
instead of stalling at a barrier.  This is why SpMP holds the best
load-balance numbers in the paper's Figures 6/7.  Locality is still
wavefront-ordered, which is what HDagg improves on.

The stages live in :mod:`repro.passes.baselines` (the shared
``wavefronts`` pass plus a p2p-sync emit pass).  ``lpt_assign``
(longest-processing-time-first greedy) is kept here as a shared utility
for schedulers that do scrambled balanced placement (DAGP's quotient
levels).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lpt_assign"]


def lpt_assign(costs: np.ndarray, p: int) -> np.ndarray:
    """LPT greedy: items sorted by descending cost onto the least-loaded bin.

    Ties (equal loads / equal costs) resolve to the lowest bin / lowest item
    index so the result is deterministic.
    """
    order = np.argsort(-costs, kind="stable")
    loads = np.zeros(p, dtype=np.float64)
    assignment = np.empty(costs.shape[0], dtype=np.int64)
    for k in order:
        b = int(np.argmin(loads))
        assignment[k] = b
        loads[b] += costs[k]
    return assignment
