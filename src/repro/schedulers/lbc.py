"""LBC baseline: Load-Balanced level Coarsening (ParSy) [7].

LBC is optimised for tree-structured DAGs.  On a general sparse-kernel DAG
it "chordalises the DAG by adding more edges and then converts it to a
tree" (Section II / Figure 1(c)).  The tree in question is the classic
**elimination tree**: chordal fill never changes it, and the fundamental
etree property — ``A[v, u] != 0`` with ``u < v`` implies ``u`` is a
descendant of ``v`` in etree(A) — means *every dependence edge stays inside
one subtree*.  That is exactly what lets LBC treat disjoint subtrees as
independent workloads without inspecting individual DAG edges.

The algorithm here:

1. build etree(A) with Liu's algorithm (path-compressed ancestor climbing)
   directly from the dependence DAG's edges;
2. compute leaf-up subtree heights;
3. scan cut levels from the top: the largest cut whose below-forest
   decomposes into at least ``p`` tree-connected components that first-fit
   bin-pack within the balance threshold becomes coarsened wavefront 1
   (w-partitions = packed subtrees); everything at or above the cut becomes
   coarsened wavefront 2.

The second wavefront's components are almost always fewer than ``p`` — the
paper's observation that "LBC always creates two wavefronts where one of
the wavefronts has fewer than p workloads", i.e. a 50 % load-imbalance
ratio.

Validity follows from the etree property: an edge ``u -> v`` has ``u`` a
descendant of ``v``, so heights satisfy ``h(u) < h(v)`` and the tree path
between them never leaves a side of the cut — both endpoints land either in
the same w-partition (same subtree component) or in consecutive coarsened
wavefronts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.binpack import first_fit_pack
from ..core.pgp import pgp
from ..core.schedule import Schedule, WidthPartition
from ..graph.dag import DAG
from ..sparse.csr import INDEX_DTYPE

__all__ = [
    "lbc_body",
    "elimination_tree",
    "tree_levels",
    "forest_components",
]


def elimination_tree(g: DAG) -> np.ndarray:
    """Elimination tree of the dependence DAG (Liu's algorithm).

    ``g`` has an edge ``u -> v`` for every stored ``A[v, u]``, ``u < v``.
    Returns ``parent`` with ``parent[root] = -1``.  Uses the standard
    path-compressed "ancestor" forest for near-linear time.
    """
    n = g.n
    parent = np.full(n, -1, dtype=INDEX_DTYPE)
    ancestor = np.full(n, -1, dtype=INDEX_DTYPE)
    in_ptr, in_idx = g.in_ptr, g.in_idx
    for i in range(n):
        for t in range(in_ptr[i], in_ptr[i + 1]):
            r = int(in_idx[t])  # k < i with A[i, k] stored
            while ancestor[r] != -1 and ancestor[r] != i:
                nxt = int(ancestor[r])
                ancestor[r] = i  # path compression
                r = nxt
            if ancestor[r] == -1:
                ancestor[r] = i
                parent[r] = i
    return parent


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Leaf-up height of every vertex in a parent-pointer forest.

    Leaves are height 0; a parent is ``1 + max(child heights)``.  One
    ascending pass suffices because ``parent(v) > v``.
    """
    n = parent.shape[0]
    level = np.zeros(n, dtype=INDEX_DTYPE)
    for v in range(n):
        w = parent[v]
        if w >= 0:
            if w <= v:
                raise ValueError("parent pointers must satisfy parent(v) > v")
            if level[w] < level[v] + 1:
                level[w] = level[v] + 1
    return level


def forest_components(parent: np.ndarray, mask: np.ndarray) -> List[np.ndarray]:
    """Connected components (subtrees) of the forest induced on ``mask``.

    Only tree edges with both endpoints inside the mask connect vertices.
    Returned ordered by smallest member id, members sorted ascending.
    """
    n = parent.shape[0]
    label = np.full(n, -1, dtype=INDEX_DTYPE)
    verts = np.nonzero(mask)[0]
    # Descending pass: parent(v) > v is already labelled when v is reached,
    # so each vertex inherits its in-mask parent's (final) root label.
    for v in verts[::-1]:
        w = parent[v]
        label[v] = label[w] if (w >= 0 and mask[w]) else v
    groups: dict[int, List[int]] = {}
    for v in verts:
        groups.setdefault(int(label[v]), []).append(int(v))
    return [
        np.array(sorted(members), dtype=INDEX_DTYPE)
        for _, members in sorted(groups.items(), key=lambda kv: min(kv[1]))
    ]


def _partitions_from_packing(comps, packing, p: int):
    parts = []
    for core, items in enumerate(packing.items_per_bin(p)):
        if items.size == 0:
            continue
        verts = np.sort(np.concatenate([comps[int(k)] for k in items]))
        parts.append(WidthPartition(core=core, vertices=verts))
    return parts


def lbc_body(g: DAG, cost: np.ndarray, p: int, epsilon: float) -> Schedule:
    """Two-level LBC: packed etree subtrees below one cut, tail above it.

    The single ``lbc-etree-cut`` pass of the ``"lbc"`` group.
    """
    if g.n == 0:
        return Schedule(n=0, levels=[], sync="barrier", algorithm="lbc", n_cores=p)
    parent = elimination_tree(g)
    height = tree_levels(parent)
    max_h = int(height.max())

    # Candidate cuts, largest first (big parallel front, small tail).  Deep
    # trees are subsampled to bound inspection at O(48 * n).
    top = max_h + 1
    if top <= 48:
        candidates = list(range(top, 0, -1))
    else:
        candidates = sorted({int(c) for c in np.linspace(top, 1, 48).round()}, reverse=True)

    best = None  # (cut, comps, packing)
    best_pgp = np.inf
    for cut in candidates:
        mask = height < cut
        if not mask.any():
            continue
        comps = forest_components(parent, mask)
        packing = first_fit_pack([float(cost[c].sum()) for c in comps], p)
        score = pgp(packing.loads)
        if len(comps) >= p and score <= epsilon:
            best = (cut, comps, packing)
            break
        if score < best_pgp:
            best_pgp = score
            best = (cut, comps, packing)
    cut, comps, packing = best

    levels = []
    parts = _partitions_from_packing(comps, packing, p)
    if parts:
        levels.append(parts)

    tail_mask = height >= cut
    if tail_mask.any():
        tail_comps = forest_components(parent, tail_mask)
        tail_pack = first_fit_pack([float(cost[c].sum()) for c in tail_comps], p)
        tail_parts = _partitions_from_packing(tail_comps, tail_pack, p)
        if tail_parts:
            levels.append(tail_parts)

    return Schedule(
        n=g.n,
        levels=levels,
        sync="barrier",
        algorithm="lbc",
        n_cores=p,
        meta={"cut_level": int(cut), "n_tree_levels": max_h + 1},
    )
