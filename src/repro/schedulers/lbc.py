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

from ..core.binpack import BinPacking, first_fit_pack
from ..core.pgp import pgp
from ..core.schedule import Schedule, WidthPartition
from ..graph.dag import DAG
from ..sparse.csr import INDEX_DTYPE
from ..sparse.symbolic import _liu_etree

__all__ = [
    "lbc_body",
    "lbc_body_reference",
    "elimination_tree",
    "tree_levels",
    "forest_components",
    "forest_components_reference",
]


def elimination_tree(g: DAG) -> np.ndarray:
    """Elimination tree of the dependence DAG (Liu's algorithm).

    ``g`` has an edge ``u -> v`` for every stored ``A[v, u]``, ``u < v``, so
    each vertex's in-neighbours are its row's below-diagonal entries.
    Returns ``parent`` with ``parent[root] = -1``.  Uses the standard
    path-compressed "ancestor" forest for near-linear time.
    """
    if not g.is_id_topological():
        raise ValueError(
            "elimination tree needs an id-topological DAG (every edge u -> v has u < v)"
        )
    return _liu_etree(g.n, g.in_ptr, g.in_idx)


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Leaf-up height of every vertex in a parent-pointer forest.

    Leaves are height 0; a parent is ``1 + max(child heights)``.  One
    ascending pass suffices because ``parent(v) > v``.
    """
    up = parent.tolist()
    level = [0] * len(up)
    for v, w in enumerate(up):
        if w >= 0:
            if w <= v:
                raise ValueError("parent pointers must satisfy parent(v) > v")
            if level[w] < level[v] + 1:
                level[w] = level[v] + 1
    return np.array(level, dtype=INDEX_DTYPE)


def _grouped(parent: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forest induced on ``mask``, grouped by component.

    Returns ``(members, bounds, by_min)``: component ``j`` is
    ``members[bounds[j]:bounds[j + 1]]`` (ascending), and ``by_min`` lists
    the components in order of their smallest member.

    Each masked vertex's component root is its highest ancestor reached
    through in-mask parents, found by pointer jumping: every round doubles
    the hop length, so a path of length ``d`` settles in ``log2(d) + 1``
    rounds.  A stable sort on the root over ascending ids then groups the
    members ascending, and a group's first member is its smallest.
    """
    n = parent.shape[0]
    up = np.arange(n, dtype=INDEX_DTYPE)
    if np.any((parent >= 0) & (parent <= up)):
        # also rules out cycles, on which the jumping below need not settle
        raise ValueError("parent pointers must satisfy parent(v) > v")
    mask = np.asarray(mask, dtype=bool)
    verts = np.flatnonzero(mask).astype(INDEX_DTYPE, copy=False)
    src = verts[parent[verts] >= 0]
    src = src[mask[parent[src]]]
    up[src] = parent[src]
    while True:
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    root = up[verts]
    order = np.argsort(root, kind="stable")
    members = verts[order]
    root = root[order]
    starts = np.flatnonzero(np.diff(root, prepend=-1))
    bounds = np.append(starts, members.shape[0])
    return members, bounds, np.argsort(members[starts])


def forest_components(parent: np.ndarray, mask: np.ndarray) -> List[np.ndarray]:
    """Connected components (subtrees) of the forest induced on ``mask``.

    Only tree edges with both endpoints inside the mask connect vertices.
    Returned ordered by smallest member id, members sorted ascending.
    Identical to :func:`forest_components_reference`.
    """
    members, bounds, by_min = _grouped(parent, mask)
    return [members[bounds[k] : bounds[k + 1]] for k in by_min.tolist()]


def forest_components_reference(parent: np.ndarray, mask: np.ndarray) -> List[np.ndarray]:
    """Per-vertex loop with a dict of lists — the retained oracle."""
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


def _sums_exact(cost: np.ndarray) -> bool:
    """True when every summation order of ``cost`` gives the same floats.

    Finite integer values whose absolute total stays below 2**53 make every
    partial sum an exactly representable integer, so no order rounds.
    """
    return bool(
        np.all(np.isfinite(cost))
        and np.all(cost == np.floor(cost))
        and float(np.abs(cost).sum()) < 2.0**53
    )


def _cut_loads(parent: np.ndarray, mask: np.ndarray, cost: np.ndarray, exact: bool) -> np.ndarray:
    """Per-component cost of the forest on ``mask``, by smallest member.

    Equal, bit for bit, to ``cost[c].sum()`` over
    :func:`forest_components`: a segmented sum when ``exact`` (any order is
    exact), else one ``np.sum`` per component's ascending members.
    """
    members, bounds, by_min = _grouped(parent, mask)
    if exact:
        return np.add.reduceat(cost[members], bounds[:-1])[by_min]
    return np.array(
        [cost[members[bounds[k] : bounds[k + 1]]].sum() for k in by_min.tolist()],
        dtype=np.float64,
    )


def _partitions_from_packing(comps, packing, p: int):
    parts = []
    for core, items in enumerate(packing.items_per_bin(p)):
        if items.size == 0:
            continue
        verts = np.sort(np.concatenate([comps[int(k)] for k in items]))
        parts.append(WidthPartition(core=core, vertices=verts))
    return parts


def _candidate_cuts(max_h: int) -> List[int]:
    """Cut levels to try, largest first (big parallel front, small tail).

    Deep trees are subsampled to bound inspection at O(48 * n).
    """
    top = max_h + 1
    if top <= 48:
        return list(range(top, 0, -1))
    return sorted({int(c) for c in np.linspace(top, 1, 48).round()}, reverse=True)


def _lbc_schedule(g: DAG, p: int, cut: int, max_h: int, levels) -> Schedule:
    return Schedule(
        n=g.n,
        levels=levels,
        sync="barrier",
        algorithm="lbc",
        n_cores=p,
        meta={"cut_level": int(cut), "n_tree_levels": max_h + 1},
    )


def lbc_body(g: DAG, cost: np.ndarray, p: int, epsilon: float) -> Schedule:
    """Two-level LBC: packed etree subtrees below one cut, tail above it.

    The single ``lbc-etree-cut`` pass of the ``"lbc"`` group.  Candidate
    cuts are only packed and scored from their component loads; the chosen
    cut and the tail are the two :func:`forest_components` calls.  Identical
    to :func:`lbc_body_reference`.
    """
    if g.n == 0:
        return Schedule(n=0, levels=[], sync="barrier", algorithm="lbc", n_cores=p)
    parent = elimination_tree(g)
    height = tree_levels(parent)
    max_h = int(height.max())
    exact = _sums_exact(cost)

    best: tuple[int, BinPacking] | None = None
    best_pgp = np.inf
    for cut in _candidate_cuts(max_h):
        mask = height < cut
        if not mask.any():
            continue
        loads = _cut_loads(parent, mask, cost, exact)
        packing = first_fit_pack(loads, p)
        score = pgp(packing.loads)
        if loads.shape[0] >= p and score <= epsilon:
            best = (cut, packing)
            break
        if score < best_pgp:
            best_pgp = score
            best = (cut, packing)
    assert best is not None  # every cut >= 1 keeps the leaves
    cut, packing = best

    levels = []
    parts = _partitions_from_packing(forest_components(parent, height < cut), packing, p)
    if parts:
        levels.append(parts)

    tail_mask = height >= cut
    if tail_mask.any():
        tail_comps = forest_components(parent, tail_mask)
        tail_pack = first_fit_pack([float(cost[c].sum()) for c in tail_comps], p)
        tail_parts = _partitions_from_packing(tail_comps, tail_pack, p)
        if tail_parts:
            levels.append(tail_parts)
    return _lbc_schedule(g, p, cut, max_h, levels)


def lbc_body_reference(g: DAG, cost: np.ndarray, p: int, epsilon: float) -> Schedule:
    """Per-cut component lists through :func:`forest_components_reference`
    — the retained oracle for :func:`lbc_body`."""
    if g.n == 0:
        return Schedule(n=0, levels=[], sync="barrier", algorithm="lbc", n_cores=p)
    parent = elimination_tree(g)
    height = tree_levels(parent)
    max_h = int(height.max())

    best = None  # (cut, comps, packing)
    best_pgp = np.inf
    for cut in _candidate_cuts(max_h):
        mask = height < cut
        if not mask.any():
            continue
        comps = forest_components_reference(parent, mask)
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
        tail_comps = forest_components_reference(parent, tail_mask)
        tail_pack = first_fit_pack([float(cost[c].sum()) for c in tail_comps], p)
        tail_parts = _partitions_from_packing(tail_comps, tail_pack, p)
        if tail_parts:
            levels.append(tail_parts)
    return _lbc_schedule(g, p, cut, max_h, levels)
