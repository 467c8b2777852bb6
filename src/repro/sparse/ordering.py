"""Symmetric fill-reducing / bandwidth-reducing orderings.

The paper reorders every input with METIS before handing it to any of the
schedulers (Section V).  METIS itself is a native library; this module
provides pure-Python equivalents that play the same role in the pipeline:

* :func:`rcm` — reverse Cuthill-McKee bandwidth reduction;
* :func:`nested_dissection` — recursive BFS-bisection ND, the same family of
  ordering METIS_NodeND computes;
* :func:`natural` / :func:`random_permutation` — controls for ablations.

All functions return a permutation ``perm`` with the convention used by
:meth:`repro.sparse.csr.CSRMatrix.permute_symmetric`: new index ``k``
corresponds to old index ``perm[k]``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE

__all__ = ["rcm", "nested_dissection", "natural", "random_permutation", "apply_ordering"]


def _adjacency(a: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised adjacency (indptr, indices) without self-loops."""
    at = a.transpose()
    n = a.n_rows
    # Union of patterns of A and A^T, dropping the diagonal.
    rows = np.concatenate(
        [
            np.repeat(np.arange(n, dtype=INDEX_DTYPE), a.row_nnz()),
            np.repeat(np.arange(n, dtype=INDEX_DTYPE), at.row_nnz()),
        ]
    )
    cols = np.concatenate([a.indices, at.indices])
    keep = rows != cols
    # one int64 key per (row, col): a 1-D unique sorts exactly as the
    # row-major pair order, far faster than np.unique(axis=0)
    key = np.unique(rows[keep] * n + cols[keep])
    row, col = np.divmod(key, max(n, 1))
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, col.astype(INDEX_DTYPE, copy=False)


def _pseudo_peripheral(indptr: np.ndarray, indices: np.ndarray, start: int) -> int:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu)."""
    n = indptr.shape[0] - 1
    u = start
    last_ecc = -1
    for _ in range(n):
        dist = np.full(n, -1, dtype=INDEX_DTYPE)
        dist[u] = 0
        q = deque([u])
        far = u
        while q:
            v = q.popleft()
            for w in indices[indptr[v] : indptr[v + 1]]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    far = int(w)
                    q.append(int(w))
        ecc = int(dist[far])
        if ecc <= last_ecc:
            return u
        last_ecc = ecc
        u = far
    return u


def rcm(a: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the symmetrised pattern of ``a``.

    Visits components in order of their smallest vertex id, starts each from
    a pseudo-peripheral vertex, and enqueues neighbours by increasing degree.
    Deterministic: ties break on vertex id.
    """
    n = a.n_rows
    indptr, indices = _adjacency(a)
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    for seed in range(n):
        if visited[seed]:
            continue
        root = _pseudo_peripheral(indptr, indices, seed)
        if visited[root]:  # component already swept via another seed
            root = seed
        visited[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            order.append(v)
            nbrs = indices[indptr[v] : indptr[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            # sort by (degree, id) for determinism
            nbrs = nbrs[np.lexsort((nbrs, degree[nbrs]))]
            visited[nbrs] = True
            q.extend(int(x) for x in nbrs)
    perm = np.array(order[::-1], dtype=INDEX_DTYPE)
    return perm


def _bfs_bisect(
    ptr: list, idx: list, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ascending ``nodes`` into (left, right, separator) via BFS level halving.

    BFS from ``nodes[0]`` to find the last-discovered (far) vertex, then BFS
    again from it; the level that first covers half of the reached vertices
    becomes the separator, and vertices the BFS never reached go right.
    Only the first pass must keep FIFO discovery order (it picks ``far``);
    the second needs distances alone, so it runs level by level.
    ``ptr``/``idx`` are the adjacency as Python lists (built once per
    ordering).  One dict holds subset membership and distance: ``-1`` not
    yet reached, ``-2`` reached by the first pass, ``>= 0`` the distance
    from ``far``.  Identical to :func:`_bfs_bisect_reference`.
    """
    node_list = nodes.tolist()
    dist = dict.fromkeys(node_list, -1)
    start = node_list[0]
    dist[start] = -2
    order = [start]
    for v in order:  # the list grows while iterated: a FIFO queue
        for w in idx[ptr[v] : ptr[v + 1]]:
            if dist.get(w) == -1:
                dist[w] = -2
                order.append(w)
    far = order[-1]
    dist[far] = 0
    frontier = [far]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in idx[ptr[v] : ptr[v + 1]]:
                if dist.get(w) == -2:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    # dict order is node order, so the masks below select ascending ids
    level = np.fromiter(dist.values(), dtype=np.int64, count=len(node_list))
    counts = np.bincount(level[level >= 0])
    cum = np.cumsum(counts)
    half = (int(cum[-1]) + 1) // 2
    sep_level = min(int(np.searchsorted(cum, half)), counts.shape[0] - 1)
    nodes = nodes.astype(INDEX_DTYPE, copy=False)
    return (
        nodes[(level >= 0) & (level < sep_level)],
        nodes[(level > sep_level) | (level < 0)],
        nodes[level == sep_level],
    )


def _bfs_bisect_reference(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Set/dict BFS over numpy scalars — the retained oracle for
    :func:`_bfs_bisect`.

    BFS from a pseudo-peripheral vertex of the subgraph; the level that first
    covers half the vertices becomes the separator.
    """
    sub = set(nodes.tolist())
    start = int(nodes[0])
    # local BFS to find levels within the subgraph
    dist = {start: 0}
    q = deque([start])
    order = [start]
    while q:
        v = q.popleft()
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            if w in sub and w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
                order.append(w)
    # restart from the farthest vertex for a better (deeper) level structure
    far = order[-1]
    dist = {far: 0}
    q = deque([far])
    order = [far]
    while q:
        v = q.popleft()
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            if w in sub and w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
                order.append(w)
    unreached = [v for v in nodes.tolist() if v not in dist]
    half = (len(dist) + 1) // 2
    # choose separator level: first level where cumulative count >= half
    max_level = max(dist.values())
    counts = np.zeros(max_level + 1, dtype=np.int64)
    for v, d in dist.items():
        counts[d] += 1
    cum = np.cumsum(counts)
    sep_level = int(np.searchsorted(cum, half))
    sep_level = min(sep_level, max_level)
    left = [v for v, d in dist.items() if d < sep_level]
    sep = [v for v, d in dist.items() if d == sep_level]
    right = [v for v, d in dist.items() if d > sep_level] + unreached
    return (
        np.array(sorted(left), dtype=INDEX_DTYPE),
        np.array(sorted(right), dtype=INDEX_DTYPE),
        np.array(sorted(sep), dtype=INDEX_DTYPE),
    )


def nested_dissection(a: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive BFS-bisection nested dissection ordering.

    Partitions the graph recursively; separators are numbered last within
    their subproblem (the defining property of ND, which keeps factorisation
    DAGs shallow and bushy).  Subproblems of at most ``leaf_size`` vertices
    keep their vertices in ascending id order.
    """
    n = a.n_rows
    indptr, indices = _adjacency(a)
    ptr, idx = indptr.tolist(), indices.tolist()
    out: list[int] = []

    # Explicit work stack (left, right, then separator emitted last within
    # each subproblem).  Lopsided splits — one tiny side plus a huge rest —
    # would drive plain recursion O(n) deep on chain- and hub-like graphs.
    stack: list[tuple[str, object]] = [("split", np.arange(n, dtype=INDEX_DTYPE))]
    while stack:
        tag, payload = stack.pop()
        if tag == "emit":
            out.extend(payload)  # type: ignore[arg-type]
            continue
        nodes = payload  # type: ignore[assignment]
        if nodes.shape[0] <= leaf_size:
            out.extend(nodes.tolist())
            continue
        left, right, sep = _bfs_bisect(ptr, idx, nodes)
        if left.shape[0] == 0 or right.shape[0] == 0:
            # Degenerate split (e.g. complete graph): stop recursing.
            out.extend(nodes.tolist())
            continue
        stack.append(("emit", sep.tolist()))
        stack.append(("split", right))
        stack.append(("split", left))
    perm = np.array(out, dtype=INDEX_DTYPE)
    if perm.shape[0] != n or np.any(np.sort(perm) != np.arange(n)):
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm


def natural(a: CSRMatrix) -> np.ndarray:
    """Identity ordering (ablation control)."""
    return np.arange(a.n_rows, dtype=INDEX_DTYPE)


def random_permutation(a: CSRMatrix, *, seed: int = 0) -> np.ndarray:
    """Uniformly random ordering (ablation control)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(a.n_rows).astype(INDEX_DTYPE)


def apply_ordering(a: CSRMatrix, method: str = "nd", **kwargs) -> tuple[CSRMatrix, np.ndarray]:
    """Reorder ``a`` symmetrically; returns ``(permuted_matrix, perm)``.

    ``method`` is one of ``"rcm"``, ``"nd"``, ``"natural"``, ``"random"``.
    This is the stand-in for the paper's METIS pre-pass, applied identically
    to all schedulers.
    """
    methods = {
        "rcm": rcm,
        "nd": nested_dissection,
        "natural": natural,
        "random": random_permutation,
    }
    if method not in methods:
        raise ValueError(f"unknown ordering {method!r}; expected one of {sorted(methods)}")
    perm = methods[method](a, **kwargs)
    return a.permute_symmetric(perm), perm
