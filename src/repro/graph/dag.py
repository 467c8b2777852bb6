"""CSR-backed directed acyclic graph used by every inspector algorithm.

Vertices are the iterations of the sparse kernel's outermost loop; a directed
edge ``i -> j`` means iteration ``i`` must complete before iteration ``j``
(``i`` is a *parent* of ``j``), matching the paper's notation in Section IV-A.

The DAGs produced from triangular sparse kernels have a convenient property:
every edge satisfies ``src < dst`` (iteration order is a topological order).
We call this *id-topological*.  The inspectors exploit it for one-pass level
computation; :meth:`DAG.is_id_topological` checks it and
:mod:`repro.graph.topological` provides the general path.

Storage is out-edge CSR (``indptr``/``indices``); the in-edge (parent) CSR is
materialised lazily and cached, since step 1 of HDagg and transitive
reduction are parent-driven.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..sparse.csr import INDEX_DTYPE

__all__ = ["DAG", "gather_slices"]


def gather_slices(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate ``indices[indptr[v]:indptr[v+1]]`` for all ``v`` in ``nodes``.

    This is the vectorized ragged gather used by frontier expansions (BFS,
    Kahn levels, component sweeps): no Python-level loop over ``nodes``.
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    if nodes.size == 0:
        return np.empty(0, dtype=indices.dtype)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # offset of each output position within its slice
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - counts, counts)
    return indices[np.repeat(starts, counts) + within]


class DAG:
    """Directed acyclic graph over ``n`` integer vertices in out-edge CSR form.

    Parameters
    ----------
    n:
        Number of vertices.
    indptr, indices:
        Out-edge CSR arrays: children of ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``, sorted ascending, duplicate-free.
    check:
        Validate the invariants (sortedness, ranges).  Acyclicity is *not*
        checked here (it is O(V+E)); use
        :func:`repro.graph.topological.topological_order` when needed.
    """

    __slots__ = ("n", "indptr", "indices", "_in_ptr", "_in_idx", "_key_memo")

    def __init__(self, n: int, indptr, indices, *, check: bool = True) -> None:
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self._in_ptr: np.ndarray | None = None
        self._in_idx: np.ndarray | None = None
        # sha256 state over this DAG's structure, kept by schedule_key
        self._key_memo = None
        if check:
            self._validate()
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def __getstate__(self) -> dict:
        # the key memo is a hashlib object, which cannot be pickled or
        # copied; the receiving side rebuilds it on its first key
        return {name: getattr(self, name) for name in self.__slots__ if name != "_key_memo"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._key_memo = None
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def _validate(self) -> None:
        if self.indptr.shape[0] != self.n + 1 or self.indptr[0] != 0:
            raise ValueError("bad indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        m = int(self.indptr[-1])
        if self.indices.shape[0] != m:
            raise ValueError("indices length mismatch")
        if m:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise ValueError("vertex id out of range")
            if m > 1:
                interior = np.ones(m - 1, dtype=bool)
                boundaries = self.indptr[1:-1]
                interior[boundaries[(boundaries > 0) & (boundaries < m)] - 1] = False
                if np.any((np.diff(self.indices) <= 0) & interior):
                    raise ValueError("children must be strictly increasing per vertex")
        # no self-loops
        row_of = np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))
        if np.any(row_of == self.indices):
            raise ValueError("self-loop detected")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, src, dst, *, dedup: bool = True) -> "DAG":
        """Build from parallel edge arrays ``src[i] -> dst[i]``."""
        src = np.asarray(src, dtype=INDEX_DTYPE)
        dst = np.asarray(dst, dtype=INDEX_DTYPE)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if src.size:
            pair = np.stack([src, dst], axis=1)
            if dedup:
                pair = np.unique(pair, axis=0)
            else:
                order = np.lexsort((dst, src))
                pair = pair[order]
            src, dst = pair[:, 0], pair[:, 1]
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst)

    @classmethod
    def empty(cls, n: int) -> "DAG":
        """DAG with ``n`` vertices and no edges."""
        return cls(n, np.zeros(n + 1, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE), check=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1])

    def children(self, v: int) -> np.ndarray:
        """Out-neighbours of ``v`` (view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def out_degree(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def _build_in_edges(self) -> None:
        counts = np.bincount(self.indices, minlength=self.n)
        in_ptr = np.zeros(self.n + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=in_ptr[1:])
        src_of = np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        self._in_ptr = in_ptr
        self._in_idx = src_of[order]

    @property
    def in_ptr(self) -> np.ndarray:
        """In-edge CSR pointer (parents of ``v`` at ``in_idx[in_ptr[v]:in_ptr[v+1]]``)."""
        if self._in_ptr is None:
            self._build_in_edges()
        return self._in_ptr

    @property
    def in_idx(self) -> np.ndarray:
        """In-edge CSR indices, sorted per vertex (stable construction)."""
        if self._in_idx is None:
            self._build_in_edges()
        return self._in_idx

    def parents(self, v: int) -> np.ndarray:
        """In-neighbours of ``v`` (view)."""
        return self.in_idx[self.in_ptr[v] : self.in_ptr[v + 1]]

    def in_degree(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.diff(self.in_ptr)

    def edge_list(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` arrays of all edges in CSR order."""
        src = np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return src, self.indices.copy()

    def sinks(self) -> np.ndarray:
        """Vertices with no outgoing edges (Algorithm 1, Line 2 seeds)."""
        return np.nonzero(np.diff(self.indptr) == 0)[0].astype(INDEX_DTYPE)

    def sources(self) -> np.ndarray:
        """Vertices with no incoming edges (wavefront 0)."""
        return np.nonzero(self.in_degree() == 0)[0].astype(INDEX_DTYPE)

    def reverse(self) -> "DAG":
        """DAG with every edge flipped."""
        return DAG(self.n, self.in_ptr.copy(), self.in_idx.copy(), check=False)

    def is_id_topological(self) -> bool:
        """True when every edge satisfies ``src < dst``."""
        src, dst = self.edge_list()
        return bool(np.all(src < dst))

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``children(u)``."""
        ch = self.children(u)
        k = np.searchsorted(ch, v)
        return bool(k < ch.shape[0] and ch[k] == v)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(src, dst)`` pairs — for tests and tiny examples only."""
        for v in range(self.n):
            for c in self.children(v):
                yield v, int(c)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(n={self.n}, edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        raise TypeError("DAG is not hashable")
