"""Differential tests: nested dissection's list BFS vs the retained loop.

``_bfs_bisect`` runs over Python adjacency lists with one dict per bisect;
``_bfs_bisect_reference`` is the original set/dict BFS over numpy scalars.
Both must return the same (left, right, separator) on every graph shape
the ordering meets: disconnected pieces, long paths (high diameter),
stars, isolated vertices, and arbitrary vertex subsets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import csr_from_coo
from repro.sparse.ordering import _adjacency, _bfs_bisect, _bfs_bisect_reference


def _matrix(n, src, dst):
    """Pattern with the given off-diagonal entries (one direction only) and a full diagonal."""
    rows = np.concatenate([np.arange(n), src])
    cols = np.concatenate([np.arange(n), dst])
    return csr_from_coo(n, n, rows, cols, np.ones(rows.shape[0]))


@st.composite
def graphs(draw, max_n=80):
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "path", "star", "isolated", "pieces"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "path":
        src, dst = np.arange(n - 1), np.arange(1, n)
    elif kind == "star":
        hub = int(rng.integers(0, n))
        src = np.full(n - 1, hub)
        dst = np.delete(np.arange(n), hub)
    elif kind == "isolated":
        src = dst = np.empty(0, dtype=np.int64)
    elif kind == "pieces":
        # paths over a shuffled order, cut into pieces: several components
        # whose ids interleave
        order = rng.permutation(n)
        keep = rng.random(n - 1) < 0.8
        src, dst = order[:-1][keep], order[1:][keep]
    else:
        m = int(rng.integers(0, 2 * n + 1))
        src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        off = src != dst
        src, dst = src[off], dst[off]
    return _matrix(n, src.astype(np.int64), dst.astype(np.int64))


@given(graphs(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_bfs_bisect_matches_reference(a, seed, whole):
    indptr, indices = _adjacency(a)
    n = a.n_rows
    if whole:
        nodes = np.arange(n, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        nodes = np.flatnonzero(rng.random(n) < 0.6)
        if nodes.shape[0] == 0:
            nodes = np.array([int(rng.integers(0, n))])
    fast = _bfs_bisect(indptr.tolist(), indices.tolist(), nodes)
    ref = _bfs_bisect_reference(indptr, indices, nodes)
    for x, y in zip(fast, ref):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_adjacency_is_symmetrised_pattern_without_diagonal(a):
    indptr, indices = _adjacency(a)
    dense = a.to_dense() != 0
    want = dense | dense.T
    np.fill_diagonal(want, False)
    got = np.zeros_like(want)
    for v in range(a.n_rows):
        row = indices[indptr[v] : indptr[v + 1]]
        assert np.all(np.diff(row) > 0)  # ascending, duplicate-free
        got[v, row] = True
    assert np.array_equal(got, want)
