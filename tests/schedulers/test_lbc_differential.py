"""Differential tests: LBC's array-form cut sweep vs its retained loops.

``forest_components`` (pointer jumping plus one stable sort) and
``lbc_body`` (candidate cuts scored from segmented component loads) must
match ``forest_components_reference`` and ``lbc_body_reference`` bit for
bit: same components, same partitions, same cut.  Integer costs take the
segmented-sum path; float costs take the per-component ``np.sum`` path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DAG
from repro.schedulers.lbc import (
    _cut_loads,
    _sums_exact,
    forest_components,
    forest_components_reference,
    lbc_body,
    lbc_body_reference,
    tree_levels,
)


@st.composite
def random_forests(draw, max_n=60):
    """Parent arrays with ``parent(v) > v`` or ``-1``: chains, stars, bushes."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    root_share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    reach = draw(st.sampled_from([1, 3, max_n]))  # 1: chains, max_n: stars and bushes
    rng = np.random.default_rng(seed)
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1):
        if rng.random() >= root_share:
            parent[v] = rng.integers(v + 1, min(n, v + 1 + reach))
    return parent


@st.composite
def random_dags(draw, max_n=40, max_edges=160):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src < dst
    return DAG.from_edges(n, src[keep], dst[keep])


def _assert_components_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def _assert_schedules_equal(a, b):
    assert a.meta == b.meta
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert [pa.core for pa in la] == [pb.core for pb in lb]
        for pa, pb in zip(la, lb):
            assert np.array_equal(pa.vertices, pb.vertices)


@given(random_forests(), st.data())
@settings(max_examples=150, deadline=None)
def test_forest_components_downward_closed_masks(parent, data):
    height = tree_levels(parent)
    cut = data.draw(st.integers(0, int(height.max()) + 1))
    for mask in (height < cut, height >= cut):
        _assert_components_equal(
            forest_components(parent, mask), forest_components_reference(parent, mask)
        )


@given(random_forests(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_forest_components_arbitrary_masks(parent, seed):
    mask = np.random.default_rng(seed).random(parent.shape[0]) < 0.6
    _assert_components_equal(
        forest_components(parent, mask), forest_components_reference(parent, mask)
    )


@given(random_forests(max_n=200), st.sampled_from(["int", "float"]), st.data())
@settings(max_examples=150, deadline=None)
def test_cut_loads_bitwise_equal_reference_sums(parent, kind, data):
    """Component loads equal ``cost[c].sum()`` over the reference components
    bit for bit; float costs on components of 8+ members are where a
    sequential sum and numpy's pairwise sum round differently."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = parent.shape[0]
    if kind == "int":
        cost = rng.integers(0, 1000, size=n).astype(np.float64)
    else:
        cost = rng.uniform(0.0, 1.0, size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    height = tree_levels(parent)
    mask = height < data.draw(st.integers(1, int(height.max()) + 1))
    want = [float(cost[c].sum()) for c in forest_components_reference(parent, mask)]
    got = _cut_loads(parent, mask, cost, _sums_exact(cost))
    assert got.tolist() == want


@given(random_dags(), st.integers(1, 8), st.sampled_from([0.0, 0.1, 0.3, 1.0]), st.data())
@settings(max_examples=120, deadline=None)
def test_lbc_body_integer_costs(g, p, epsilon, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    cost = np.random.default_rng(seed).integers(1, 50, size=g.n).astype(np.float64)
    _assert_schedules_equal(lbc_body(g, cost, p, epsilon), lbc_body_reference(g, cost, p, epsilon))


@given(random_dags(), st.integers(1, 8), st.sampled_from([0.0, 0.1, 0.3, 1.0]), st.data())
@settings(max_examples=120, deadline=None)
def test_lbc_body_float_costs(g, p, epsilon, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    cost = np.random.default_rng(seed).uniform(0.1, 3.0, size=g.n)
    _assert_schedules_equal(lbc_body(g, cost, p, epsilon), lbc_body_reference(g, cost, p, epsilon))


def test_lbc_body_float_costs_on_an_nd_ordered_random_matrix():
    """Many-component cuts with inexact sums: rounding must not move a cut."""
    from repro.graph import dag_from_matrix_lower
    from repro.sparse import apply_ordering, random_spd

    a = apply_ordering(random_spd(600, 3.0, seed=3), "nd")[0]
    g = dag_from_matrix_lower(a)
    cost = np.random.default_rng(5).uniform(0.1, 1.0, size=g.n) * 1e-3
    for p in (4, 20):
        _assert_schedules_equal(lbc_body(g, cost, p, 0.3), lbc_body_reference(g, cost, p, 0.3))


def test_lbc_body_deep_trees_subsample_cuts():
    """Trees taller than 48 levels take the subsampled candidate list."""
    rng = np.random.default_rng(11)
    n = 400
    src = np.concatenate([np.arange(n - 1), rng.integers(0, n - 1, size=300)])
    dst = np.concatenate([np.arange(1, n), rng.integers(1, n, size=300)])
    keep = src < dst
    g = DAG.from_edges(n, src[keep], dst[keep])
    for cost in (rng.integers(1, 9, size=n).astype(np.float64), rng.uniform(0.5, 2.0, size=n)):
        for p in (2, 8):
            s = lbc_body(g, cost, p, 0.3)
            assert s.meta["n_tree_levels"] > 48
            _assert_schedules_equal(s, lbc_body_reference(g, cost, p, 0.3))


def test_forest_components_rejects_cyclic_parents():
    with pytest.raises(ValueError, match="parent"):
        forest_components(np.array([1, 0, -1]), np.ones(3, dtype=bool))


def test_integer_cost_path_needs_exact_totals():
    assert _sums_exact(np.array([1.0, 2.0, 3.0]))
    assert not _sums_exact(np.array([1.0, 2.5]))
    assert not _sums_exact(np.array([1.0, np.inf]))
    assert not _sums_exact(np.array([2.0**52, 2.0**52]))
