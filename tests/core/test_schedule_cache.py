"""Tests for the structure-keyed schedule cache."""

import numpy as np
import pytest

from repro.core import ScheduleCache, hdagg, schedule_key
from repro.core.schedule_cache import CacheStats
from repro.graph import DAG, dag_from_matrix_lower
from repro.sparse import apply_ordering, lower_triangle, poisson2d


@pytest.fixture(scope="module")
def dag_and_cost():
    a, _ = apply_ordering(poisson2d(12, seed=3), "nd")
    g = dag_from_matrix_lower(lower_triangle(a))
    cost = np.ones(g.n)
    return g, cost


def test_hit_miss_counters(dag_and_cost):
    g, cost = dag_and_cost
    cache = ScheduleCache()
    key = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    assert cache.get(key) is None
    assert cache.stats == CacheStats(hits=0, misses=1, entries=0)
    schedule = hdagg(g, cost, 4, 0.1)
    cache.put(key, schedule)
    assert cache.get(key) is schedule
    assert cache.stats.hits == 1 and cache.stats.entries == 1
    assert key in cache and len(cache) == 1


def test_get_or_build(dag_and_cost):
    g, cost = dag_and_cost
    cache = ScheduleCache()
    key = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    calls = []

    def builder():
        calls.append(1)
        return hdagg(g, cost, 4, 0.1)

    s1 = cache.get_or_build(key, builder)
    s2 = cache.get_or_build(key, builder)
    assert s1 is s2 and len(calls) == 1


def test_key_sensitive_to_parameters(dag_and_cost):
    g, _ = dag_and_cost
    base = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    assert schedule_key(g, kernel="sptrsv", p=4, epsilon=0.2) != base
    assert schedule_key(g, kernel="sptrsv", p=8, epsilon=0.1) != base
    assert schedule_key(g, kernel="spic0", p=4, epsilon=0.1) != base
    assert schedule_key(g, kernel="sptrsv", algorithm="lbc", p=4, epsilon=0.1) != base
    assert (
        schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1, options={"cap": 0.5}) != base
    )
    # same inputs -> same key (deterministic digest)
    assert schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1) == base


def test_key_sensitive_to_one_edge(dag_and_cost):
    g, _ = dag_and_cost
    src, dst = g.edge_list()
    assert g.n_edges > 0
    g_minus = DAG.from_edges(g.n, src[:-1], dst[:-1])  # drop one edge
    k1 = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    k2 = schedule_key(g_minus, kernel="sptrsv", p=4, epsilon=0.1)
    assert k1 != k2


def test_key_sensitive_to_cost_when_given(dag_and_cost):
    g, cost = dag_and_cost
    k1 = schedule_key(g, kernel="sptrsv", p=4, cost=cost)
    k2 = schedule_key(g, kernel="sptrsv", p=4, cost=cost * 2.0)
    assert k1 != k2


def test_cached_schedule_passes_dependence_validation(dag_and_cost):
    g, cost = dag_and_cost
    cache = ScheduleCache()
    key = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    cache.put(key, hdagg(g, cost, 4, 0.1))
    cached = cache.get(key)
    cached.validate(g)  # structural + dependence safety must hold


def test_lru_eviction():
    cache = ScheduleCache(max_entries=2)
    a = DAG.from_edges(3, [0, 1], [1, 2])
    b = DAG.from_edges(3, [0], [2])
    c = DAG.from_edges(3, [1], [2])
    cost = np.ones(3)
    keys = [schedule_key(g, p=2) for g in (a, b, c)]
    for g, k in zip((a, b, c), keys):
        cache.put(k, hdagg(g, cost, 2))
    assert len(cache) == 2
    assert keys[0] not in cache  # oldest evicted
    assert keys[1] in cache and keys[2] in cache
    cache.get(keys[1])  # refresh 1 -> 2 becomes LRU
    cache.put(keys[0], hdagg(a, cost, 2))
    assert keys[2] not in cache and keys[1] in cache


def test_invalid_max_entries():
    with pytest.raises(ValueError):
        ScheduleCache(max_entries=0)


def test_clear_resets():
    cache = ScheduleCache()
    g = DAG.from_edges(2, [0], [1])
    k = schedule_key(g, p=1)
    cache.put(k, hdagg(g, np.ones(2), 1))
    cache.get(k)
    cache.get("missing")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats == CacheStats(hits=0, misses=0, entries=0)


# ----------------------------------------------------------------------
# key pins: the digests must not move when the hashing gets faster
# ----------------------------------------------------------------------
def _pinned_dags():
    n = 20
    src = list(range(n - 1)) + list(range(n - 3))
    dst = [i + 1 for i in range(n - 1)] + [i + 3 for i in range(n - 3)]
    return {
        "empty-5": DAG.empty(5),
        "diamond-4": DAG.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3]),
        "skip-20": DAG.from_edges(n, src, dst),
    }


def _pinned_variants(g):
    base = dict(kernel="sptrsv", algorithm="hdagg", p=4)
    return {
        "plain": base,
        "cost": dict(base, cost=np.arange(g.n, dtype=np.float64) + 1.0),
        "options": dict(base, epsilon=0.5, backend="numpy", options={"sync": "p2p", "k": 3}),
    }


PINNED_KEYS = {
    ("empty-5", "plain"): "8e644ca0c4774d90a6e0f0b27900425c1b195b28fe2f98851f3d53cfc534ecc7",
    ("empty-5", "cost"): "9f1a77dfb6554640a5b065b38766af6f4aaf6284c22deddd66564a910dc28783",
    ("empty-5", "options"): "dc5aafd6c4e99cd9f31280bb88d98a0bd3a185f3a5ebcec91471d77f76027eab",
    ("diamond-4", "plain"): "fa81db9ca6906043aad54d2cce074a407f56e05e483fd067df03a82aa24e6811",
    ("diamond-4", "cost"): "98059187fb4ebaae880aa3a1fa7645f18986252b44d74d03d9458b97ddcde0f9",
    ("diamond-4", "options"): "bbe3b1da432670055551200eab9b76fafb897eea85d732cdf47f4a4e01ec457b",
    ("skip-20", "plain"): "44112640d6cedb0f8db7e04ab697f2d5390dd4a8279488a1cb9babbe1e06adf7",
    ("skip-20", "cost"): "e4e17cbf60e56b2eb05e55539f2fb2a2d203148f4a6df6e575b9d6df2ada4970",
    ("skip-20", "options"): "4b1655d13cd4038b314f20b0666ddd87c1f28554d5ae129c0892bb2a80678d71",
}


def test_keys_match_pinned_digests():
    got = {}
    for name, g in _pinned_dags().items():
        for variant, kwargs in _pinned_variants(g).items():
            # twice per DAG: the first call hashes the structure, the rest reuse it
            first = schedule_key(g, **kwargs)
            assert schedule_key(g, **kwargs) == first
            got[(name, variant)] = first
    assert got == PINNED_KEYS


def test_pickled_dag_keeps_its_key():
    import copy
    import pickle

    g = _pinned_dags()["skip-20"]
    key = schedule_key(g, p=4)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert schedule_key(clone, p=4) == key
    assert schedule_key(copy.deepcopy(g), p=4) == key
    assert not clone.indptr.flags.writeable and not clone.indices.flags.writeable


def test_structurally_different_dags_never_share_a_memo():
    dags = list(_pinned_dags().values()) + [
        DAG.from_edges(4, [0, 0, 1], [1, 2, 3]),  # the diamond minus one edge
        DAG.empty(4),
    ]
    keys = [schedule_key(g, p=4) for g in dags]
    assert len(set(keys)) == len(dags)
    # equal structure built separately: same key, one memo per object
    twin = DAG.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3])
    assert schedule_key(twin, p=4) == keys[1]
    assert twin._key_memo is not dags[1]._key_memo
