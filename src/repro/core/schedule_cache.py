"""Structure-keyed schedule cache.

Inspector output is a pure function of the dependence DAG's structure and
the scheduling parameters — re-running HDagg on the same sparsity pattern
with the same ``(kernel, algorithm, p, epsilon, options)`` always yields
the same schedule.  Solver pipelines exploit exactly this: a
factorization's pattern is fixed across hundreds of triangular solves, and
amortizing one inspection over them is what makes inspector-executor
frameworks pay off (the paper's NRE metric, Section V-D).

The key is a SHA-256 digest over the CSR structure bytes (``indptr`` and
``indices``) plus a canonical encoding of the parameters; two DAGs collide
only if they are structurally identical, in which case sharing the
schedule is precisely the point.  Entries are kept in LRU order with an
optional capacity bound, and hit/miss counters make cache effectiveness
observable from the harness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Optional

import numpy as np

from ..graph.dag import DAG
from ..observability.state import STATE as _OBS_STATE
from ..resilience.faults import fault_point
from .schedule import Schedule

__all__ = ["CacheStats", "ScheduleCache", "schedule_key"]

_KEY_VERSION = b"repro-schedule-key-v2\0"


def _structure_hash(g: DAG):
    """The sha256 state after the key version and ``g``'s structure, memoised on ``g``."""
    h = g._key_memo
    if h is None:
        h = sha256(_KEY_VERSION)
        h.update(np.int64(g.n).tobytes())
        h.update(np.int64(g.n_edges).tobytes())
        h.update(np.ascontiguousarray(g.indptr).tobytes())
        h.update(np.ascontiguousarray(g.indices).tobytes())
        g._key_memo = h
    return h


def schedule_key(
    g: DAG,
    *,
    kernel: str = "",
    algorithm: str = "hdagg",
    p: int,
    epsilon: float | None = None,
    cost: np.ndarray | None = None,
    backend: str = "",
    options: dict | None = None,
) -> str:
    """Digest identifying one inspection problem.

    Covers the DAG structure (``indptr``/``indices`` bytes — the full CSR
    pattern), the kernel and algorithm names, the core count, epsilon, the
    active backend spec, and any extra keyword options (sorted by name,
    ``repr``-encoded).  ``cost`` is optional because kernels derive it
    deterministically from the pattern; pass it when costs come from
    elsewhere.  ``backend`` keeps schedules produced by different inspector
    tiers in distinct slots — tiers are bit-identical by contract, but a
    cache hit must never mask a tier divergence from the differential
    tests, and provenance (which tier built this schedule) must stay exact.
    """
    h = _structure_hash(g).copy()
    if cost is not None:
        h.update(b"cost\0")
        h.update(np.ascontiguousarray(cost, dtype=np.float64).tobytes())
    params = (
        kernel,
        algorithm,
        int(p),
        None if epsilon is None else float(epsilon),
        str(backend),
        sorted((options or {}).items()),
    )
    h.update(repr(params).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/entry counters of one :class:`ScheduleCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ScheduleCache:
    """LRU map from :func:`schedule_key` digests to schedules.

    ``max_entries=None`` means unbounded (the harness's per-suite default:
    a suite holds a few hundred schedules at most).  Stored schedules are
    returned as-is — they are treated as immutable by every consumer.

    ``store`` optionally backs the cache with a persistent L2 — any
    object with ``get(key) -> Schedule | None`` and ``put(key, schedule)``
    (duck-typed so this module never imports :mod:`repro.store`; in
    practice a :class:`repro.store.ScheduleStore`).  Misses fall through
    to the store (promoting hits into the LRU), and :meth:`put` writes
    through best-effort — a store write failure never fails the caller,
    because the in-memory entry is already good.
    """

    def __init__(self, max_entries: Optional[int] = None, *, store=None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[str, Schedule]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, key: str) -> Optional[Schedule]:
        """Look up a schedule; counts a hit or a miss.

        The ``schedule_cache.get`` fault site lets chaos runs hand back a
        deterministically corrupted schedule on a hit — consumers that
        re-validate hits (the harness) must catch it and fall back to a
        fresh inspection.
        """
        entry = self._entries.get(key)
        if entry is None:
            if self.store is not None:
                promoted = self.store.get(key)
                if promoted is not None:
                    # L2 hit: promote into the LRU (bypassing the write-
                    # through — the store already holds it) and serve
                    self._entries[key] = promoted
                    self._entries.move_to_end(key)
                    self._shrink_to_capacity()
                    self._hits += 1
                    if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                        _OBS_STATE.registry.counter("schedule_cache.store_hits").inc()
                        _OBS_STATE.registry.gauge("schedule_cache.entries").set(
                            len(self._entries)
                        )
                    return promoted
            self._misses += 1
            if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                _OBS_STATE.registry.counter("schedule_cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.counter("schedule_cache.hits").inc()
        injected = fault_point("schedule_cache.get", payload=entry, label=key)
        if injected is not None:
            return injected
        return entry

    def invalidate(self, key: str) -> bool:
        """Drop one entry (cache-corruption recovery); True when it existed."""
        return self._entries.pop(key, None) is not None

    def _shrink_to_capacity(self) -> None:
        """Evict LRU entries past ``max_entries``, counting each one."""
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                _OBS_STATE.registry.counter("schedule_cache.evictions").inc()

    def put(self, key: str, schedule: Schedule) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if over capacity.

        With a ``store`` attached the entry is also written through —
        best-effort, because the in-memory copy already serves this
        process and a persistence hiccup must not fail the inspection
        that produced the schedule.
        """
        self._entries[key] = schedule
        self._entries.move_to_end(key)
        self._shrink_to_capacity()
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.gauge("schedule_cache.entries").set(len(self._entries))
        if self.store is not None:
            try:
                self.store.put(key, schedule)
            except Exception:
                if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                    _OBS_STATE.registry.counter("schedule_cache.store_write_errors").inc()

    def get_or_build(self, key: str, builder: Callable[[], Schedule]) -> Schedule:
        """Return the cached schedule or build-and-store it."""
        found = self.get(key)
        if found is not None:
            return found
        built = builder()
        self.put(key, built)
        return built

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses, entries=len(self._entries))

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
