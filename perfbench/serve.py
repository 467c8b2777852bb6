"""The ``serve-hot`` and ``serve-cold`` workloads: requests through ``FrontDoor``.

Set-up builds the catalog (poisson2d structures, nested-dissection
ordering, kernel DAGs), then primes the service: ``serve-hot`` inspects its
whole catalog into L1 through the broker it will measure; ``serve-cold``
persists part of its catalog to a fresh ``ScheduleStore`` through a
separate broker, and measures a new broker over a reopened store with a
bounded L1.

The measured phase alternates segments of an open loop of Poisson arrivals
with segments of a closed loop with one client per front-door worker.
After timing stops, every distinct served schedule is checked with the
benchmark's own oracle.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import os
import shutil
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from inputs import (
    SERVE_SHAPES,
    catalog_dims,
    catalog_keys,
    persisted_keys,
    request_stream,
)
from loadgen import Outcome, closed_loop, open_loop, quantile_ms
from oracle import Layout, layout_of, layout_problems
from spans import Profile, Recorder, TimedBroker, TimedStore, timed_cache


def workers() -> int:
    """Front-door pool width: two, or fewer on a smaller machine."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Entry:
    """One catalog key: a kernel DAG plus the request parameters."""

    g: object
    cost: np.ndarray
    kernel: str
    p: int


@dataclass
class ServeSetup:
    workload: str
    broker: object  # the ScheduleBroker (or its timing proxy) the door serves
    door: object
    open_requests: list
    offsets: np.ndarray
    closed_requests: list
    stream_digest: str
    cache: object
    store: Optional[object] = None


def build_catalog(workload: str, seed: int) -> List[Entry]:
    """Generate, order and derive every catalog key's DAG and cost."""
    from repro.kernels import KERNELS
    from repro.sparse import lower_triangle, poisson2d

    ordering = importlib.import_module("repro.sparse.ordering")

    ordered = [
        ordering.apply_ordering(poisson2d(nx, ny, seed=seed), "nd")[0]
        for nx, ny in catalog_dims(workload, seed)
    ]
    dags: Dict[tuple, tuple] = {}
    entries = []
    for s, kname, p in catalog_keys(workload, seed):
        if (s, kname) not in dags:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered[s]) if kname == "sptrsv" else ordered[s]
            dags[s, kname] = (kernel.dag(operand), kernel.cost(operand))
        g, cost = dags[s, kname]
        entries.append(Entry(g=g, cost=cost, kernel=kname, p=p))
    return entries


def _request(e: Entry):
    from repro.service import ServeRequest

    return ServeRequest(g=e.g, cost=e.cost, kernel=e.kernel, algorithm="hdagg", p=e.p)


def setup(
    workload: str, seed: int, n_open: int, workdir: Path, rec: Optional[Recorder] = None
) -> ServeSetup:
    """Build the catalog and a primed service; ``rec`` makes it a traced one."""
    from repro.core.schedule_cache import ScheduleCache
    from repro.service import FrontDoor, ScheduleBroker
    from repro.store import ScheduleStore

    shape = SERVE_SHAPES[workload]
    entries = build_catalog(workload, seed)

    store = None
    if shape.persisted_share > 0:
        if workdir.exists():
            shutil.rmtree(workdir)
        writer = ScheduleBroker(ScheduleStore(workdir), cache=ScheduleCache(shape.l1_entries))
        for i in persisted_keys(workload, seed):
            writer.request(_request(entries[i]))
        store = ScheduleStore(workdir)  # reopened, as a restarted server would
        if rec is not None:
            store = TimedStore(store, rec)
    if rec is not None:
        cache = timed_cache(rec, max_entries=shape.l1_entries)
    else:
        cache = ScheduleCache(max_entries=shape.l1_entries)
    broker = ScheduleBroker(store, cache=cache)
    if shape.persisted_share == 0:
        for e in entries:  # prime L1 with the whole catalog
            broker.request(_request(e))

    stream = request_stream(workload, seed, n_open)
    open_requests = [_request(entries[int(i)]) for i in stream.picks]
    closed_requests = [_request(entries[int(i)]) for i in stream.closed_picks]
    rid_of = {id(r): i for i, r in enumerate(open_requests)}
    served = TimedBroker(broker, rec, rid_of) if rec is not None else broker
    door = FrontDoor(served, max_workers=workers(), max_pending=128)
    return ServeSetup(
        workload=workload, broker=broker, door=door,
        open_requests=open_requests, offsets=stream.offsets, closed_requests=closed_requests,
        stream_digest=stream.digest(), cache=cache, store=store,
    )


@dataclass
class Served:
    """What the benchmark keeps of one reply."""

    key: str
    source: str
    algorithm: str
    degraded: bool
    layout: Layout


class Replies:
    """Turns replies into :class:`Served`, sharing one layout per schedule.

    The benchmark must not grow the heap it measures: keeping thousands of
    decoded ``Schedule`` object graphs would lengthen the program's garbage
    collection pauses, and a layout per reply would inflate its memory.  A
    schedule served again (an L1 hit returns the same object) reuses its
    layout through a weak reference; a fresh object with known content
    shares the stored layout of that content.
    """

    def __init__(self) -> None:
        self._by_id: Dict[int, tuple] = {}
        self._by_digest: Dict[str, Layout] = {}

    def served(self, result) -> Served:
        sched = result.schedule
        known = self._by_id.get(id(sched))
        if known is not None and known[0]() is sched:
            layout = known[1]
        else:
            layout = layout_of(sched)
            layout = self._by_digest.setdefault(layout.digest(), layout)
            self._by_id[id(sched)] = (weakref.ref(sched), layout)
        return Served(result.key, result.source, result.algorithm, result.degraded, layout)


@dataclass
class ServePhase:
    open: List[Outcome]
    closed: List[Outcome]
    closed_seconds: float
    wall: float
    broker_stats: dict
    cache_hit_ratio: float
    store_stats: Optional[dict]
    store_bytes: int
    marks: Dict[int, tuple]
    problems: List[str] = field(default_factory=list)
    attempted: int = 0


def _stats_delta(before, after) -> dict:
    return {k: getattr(after, k) - getattr(before, k) for k in vars(before)}


#: the open loop and the closed loop each run in this many alternating segments
SEGMENTS = 5


def measure(s: ServeSetup, closed_seconds: float, rec: Optional[Recorder] = None) -> ServePhase:
    """Run the open and closed loops in alternating segments; then check every reply."""
    from repro.service import ServiceRejected

    broker_before = s.broker.stats
    cache_before = s.cache.stats
    store_bytes_before = s.store.total_bytes() if s.store is not None else 0
    store_before = s.store.stats if s.store is not None else None
    marks: Dict[int, tuple] = {}
    replies = Replies()

    async def submit(i: int, req):
        return replies.served(await s.door.submit(req))

    async def marked(i: int, req):
        t0 = rec.clock()
        try:
            result = await s.door.submit(req)
        finally:
            marks[i] = (t0, rec.clock())
        return replies.served(result)

    async def run():
        # open- and closed-loop segments alternate, so each phase samples
        # the whole run rather than one stretch of a shared host's load
        opened, closed, elapsed = [], [], 0.0
        bounds = np.linspace(0, len(s.open_requests), SEGMENTS + 1).astype(int)
        for a, b in zip(bounds[:-1], bounds[1:]):
            base = s.offsets[a - 1] if a else 0.0
            opened += await open_loop(
                marked if rec is not None else submit, s.open_requests[a:b],
                s.offsets[a:b] - base, failures=(ServiceRejected,), first=int(a),
            )
            outs, dt = await closed_loop(
                submit, s.closed_requests, clients=workers(),
                duration=closed_seconds / SEGMENTS, failures=(ServiceRejected,),
                first=len(closed),
            )
            closed += outs
            elapsed += dt
        return opened, closed, elapsed

    t0 = time.perf_counter()
    try:
        opened, closed, elapsed = asyncio.run(run())
    finally:
        s.door.close()
    wall = time.perf_counter() - t0
    broker_after = s.broker.stats
    cache_after = s.cache.stats
    hits = cache_after.hits - cache_before.hits
    lookups = hits + cache_after.misses - cache_before.misses
    phase = ServePhase(
        open=opened,
        closed=closed,
        closed_seconds=elapsed,
        wall=wall,
        broker_stats=_stats_delta(broker_before, broker_after),
        cache_hit_ratio=hits / lookups if lookups else 0.0,
        store_stats=(
            _stats_delta(store_before, s.store.stats) if s.store is not None else None
        ),
        store_bytes=(s.store.total_bytes() - store_bytes_before) if s.store is not None else 0,
        marks=marks,
    )
    check(s, phase)
    return phase


def check(s: ServeSetup, phase: ServePhase) -> None:
    """Fail every request that was refused, degraded, or served unsafely."""
    verdicts: Dict[tuple, List[str]] = {}
    for requests, outcomes in ((s.open_requests, phase.open), (s.closed_requests, phase.closed)):
        for out in outcomes:
            phase.attempted += 1
            req = requests[out.index % len(requests)]
            if not out.ok:
                phase.problems.append(f"request {out.index}: {type(out.error).__name__}")
                continue
            if out.result.degraded:
                phase.problems.append(f"request {out.index}: degraded to {out.result.algorithm}")
                continue
            seen = (out.result.key, out.result.layout.digest())
            if seen not in verdicts:
                verdicts[seen] = layout_problems(out.result.layout, req.g)
            if verdicts[seen]:
                phase.problems.append(f"request {out.index}: {verdicts[seen][0]}")


def deterministic_outputs(s: ServeSetup, phase: ServePhase) -> dict:
    """Outputs of the open loop that timing must not change."""
    by_key: Dict[str, set] = {}
    for out in phase.open:
        if out.ok:
            by_key.setdefault(out.result.key, set()).add(out.result.layout.digest())
    sources = Counter(o.result.source for o in phase.open if o.ok)
    if s.workload == "serve-cold":
        # which of L1, store or a coalesced wait serves a repeat depends on
        # completion order; how many keys needed a fresh inspection does not
        sources = Counter(inspected=sources["inspected"])
    return {
        "requests": s.stream_digest,
        "schedules": hashlib.sha256(
            repr(sorted((k, sorted(v)) for k, v in by_key.items())).encode()
        ).hexdigest()[:16],
        "sources": dict(sorted(sources.items())),
    }


def end_to_end(phase: ServePhase) -> dict:
    """Capacity, and median open-loop latency from each request's due time."""
    completed = sum(1 for o in phase.closed if o.ok)
    return {
        "throughput_per_s": completed / phase.closed_seconds if phase.closed_seconds else 0.0,
        "p50_ms": quantile_ms([o.latency for o in phase.open], 0.50),
    }


#: the open loop is cut into this many consecutive windows for :func:`tail_p99_ms`
P99_WINDOWS = 3


def tail_p99_ms(phase: ServePhase) -> float:
    """Median of the p99s of :data:`P99_WINDOWS` consecutive open-loop windows.

    One host-side stall can hold up a percent of a run's requests and set a
    pooled p99 alone, while a slowdown that recurs still moves most windows.
    """
    windows = np.array_split(np.asarray([o.latency for o in phase.open], dtype=float),
                             P99_WINDOWS)
    return float(np.median([quantile_ms(w, 0.99) for w in windows]))


def per_layer(prof: Profile, phase: ServePhase) -> dict:
    """The serving stack's per-layer numbers, from spans and counters."""
    m: Dict[str, float] = {}
    brokers = {sp.rid: sp for sp in prof.spans if sp.name == "service.broker" and sp.rid is not None}
    waits, handoffs, unattributed = [], [], []
    for i, (t_submit, t_return) in phase.marks.items():
        sp = brokers.get(i)
        if sp is None:
            continue
        waits.append(sp.start - t_submit)
        handoffs.append(t_return - sp.end)
    for sp in prof.spans:
        if sp.name == "service.broker":
            unattributed.append(prof.self_seconds[id(sp)])
    m["service.frontdoor.queue_wait.p50_ms"] = quantile_ms(waits, 0.50)
    m["service.frontdoor.queue_wait.p99_ms"] = quantile_ms(waits, 0.99)
    m["service.frontdoor.handoff.p50_ms"] = quantile_ms(handoffs, 0.50)
    m["service.frontdoor.handoff.p99_ms"] = quantile_ms(handoffs, 0.99)
    m["service.frontdoor.shed"] = sum(
        1 for o in phase.open + phase.closed
        if o.error is not None and "pending" in getattr(o.error, "payload", {})
    )
    m["service.unattributed.p50_ms"] = quantile_ms(unattributed, 0.50)
    m["service.unattributed.p99_ms"] = quantile_ms(unattributed, 0.99)
    for tier in ("memory", "store", "inspected", "coalesced"):
        d = [sp.seconds for sp in prof.spans
             if sp.name == "service.broker" and sp.attrs.get("source") == tier]
        m[f"service.broker.{tier}.p50_ms"] = quantile_ms(d, 0.50)
        m[f"service.broker.{tier}.p99_ms"] = quantile_ms(d, 0.99)
        m[f"service.broker.{tier}.count"] = len(d)
    st = phase.broker_stats
    served = st["memory_hits"] + st["store_hits"] + st["inspected"] + st["coalesced"]
    m["service.broker.hit_ratio"] = (
        (st["memory_hits"] + st["store_hits"] + st["coalesced"]) / served if served else 0.0
    )
    for name in ("rejected", "degraded", "retries"):
        m[f"service.broker.{name}"] = st[name]
    m["core.schedule_cache.hit_ratio"] = phase.cache_hit_ratio
    m["store.get.p50_ms"] = prof.p_ms("store.get", 0.50)
    m["store.put.p50_ms"] = prof.p_ms("store.put", 0.50)
    m["store.put.bytes"] = phase.store_bytes
    ss = phase.store_stats or {}
    lookups = ss.get("hits", 0) + ss.get("misses", 0)
    m["store.hit_ratio"] = ss.get("hits", 0) / lookups if lookups else 0.0
    m["store.quarantined"] = ss.get("quarantined", 0)
    late = [o.late for o in phase.open]
    m["loadgen.late_p99_ms"] = quantile_ms(late, 0.99)
    m["loadgen.late_max_ms"] = max(late) * 1e3 if late else 0.0
    return m
