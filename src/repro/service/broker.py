"""Synchronous request broker: the core of the serving front door.

One :meth:`ScheduleBroker.request` call resolves a schedule for one
(structure, kernel, scheduler, p, ε, backend) key through a fixed
resolution ladder, each rung observable in the result's ``source``:

``memory``
    the in-process :class:`~repro.core.schedule_cache.ScheduleCache` (L1);
``store``
    the persistent :class:`~repro.store.ScheduleStore` (L2) — reads are
    retried with backoff on transient I/O errors, and every store hit is
    re-verified with ``verify_dependences`` before being served (a
    record that decodes but is unsafe for the request's DAG is
    quarantined, never returned);
``inspected``
    a fresh inspection through the
    ``hdagg→wavefront→serial`` degradation chain
    (:func:`~repro.resilience.degrade.inspect_with_fallback`), under
    whatever remains of the request's deadline, retried on injected
    worker crashes (``service.worker_crash``), then written through to
    the store and L1;
``coalesced``
    another thread was already inspecting the same key — the request
    waited (single-flight) and shares the leader's schedule.

Failure behaviour is structured, never silent: over-capacity requests
raise :class:`AdmissionRejected` immediately (bounded queue, shed — don't
buffer), expired deadlines raise :class:`DeadlineExceeded`, and both carry
machine-readable ``as_dict()`` payloads for the front door to return.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..core.schedule import Schedule
from ..core.schedule_cache import ScheduleCache, schedule_key
from ..graph.dag import DAG
from ..observability.state import STATE as _OBS_STATE
from ..observability.state import current_tracer
from ..observability.telemetry import FANIN_BUCKETS, LATENCY_BUCKETS, RequestContext
from ..resilience.degrade import inspect_with_fallback
from ..resilience.faults import FaultError, fault_point
from ..resilience.retry import RetryExhausted, retry_with_backoff
from ..store.store import ScheduleStore, StoreError

__all__ = [
    "ServeRequest",
    "ServeResult",
    "ServiceRejected",
    "AdmissionRejected",
    "DeadlineExceeded",
    "BrokerStats",
    "ScheduleBroker",
]


class ServiceRejected(RuntimeError):
    """A request the service declined, with a structured reason.

    ``payload`` is the machine-readable body the front door returns to
    the client instead of queueing unboundedly or timing out opaquely.
    """

    reason = "rejected"

    def __init__(self, message: str, **payload: Any) -> None:
        super().__init__(message)
        self.payload = {"reason": self.reason, "message": message, **payload}

    def as_dict(self) -> dict:
        return dict(self.payload)


class AdmissionRejected(ServiceRejected):
    """Load shed: the bounded inspection queue is full."""

    reason = "admission_full"


class DeadlineExceeded(ServiceRejected):
    """The request's deadline expired before a schedule could be served."""

    reason = "deadline_exceeded"


@dataclass
class ServeRequest:
    """One schedule request: the inspection problem plus serving policy.

    ``deadline`` is a per-request wall-clock budget in seconds; whatever
    remains when inspection starts becomes the degradation-chain budget,
    so a late request degrades (hdagg → wavefront → serial) rather than
    overshooting.  ``None`` means no deadline.
    """

    g: DAG
    cost: np.ndarray
    kernel: str = ""
    algorithm: str = "hdagg"
    p: int = 8
    epsilon: Optional[float] = None
    backend: Any = None
    deadline: Optional[float] = None
    options: Optional[dict] = None

    def key(self) -> str:
        """The store/cache digest for this request (see :func:`schedule_key`)."""
        return schedule_key(
            self.g,
            kernel=self.kernel,
            algorithm=self.algorithm,
            p=self.p,
            epsilon=self.epsilon,
            backend="" if self.backend is None else str(self.backend),
            options=self.options,
        )


@dataclass
class ServeResult:
    """A served schedule plus its provenance."""

    key: str
    schedule: Schedule
    source: str  # "memory" | "store" | "inspected" | "coalesced"
    algorithm: str
    requested: str
    degraded: bool = False
    degraded_from: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "source": self.source,
            "algorithm": self.algorithm,
            "requested": self.requested,
            "degraded": self.degraded,
            "degraded_from": self.degraded_from,
            "seconds": self.seconds,
            "n_levels": self.schedule.n_levels,
            "n_partitions": self.schedule.n_partitions,
        }


@dataclass(frozen=True)
class BrokerStats:
    """Lifetime counters of one broker (all requests, all threads)."""

    requests: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    inspected: int = 0
    coalesced: int = 0
    rejected: int = 0
    degraded: int = 0
    retries: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of completed requests served without a fresh inspection."""
        served = self.memory_hits + self.store_hits + self.inspected + self.coalesced
        return (self.memory_hits + self.store_hits + self.coalesced) / served if served else 0.0


class _Flight:
    """Single-flight rendezvous: the leader publishes, followers wait.

    ``followers`` is incremented under the broker's flights lock while
    the flight is still registered, so by the time the leader publishes
    (after deregistering) it is the final fan-in minus the leader.
    """

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[ServeResult] = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class ScheduleBroker:
    """Synchronous-core schedule server (wrap with the asyncio front door).

    Parameters
    ----------
    store:
        Optional persistent L2 (:class:`ScheduleStore`).  Without it the
        broker is a single-flight memoising server over L1 only.
    cache:
        In-process L1; a fresh unbounded :class:`ScheduleCache` by default.
    max_inflight:
        Bound on *concurrent fresh inspections* (the expensive path).
        Requests beyond it are shed with :class:`AdmissionRejected`;
        cache and store hits are never shed.
    store_retries / retry_base_delay:
        :func:`retry_with_backoff` policy for transient store reads and
        crashed inspection workers.
    validate:
        Re-verify L1 hits and store hits with ``verify_dependences``
        (without stamping the shared schedule's meta) before serving
        (the degradation chain always validates fresh
        inspections).  The check is one vectorized pass over the schedule
        and the request's DAG, well under a millisecond on a
        poisson2d(96) hit, so it is not the thing to switch off for
        latency: without it a corrupted cache entry or store record is
        served unchecked.
    """

    def __init__(
        self,
        store: Optional[ScheduleStore] = None,
        *,
        cache: Optional[ScheduleCache] = None,
        max_inflight: int = 8,
        store_retries: int = 2,
        retry_base_delay: float = 0.05,
        validate: bool = True,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store = store
        self.cache = cache if cache is not None else ScheduleCache()
        self.max_inflight = max_inflight
        self.store_retries = store_retries
        self.retry_base_delay = retry_base_delay
        self.validate = validate
        self._clock = clock
        self._sleep = sleep
        self._flights: Dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0, "memory_hits": 0, "store_hits": 0, "inspected": 0,
            "coalesced": 0, "rejected": 0, "degraded": 0, "retries": 0,
        }

    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += amount
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.counter(f"service.{name}").inc(amount)

    @property
    def stats(self) -> BrokerStats:
        with self._stats_lock:
            return BrokerStats(**self._counters)

    # ------------------------------------------------------------------
    def _remaining(self, req: ServeRequest, t0: float) -> Optional[float]:
        """Seconds left on the request's deadline (``None`` = unbounded)."""
        if req.deadline is None:
            return None
        return req.deadline - (self._clock() - t0)

    def _safe(self, schedule: Schedule, g: DAG) -> bool:
        if not self.validate:
            return True
        # a hit is shared by every caller of its key: verify it without
        # stamping the verify time into its meta
        from ..analysis.verifier import verify_dependences

        try:
            return verify_dependences(schedule, g, max_witnesses=1, stamp_meta=False).ok
        except Exception:
            return False

    # ------------------------------------------------------------------
    # telemetry helpers — all dormant behind the ambient switch
    def _observe_latency(self, tier: Optional[str], outcome: str, seconds: float) -> None:
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            reg = _OBS_STATE.registry
            if tier is not None:
                reg.histogram(f"service.latency.tier.{tier}", LATENCY_BUCKETS).observe(seconds)
            reg.histogram(f"service.latency.outcome.{outcome}", LATENCY_BUCKETS).observe(seconds)

    def _count_metric(self, name: str) -> None:
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.counter(f"service.{name}").inc()

    # ------------------------------------------------------------------
    def request(
        self, req: ServeRequest, *, telemetry: Optional[RequestContext] = None
    ) -> ServeResult:
        """Resolve one request through memory → store → inspection.

        ``telemetry`` is the front door's request envelope: its ``parent``
        context re-parents this worker thread's spans under the request's
        root span (the asyncio → thread handoff) and its ``t_admit`` dates
        the retrospective ``queue_wait`` span.  Broker-only callers leave
        it ``None`` and the broker span doubles as the request root.

        Raises :class:`AdmissionRejected` or :class:`DeadlineExceeded`
        (both structured); any other exception means every rung of the
        degradation chain failed, which for a well-formed DAG cannot
        happen (serial is always safe).
        """
        t0 = self._clock()
        self._bump("requests")
        key = req.key()
        tracer = current_tracer()
        parent = telemetry.parent if telemetry is not None else None
        with tracer.attach(parent):
            if telemetry is not None and tracer.enabled:
                # the executor queue wait ends now, on this thread — record
                # it retrospectively as the broker span's elder sibling
                now = tracer.clock()
                tracer.record_span(
                    "service.queue_wait", telemetry.t_admit, now,
                    parent=parent, request_id=telemetry.request_id,
                )
                if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                    _OBS_STATE.registry.histogram(
                        "service.queue_wait_seconds", LATENCY_BUCKETS
                    ).observe(now - telemetry.t_admit)
            span = tracer.span("service.broker", key=key[:12], algorithm=req.algorithm)
            with span:
                if telemetry is not None:
                    span.annotate(request_id=telemetry.request_id)
                try:
                    result = self._resolve(req, key, t0, span)
                except AdmissionRejected:
                    span.annotate(outcome="shed")
                    self._count_metric("sheds.broker")
                    self._observe_latency(None, "shed", self._clock() - t0)
                    raise
                except DeadlineExceeded:
                    span.annotate(outcome="deadline")
                    self._count_metric("deadline_misses")
                    self._observe_latency(None, "deadline", self._clock() - t0)
                    raise
                span.annotate(outcome=result.source, degraded=result.degraded)
                self._observe_latency(
                    result.source,
                    "degraded" if result.degraded else "ok",
                    result.seconds,
                )
                return result

    def _resolve(self, req: ServeRequest, key: str, t0: float, bspan) -> ServeResult:
        tracer = current_tracer()
        # L1 — validate hits (chaos can corrupt the cache; the harness
        # re-validates its hits for the same reason) and invalidate on
        # refutation so the slot heals
        with tracer.span("service.memory"):
            hit = self.cache.get(key)
        if hit is not None:
            with tracer.span("service.verify", tier="memory"):
                ok = self._safe(hit, req.g)
            if ok:
                self._bump("memory_hits")
                return ServeResult(
                    key=key, schedule=hit, source="memory",
                    algorithm=hit.algorithm, requested=req.algorithm,
                    seconds=self._clock() - t0,
                )
            self.cache.invalidate(key)

        # single-flight: exactly one thread leads each key
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                flight.followers += 1
                leader = False

        if not leader:
            return self._follow(req, key, flight, t0)

        try:
            result = self._lead(req, key, t0, bspan)
            flight.result = result
            return result
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(key, None)
            if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                _OBS_STATE.registry.histogram(
                    "service.coalesce_fanin", FANIN_BUCKETS
                ).observe(flight.followers + 1)
            flight.done.set()

    # ------------------------------------------------------------------
    def _follow(self, req: ServeRequest, key: str, flight: _Flight, t0: float) -> ServeResult:
        remaining = self._remaining(req, t0)
        with current_tracer().span("service.coalesce_wait", key=key[:12]):
            done = flight.done.wait(timeout=remaining)
        if not done:
            self._bump("rejected")
            raise DeadlineExceeded(
                f"deadline of {req.deadline:.3f}s expired waiting for the in-flight "
                f"inspection of {key[:12]}…",
                key=key, deadline=req.deadline, waited=self._clock() - t0,
            )
        if flight.error is not None:
            raise flight.error
        assert flight.result is not None
        self._bump("coalesced")
        return ServeResult(
            key=key,
            schedule=flight.result.schedule,
            source="coalesced",
            algorithm=flight.result.algorithm,
            requested=req.algorithm,
            degraded=flight.result.degraded,
            degraded_from=flight.result.degraded_from,
            seconds=self._clock() - t0,
        )

    # ------------------------------------------------------------------
    def _lead(self, req: ServeRequest, key: str, t0: float, bspan) -> ServeResult:
        tracer = current_tracer()
        # L2 — transient read errors are retried with backoff; quarantined
        # or absent records come back as a plain miss (None)
        if self.store is not None:
            def read():
                return self.store.get(key)

            with tracer.span("service.store.read", key=key[:12]):
                try:
                    stored = retry_with_backoff(
                        read,
                        retries=self.store_retries,
                        base_delay=self.retry_base_delay,
                        retry_on=(OSError, StoreError),
                        sleep=self._sleep,
                        on_retry=lambda n, exc: self._bump("retries"),
                    )
                except RetryExhausted:
                    stored = None  # store down: keep serving via inspection
            if stored is not None:
                with tracer.span("service.verify", tier="store"):
                    safe = self._safe(stored, req.g)
                if safe:
                    self.cache.put(key, stored)
                    self._bump("store_hits")
                    return ServeResult(
                        key=key, schedule=stored, source="store",
                        algorithm=stored.algorithm, requested=req.algorithm,
                        seconds=self._clock() - t0,
                    )
                # decodes fine but unsafe for this DAG (e.g. foreign or
                # stale record under a colliding key): never serve it
                bspan.annotate(quarantined=True)
                self.store.quarantine_key(key, "failed assert_schedule_safe for request DAG")

        # admission control: bound the expensive path, shed the excess
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self._bump("rejected")
                raise AdmissionRejected(
                    f"{self._inflight} inspections in flight (capacity {self.max_inflight})",
                    key=key, inflight=self._inflight, capacity=self.max_inflight,
                )
            self._inflight += 1
        try:
            remaining = self._remaining(req, t0)
            if remaining is not None and remaining <= 0:
                self._bump("rejected")
                raise DeadlineExceeded(
                    f"deadline of {req.deadline:.3f}s expired before inspection",
                    key=key, deadline=req.deadline,
                )

            def work():
                fault_point("service.worker_crash", label=key)
                return inspect_with_fallback(
                    req.algorithm,
                    req.g,
                    req.cost,
                    req.p,
                    epsilon=req.epsilon,
                    budget=self._remaining(req, t0),
                    backend=req.backend,
                )

            with tracer.span("service.inspect", algorithm=req.algorithm):
                outcome = retry_with_backoff(
                    work,
                    retries=self.store_retries,
                    base_delay=self.retry_base_delay,
                    retry_on=(FaultError, OSError),
                    sleep=self._sleep,
                    on_retry=lambda n, exc: self._bump("retries"),
                )
        finally:
            with self._inflight_lock:
                self._inflight -= 1

        if outcome.degraded:
            self._bump("degraded")
            tracer.instant(
                "service.degrade",
                requested=req.algorithm,
                served=outcome.algorithm,
                degraded_from=outcome.degraded_from,
            )
        # write-through, best effort: persistence failures (including
        # injected store faults) must not fail a request that holds a
        # perfectly good schedule — degraded schedules are not persisted,
        # matching the harness's never-cache-degraded rule
        if self.store is not None and not outcome.degraded:
            with tracer.span("service.store.write", key=key[:12]):
                try:
                    self.store.put(key, outcome.schedule)
                except Exception:
                    if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
                        _OBS_STATE.registry.counter("service.store_write_errors").inc()
        self.cache.put(key, outcome.schedule)
        self._bump("inspected")
        return ServeResult(
            key=key,
            schedule=outcome.schedule,
            source="inspected",
            algorithm=outcome.algorithm,
            requested=req.algorithm,
            degraded=outcome.degraded,
            degraded_from=outcome.degraded_from,
            seconds=self._clock() - t0,
        )
