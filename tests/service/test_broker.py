"""ScheduleBroker: the resolution ladder, single-flight, shedding, healing.

Concurrency tests block the leader inside a patched
``inspect_with_fallback`` and release it with events, so every interleaving
is forced rather than raced.
"""

import copy
import threading
import time

import pytest

from repro.analysis.verifier import assert_schedule_safe
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.resilience.retry import RetryExhausted
from repro.service import (
    AdmissionRejected,
    DeadlineExceeded,
    ScheduleBroker,
    ServiceRejected,
)
from repro.service import broker as broker_mod
from repro.store import ScheduleStore


class SlowInspect:
    """Patchable stand-in that blocks until released, counting calls."""

    def __init__(self, monkeypatch):
        self.real = broker_mod.inspect_with_fallback
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        monkeypatch.setattr(broker_mod, "inspect_with_fallback", self)

    def __call__(self, algorithm, g, cost, p, **kwargs):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10), "test never released the inspector"
        return self.real(algorithm, g, cost, p, **kwargs)


def wait_for_waiters(event: threading.Event, n: int, timeout: float = 5.0) -> None:
    """Block until ``n`` threads wait on ``event`` (CPython internals; falls
    back to a fixed sleep if the attribute shape ever changes)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            waiters = len(event._cond._waiters)
        except AttributeError:
            time.sleep(0.3)
            return
        if waiters >= n:
            return
        time.sleep(0.005)
    raise AssertionError(f"never saw {n} waiters on the flight")


class TestResolutionLadder:
    def test_miss_then_memory(self, request_a):
        broker = ScheduleBroker()
        first = broker.request(request_a)
        assert first.source == "inspected"
        assert not first.degraded
        assert_schedule_safe(first.schedule, request_a.g)
        second = broker.request(request_a)
        assert second.source == "memory"
        assert second.schedule is first.schedule
        s = broker.stats
        assert (s.requests, s.inspected, s.memory_hits) == (2, 1, 1)
        assert s.hit_rate == 0.5

    def test_memory_hits_leave_the_served_schedule_meta_unchanged(self, request_a):
        """Every hit on a key serves one shared Schedule object, so
        re-verifying a hit must not write into it (stage timings grew by
        one verify time per hit, and concurrent workers raced on the dict)."""
        broker = ScheduleBroker()
        served = broker.request(request_a).schedule
        before = copy.deepcopy(served.meta)
        for _ in range(3):
            hit = broker.request(request_a)
            assert hit.source == "memory" and hit.schedule is served
        assert served.meta == before

    def test_store_hit_survives_process_restart(self, tmp_path, request_a):
        root = tmp_path / "store"
        ScheduleBroker(ScheduleStore(root)).request(request_a)
        # "new process": fresh broker, fresh cache, same disk
        broker = ScheduleBroker(ScheduleStore(root))
        result = broker.request(request_a)
        assert result.source == "store"
        assert_schedule_safe(result.schedule, request_a.g)
        assert broker.request(request_a).source == "memory"  # promoted to L1

    def test_distinct_requests_get_distinct_keys(self, request_a, request_b):
        assert request_a.key() != request_b.key()
        broker = ScheduleBroker()
        broker.request(request_a)
        assert broker.request(request_b).source == "inspected"

    def test_result_payload_is_structured(self, request_a):
        d = ScheduleBroker().request(request_a).as_dict()
        assert d["source"] == "inspected"
        assert d["requested"] == "hdagg"
        assert d["n_levels"] > 0 and d["seconds"] >= 0


class TestSingleFlight:
    def test_concurrent_requests_coalesce_onto_one_inspection(self, request_a, monkeypatch):
        slow = SlowInspect(monkeypatch)
        broker = ScheduleBroker()
        results, errors = {}, {}

        def go(i):
            try:
                results[i] = broker.request(request_a)
            except BaseException as exc:  # pragma: no cover - failure path
                errors[i] = exc

        leader = threading.Thread(target=go, args=(0,))
        leader.start()
        assert slow.entered.wait(5)
        followers = [threading.Thread(target=go, args=(i,)) for i in (1, 2, 3)]
        for t in followers:
            t.start()
        with broker._flights_lock:
            (flight,) = broker._flights.values()
        wait_for_waiters(flight.done, 3)
        slow.release.set()
        leader.join(10)
        for t in followers:
            t.join(10)
        assert errors == {}
        assert slow.calls == 1, "single-flight must coalesce onto one inspection"
        assert results[0].source == "inspected"
        assert sorted(r.source for i, r in results.items() if i) == ["coalesced"] * 3
        for r in results.values():
            assert r.schedule is results[0].schedule
        assert broker.stats.coalesced == 3

    def test_leader_failure_propagates_to_followers(self, request_a, monkeypatch):
        slow = SlowInspect(monkeypatch)
        broker = ScheduleBroker()
        boom = RuntimeError("inspector exploded")

        def exploding(algorithm, g, cost, p, **kwargs):
            slow.entered.set()
            assert slow.release.wait(10)
            raise boom

        monkeypatch.setattr(broker_mod, "inspect_with_fallback", exploding)
        outcomes = {}

        def go(i):
            try:
                outcomes[i] = broker.request(request_a)
            except BaseException as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=go, args=(0,))]
        threads[0].start()
        assert slow.entered.wait(5)
        threads.append(threading.Thread(target=go, args=(1,)))
        threads[1].start()
        with broker._flights_lock:
            (flight,) = broker._flights.values()
        wait_for_waiters(flight.done, 1)
        slow.release.set()
        for t in threads:
            t.join(10)
        # RuntimeError is not in the retry set, so it propagates as-is —
        # to the leader directly and to every follower via the flight
        assert all(v is boom for v in outcomes.values()), outcomes
        # the flight is cleaned up: the key is retryable afterwards
        monkeypatch.setattr(broker_mod, "inspect_with_fallback", slow.real)
        assert broker.request(request_a).source == "inspected"


class TestAdmissionControl:
    def test_excess_inspections_are_shed_with_structure(self, request_a, request_b, monkeypatch):
        slow = SlowInspect(monkeypatch)
        broker = ScheduleBroker(max_inflight=1)
        t = threading.Thread(target=broker.request, args=(request_a,))
        t.start()
        assert slow.entered.wait(5)
        with pytest.raises(AdmissionRejected) as exc_info:
            broker.request(request_b)
        payload = exc_info.value.as_dict()
        assert payload["reason"] == "admission_full"
        assert payload["capacity"] == 1 and payload["inflight"] == 1
        assert isinstance(exc_info.value, ServiceRejected)
        slow.release.set()
        t.join(10)
        assert broker.stats.rejected == 1
        # capacity freed: the shed key now serves fine
        assert broker.request(request_b).source == "inspected"

    def test_cache_hits_are_never_shed(self, request_a, request_b, monkeypatch):
        broker = ScheduleBroker(max_inflight=1)
        broker.request(request_a)  # primes L1
        slow = SlowInspect(monkeypatch)
        t = threading.Thread(target=broker.request, args=(request_b,))
        t.start()
        assert slow.entered.wait(5)
        assert broker.request(request_a).source == "memory"  # sails through
        slow.release.set()
        t.join(10)


class TestDeadlines:
    def test_expired_deadline_rejects_before_inspection(self, request_a):
        request_a.deadline = 0.0
        broker = ScheduleBroker()
        with pytest.raises(DeadlineExceeded) as exc_info:
            broker.request(request_a)
        assert exc_info.value.as_dict()["reason"] == "deadline_exceeded"
        assert broker.stats.rejected == 1

    def test_remaining_deadline_becomes_the_degradation_budget(self, request_a, monkeypatch):
        """The wiring the ISSUE names: what's left of the request deadline
        when inspection starts is handed to inspect_with_fallback as its
        hdagg→wavefront→serial budget."""
        now = [100.0]
        seen = {}
        real = broker_mod.inspect_with_fallback

        def spy(algorithm, g, cost, p, **kwargs):
            seen["budget"] = kwargs["budget"]
            return real(algorithm, g, cost, p, **kwargs)

        monkeypatch.setattr(broker_mod, "inspect_with_fallback", spy)
        broker = ScheduleBroker(clock=lambda: now[0])
        request_a.deadline = 2.5
        broker.request(request_a)  # the fake clock never advances
        assert seen["budget"] == pytest.approx(2.5)

    def test_follower_deadline_expires_while_waiting(self, request_a, monkeypatch):
        slow = SlowInspect(monkeypatch)
        broker = ScheduleBroker()
        t = threading.Thread(target=broker.request, args=(request_a,))
        t.start()
        assert slow.entered.wait(5)
        late = ServeRequest_copy(request_a, deadline=0.05)
        with pytest.raises(DeadlineExceeded) as exc_info:
            broker.request(late)
        assert exc_info.value.as_dict()["waited"] >= 0.05
        slow.release.set()
        t.join(10)


def ServeRequest_copy(req, **overrides):
    from dataclasses import replace

    return replace(req, **overrides)


class TestFaultTolerance:
    def test_worker_crash_is_retried(self, request_a):
        broker = ScheduleBroker(retry_base_delay=0.0)
        plan = FaultPlan([FaultSpec("service.worker_crash", "raise", at=0)])
        with armed(plan):
            result = broker.request(request_a)
        assert result.source == "inspected"
        assert_schedule_safe(result.schedule, request_a.g)
        assert broker.stats.retries == 1

    def test_persistent_worker_crash_exhausts_retries(self, request_a):
        broker = ScheduleBroker(retry_base_delay=0.0, store_retries=2)
        plan = FaultPlan([FaultSpec("service.worker_crash", "raise", at=0, times=-1)])
        with armed(plan):
            with pytest.raises(RetryExhausted):
                broker.request(request_a)
        assert broker.stats.retries == 2

    def test_corrupted_l1_hit_heals(self, request_a):
        broker = ScheduleBroker()
        broker.request(request_a)
        plan = FaultPlan([FaultSpec("schedule_cache.get", "corrupt", at=0)])
        with armed(plan):
            result = broker.request(request_a)
        # the corrupt hit was refuted, invalidated, and re-resolved
        assert result.source == "inspected"
        assert_schedule_safe(result.schedule, request_a.g)
        assert broker.request(request_a).source == "memory"  # slot healed

    def test_unsafe_store_record_is_quarantined_not_served(self, tmp_path, request_a, request_b):
        store = ScheduleStore(tmp_path / "store", durable=False)
        foreign = ScheduleBroker().request(request_b).schedule
        store.put(request_a.key(), foreign)  # decodes fine, wrong DAG
        broker = ScheduleBroker(store)
        result = broker.request(request_a)
        assert result.source == "inspected"
        assert_schedule_safe(result.schedule, request_a.g)
        assert [e.reason for e in store.events] == [
            "failed assert_schedule_safe for request DAG"
        ]

    def test_transient_store_read_errors_are_retried(self, tmp_path, request_a):
        real = ScheduleStore(tmp_path / "store", durable=False)
        ScheduleBroker(real).request(request_a)  # populate

        class Flaky:
            def __init__(self, inner, failures):
                self.inner, self.failures = inner, failures

            def get(self, key):
                if self.failures:
                    raise self.failures.pop()
                return self.inner.get(key)

            def put(self, key, s):
                self.inner.put(key, s)

            def quarantine_key(self, key, reason):
                return self.inner.quarantine_key(key, reason)

        broker = ScheduleBroker(
            Flaky(ScheduleStore(tmp_path / "store"), [OSError("EIO")]),
            retry_base_delay=0.0,
        )
        result = broker.request(request_a)
        assert result.source == "store"
        assert broker.stats.retries == 1

    def test_store_down_degrades_to_inspection(self, request_a):
        class Down:
            def get(self, key):
                raise OSError("store unreachable")

            def put(self, key, s):
                raise OSError("store unreachable")

            def quarantine_key(self, key, reason):
                return False

        broker = ScheduleBroker(Down(), retry_base_delay=0.0, store_retries=1)
        result = broker.request(request_a)  # must not raise
        assert result.source == "inspected"
        assert_schedule_safe(result.schedule, request_a.g)

    def test_degraded_schedules_are_not_persisted(self, tmp_path, request_a, monkeypatch):
        """The harness's never-cache-degraded rule holds on the serving
        path too: a degraded outcome serves but does not poison the store."""
        from repro.resilience.degrade import InspectionOutcome

        real = broker_mod.inspect_with_fallback

        def degrading(algorithm, g, cost, p, **kwargs):
            out = real("wavefront", g, cost, p)
            return InspectionOutcome(
                schedule=out.schedule, algorithm="wavefront", requested=algorithm,
                degraded=True, degraded_from=algorithm, failures=(),
            )

        monkeypatch.setattr(broker_mod, "inspect_with_fallback", degrading)
        store = ScheduleStore(tmp_path / "store", durable=False)
        broker = ScheduleBroker(store)
        result = broker.request(request_a)
        assert result.degraded and result.algorithm == "wavefront"
        assert broker.stats.degraded == 1
        assert store.get(request_a.key()) is None
