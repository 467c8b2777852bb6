"""Every metric the benchmark reports: name, unit, direction, and what it should move.

``BENCHMARK.json`` lists the same names, units and directions; the
benchmark's tests keep the two in step.  ``workloads`` says where a metric
is expected to be non-zero, ``moves`` which end-to-end metric (on which
workload) a change to that layer should move.  A per-layer metric reads 0
on a workload where its layer does no work.  Per-layer numbers cover the
traced set-up and the traced measured phase, so ordering done while a
serving catalog is built shows up too.

End-to-end metrics are reported by every workload, so each has one meaning
per workload:

* ``throughput_per_s`` - ``grid``: the RunRecords of one grid pass over
  the median pass time; ``serve-*``: requests completed per second by the
  closed loop (one client per front-door worker), the stack's capacity;
  the closed loop runs in five segments that alternate with the open
  loop's, so both sample the whole run.
* ``p50_ms`` - ``serve-*``: median open-loop latency from each request's
  due send time to its reply, a failed request counting as beyond any
  limit (at least 1,000 requests per run); ``grid``: a RunRecord's latency
  is the wall time of the ``run_suite`` pass that returned it.
* ``setup_s`` - median of three set-ups: matrix or catalog generation,
  nested-dissection ordering, and priming (L1 for ``serve-hot``, the store
  for ``serve-cold``).
* ``peak_rss_mb`` - the workload process's peak resident set.

The open loop's p99 is no end-to-end metric: on a shared two-core host it
moves two to three times as far as the host's speed does (every stall
queues the requests behind it and the front door's threads wait on each
other), so no bound of a quarter holds it.  Untraced runs print it on
their ``samples`` line and traced runs report it as ``loadgen.p99_ms``.

The failure share (failed / attempted) is carried by the result's
``failed`` and ``attempted`` fields and printed on its own line; it reads 0
on a correct run, so it is not an end-to-end metric, whose runs are
compared by ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

ALL = ("grid", "serve-hot", "serve-cold")
SERVE = ("serve-hot", "serve-cold")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...] = ALL
    moves: str = ""
    bound: float = 0.0  # end-to-end only


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.20),
    Metric("throughput_per_s", "1/s", "higher", bound=0.25),
    Metric("p50_ms", "ms", "lower", bound=0.25),
)

_GRID_ONLY = "throughput_per_s on grid"
_TAIL = "loadgen.p99_ms"
_HDAGG = f"{_TAIL} on serve-cold; barely throughput_per_s on grid; nothing on serve-hot"
_HIT = "p50_ms and throughput_per_s on serve-hot"


def _busy(name: str, workloads=("grid",), moves: str = _GRID_ONLY) -> Tuple[Metric, Metric]:
    return (
        Metric(f"{name}.busy_s", "s", "lower", workloads, moves),
        Metric(f"{name}.self_s", "s", "lower", workloads, moves),
    )


PER_LAYER = (
    *_busy("sparse.ordering", ALL, "throughput_per_s on grid; setup_s on serve-*; not p*_ms"),
    Metric("sparse.ordering.calls", "count", "lower", ALL,
           "throughput_per_s on grid; setup_s on serve-*"),
    *_busy("schedulers.lbc"),
    Metric("schedulers.lbc.forest_components.calls", "count", "lower", ("grid",), _GRID_ONLY),
    Metric("schedulers.lbc.forest_components.busy_s", "s", "lower", ("grid",), _GRID_ONLY),
    *_busy("schedulers.dagp"),
    *_busy("schedulers.spmp"),
    *_busy("schedulers.wavefront"),
    *_busy("schedulers.mkl"),
    *_busy("schedulers.serial"),
    *_busy("runtime.simulator"),
    Metric("runtime.simulator.calls", "count", "lower", ("grid",), _GRID_ONLY),
    *_busy("kernels", ALL, "throughput_per_s on grid; setup_s on serve-*"),
    *_busy("resilience.fallback", ALL, _HDAGG),
    *_busy("schedulers.hdagg", ALL, _HDAGG),
    Metric("schedulers.hdagg.share", "share", "lower", ALL, _HDAGG),
    Metric("schedulers.hdagg.p50_ms", "ms", "lower", ALL, _HDAGG),
    Metric("schedulers.hdagg.p99_ms", "ms", "lower", ALL, _HDAGG),
    *(
        Metric(f"passes.hdagg.{p}.busy_s", "s", "lower", ALL, _HDAGG)
        for p in ("reduce", "aggregate", "coarsen", "lbp", "expand")
    ),
    *_busy("analysis.verifier", ALL, _HIT + "; about 2% of grid"),
    Metric("analysis.verifier.calls", "count", "lower", ALL, _HIT),
    Metric("analysis.verifier.p50_ms", "ms", "lower", ALL, _HIT),
    Metric("core.schedule_cache.schedule_key.p50_ms", "ms", "lower", SERVE, _HIT),
    Metric("core.schedule_cache.get.p50_ms", "ms", "lower", SERVE, _HIT),
    Metric("core.schedule_cache.hit_ratio", "ratio", "higher", SERVE, _HIT),
    *(
        Metric(f"service.frontdoor.{what}.{q}", "ms", "lower", SERVE, f"{_TAIL} on serve-hot")
        for what in ("queue_wait", "handoff")
        for q in ("p50_ms", "p99_ms")
    ),
    Metric("service.frontdoor.shed", "count", "lower", SERVE, f"{_TAIL} on serve-hot"),
    *(
        Metric(f"service.broker.{tier}.{stat}", unit, "lower", SERVE, "p*_ms on serve-* by tier")
        for tier in ("memory", "store", "inspected", "coalesced")
        for stat, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("count", "count"))
    ),
    # a pure speed change must leave the hit ratio where it was
    Metric("service.broker.hit_ratio", "ratio", "higher", SERVE, "p*_ms on serve-*"),
    Metric("service.broker.rejected", "count", "lower", SERVE, f"{_TAIL} on serve-*"),
    Metric("service.broker.degraded", "count", "lower", SERVE, f"{_TAIL} on serve-*"),
    Metric("service.broker.retries", "count", "lower", SERVE, f"{_TAIL} on serve-*"),
    Metric("store.get.p50_ms", "ms", "lower", ("serve-cold",), f"{_TAIL} on serve-cold"),
    Metric("store.put.p50_ms", "ms", "lower", ("serve-cold",), f"{_TAIL} on serve-cold"),
    Metric("store.put.bytes", "bytes", "lower", ("serve-cold",), f"{_TAIL} on serve-cold"),
    Metric("store.hit_ratio", "ratio", "higher", ("serve-cold",), f"{_TAIL} on serve-cold"),
    Metric("store.quarantined", "count", "lower", ("serve-cold",), f"{_TAIL} on serve-cold"),
    # residuals and checks of the harness itself
    Metric("suite.harness.self_s", "s", "lower", ("grid",), _GRID_ONLY),
    Metric("service.unattributed.p50_ms", "ms", "lower", SERVE, "p50_ms on serve-*"),
    Metric("service.unattributed.p99_ms", "ms", "lower", SERVE, f"{_TAIL} on serve-*"),
    Metric(_TAIL, "ms", "lower", SERVE, "none: the open loop's tail, untraced half"),
    Metric("loadgen.late_p99_ms", "ms", "lower", SERVE, "none: the generator's own lateness"),
    Metric("loadgen.late_max_ms", "ms", "lower", SERVE, "none: the generator's own lateness"),
    Metric("trace.overhead_share", "share", "lower", ALL, "none: traced vs untraced cost"),
    Metric("fail_share", "share", "lower", ALL, "none: must stay 0"),
)

#: layers timed by span name, reported as busy/self (plus calls where listed)
_SPAN_LAYERS = (
    "sparse.ordering", "schedulers.lbc", "schedulers.dagp", "schedulers.spmp",
    "schedulers.wavefront", "schedulers.mkl", "schedulers.serial", "runtime.simulator",
    "kernels", "resilience.fallback", "schedulers.hdagg", "analysis.verifier",
)


def span_metrics(prof, wall: float) -> Dict[str, float]:
    """The per-layer numbers every workload derives the same way from spans."""
    m: Dict[str, float] = {}
    for layer in _SPAN_LAYERS:
        m[f"{layer}.busy_s"] = prof.busy(layer)
        m[f"{layer}.self_s"] = prof.self_time(layer)
    for layer in ("sparse.ordering", "runtime.simulator", "analysis.verifier"):
        m[f"{layer}.calls"] = prof.calls(layer)
    fc = "schedulers.lbc.forest_components"
    m[f"{fc}.calls"] = prof.calls(fc)
    m[f"{fc}.busy_s"] = prof.busy(fc)
    m["schedulers.hdagg.share"] = prof.busy("schedulers.hdagg") / wall if wall else 0.0
    m["schedulers.hdagg.p50_ms"] = prof.p_ms("schedulers.hdagg", 0.50)
    m["schedulers.hdagg.p99_ms"] = prof.p_ms("schedulers.hdagg", 0.99)
    for p in ("reduce", "aggregate", "coarsen", "lbp", "expand"):
        m[f"passes.hdagg.{p}.busy_s"] = prof.busy(f"passes.hdagg.{p}")
    m["analysis.verifier.p50_ms"] = prof.p_ms("analysis.verifier", 0.50)
    m["core.schedule_cache.schedule_key.p50_ms"] = prof.p_ms(
        "core.schedule_cache.schedule_key", 0.50
    )
    m["core.schedule_cache.get.p50_ms"] = prof.p_ms("core.schedule_cache.get", 0.50)
    return m
