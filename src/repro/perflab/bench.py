"""Perf-lab benchmark definitions: what `perf run` actually measures.

One *cell* is (matrix, kernel, algorithm, machine); one rep of the
``inspector`` benchmark runs the full inspector-executor pipeline for the
cell and reports:

* ``inspect`` — wall-clock seconds of the scheduler call, with the
  inspector's own :class:`~repro.runtime.perf.StageTimer` sub-stages
  re-exported as ``inspect/<stage>`` (HDagg: transitive_reduction,
  aggregation, coarsen, lbp, expand — other schedulers report no
  sub-stages and the residual ``inspect/other`` covers them);
* ``execute`` — wall-clock seconds of simulating the schedule on the
  cell's machine model (a deterministic, schedule-shaped python workload:
  slower schedule expansion or a fatter schedule shows up here).

The total per rep is ``inspect + execute``.  Stalls injected through the
``inspector.stage`` fault site (``perf run --stall-stage``) land inside
the named stage's timer, which is how the regression gate's stage
attribution is exercised end to end.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .protocol import (
    MeasurementProtocol,
    Observation,
    ObservationKey,
    RepResult,
)

__all__ = [
    "PERF_SMOKE",
    "REPAIR_SMOKE_MATRIX",
    "inspector_rep",
    "repair_rep",
    "run_inspector_benchmarks",
    "run_repair_benchmark",
]

#: Default `perf run` subset: three small cells from different families
#: (2D mesh, 3D mesh, clique chain) that exercise all inspector stages in
#: a few milliseconds each — small enough for CI, shaped enough to matter.
PERF_SMOKE = ("mesh2d-s", "mesh3d-s", "kite-small")

#: Matrix behind the repair-vs-full smoke cell (`perf run` appends it after
#: the inspector cells; warn-only, see :func:`run_repair_benchmark`).
REPAIR_SMOKE_MATRIX = "mesh2d-m"


def inspector_rep(
    cell,
    algorithm: str,
    *,
    epsilon: Optional[float] = None,
    backend=None,
) -> Callable[[], RepResult]:
    """One-rep callable for the ``inspector`` benchmark on a built cell.

    ``cell`` is a :class:`~repro.suite.harness.BenchCell`; ``backend`` (a
    :class:`~repro.core.backends.BackendSpec`, grammar string, or None)
    selects the inspector tier for hdagg cells.
    """
    from ..runtime.simulator import simulate
    from ..schedulers import SCHEDULERS

    if algorithm not in SCHEDULERS:
        raise KeyError(f"unknown scheduler {algorithm!r}; available: {sorted(SCHEDULERS)}")
    g = cell.dag
    cost = np.asarray(cell.cost, dtype=np.float64)[: g.n]
    p = cell.machine.n_cores

    def rep() -> RepResult:
        t0 = time.perf_counter()
        schedule = SCHEDULERS[algorithm](g, cost, p, epsilon=epsilon, backend=backend)
        t_inspect = time.perf_counter() - t0
        stages: Dict[str, float] = {"inspect": t_inspect}
        for name, seconds in schedule.meta.get("stage_seconds", {}).items():
            stages[f"inspect/{name}"] = float(seconds)
        t1 = time.perf_counter()
        simulate(schedule, g, cost, cell.memory, cell.machine)
        t_execute = time.perf_counter() - t1
        stages["execute"] = t_execute
        return t_inspect + t_execute, stages

    return rep


def _record_metrics(obs: Observation) -> None:
    """Mirror an observation into the ambient metrics registry (if on)."""
    from ..observability.state import STATE

    if not STATE.enabled or STATE.registry is None:
        return
    reg = STATE.registry
    reg.histogram(f"perflab.{obs.key.label()}.seconds").observe_many(obs.timings)
    if obs.stats is not None:
        reg.gauge(f"perflab.{obs.key.label()}.median_seconds").set(obs.stats.statistic)


def _backend_fingerprint(backend):
    """(spec-or-None, fingerprint) for a run's ``backend`` argument.

    ``None`` with no ``REPRO_BACKENDS`` set is the dormant path: nothing
    is passed to the schedulers and the fingerprint's backend field stays
    empty, so histories written before the backend registry existed keep
    their digests.
    """
    import os

    from ..core.backends import ENV_VAR, BackendSpec
    from .fingerprint import collect_fingerprint

    if backend is None and not os.environ.get(ENV_VAR):
        return None, collect_fingerprint()
    spec = BackendSpec.coerce(backend)
    return spec, collect_fingerprint(backend=spec.effective().describe())


def run_inspector_benchmarks(
    matrices: Sequence[str] = PERF_SMOKE,
    *,
    kernel: str = "sptrsv",
    algorithm: str = "hdagg",
    machine: str = "intel20",
    cores: Optional[int] = None,
    ordering: str = "nd",
    epsilon: Optional[float] = None,
    backend=None,
    protocol: Optional[MeasurementProtocol] = None,
    note: str = "",
    progress: Optional[Callable[[Observation], None]] = None,
) -> List[Observation]:
    """Measure the inspector benchmark over a set of matrices.

    The environment fingerprint is collected once and shared by every
    observation of the run (it cannot change mid-process), so all cells of
    one run land on the same history series key.  ``backend`` selects the
    hdagg inspector tier and is stamped into the fingerprint (effective
    form, after availability fallback).
    """
    from ..suite.harness import build_cell

    proto = protocol if protocol is not None else MeasurementProtocol()
    spec, fingerprint = _backend_fingerprint(backend)
    out: List[Observation] = []
    for name in matrices:
        cell = build_cell(name, kernel=kernel, machine=machine,
                          cores=cores, ordering=ordering)
        key = ObservationKey(
            benchmark="inspector",
            matrix=name,
            kernel=kernel,
            algorithm=algorithm,
            machine=cell.machine.name,
        )
        obs = proto.measure(
            key,
            inspector_rep(cell, algorithm, epsilon=epsilon, backend=spec),
            fingerprint=fingerprint,
            note=note,
        )
        _record_metrics(obs)
        out.append(obs)
        if progress is not None:
            progress(obs)
    return out


def repair_rep(
    cell,
    *,
    epsilon: Optional[float] = None,
    backend=None,
    n_rows: int = 5,
    seed: int = 0,
) -> Callable[[], RepResult]:
    """One-rep callable for the ``repair`` benchmark: incremental repair of
    a small pattern delta versus a full re-inspection of the same DAG.

    Setup (once, outside the timed reps): inspect the cell's DAG with
    artifacts, drop one off-diagonal dependence from ``n_rows`` random
    rows, and derive the perturbed DAG.  Each rep then times
    :func:`~repro.core.incremental.repair_schedule` against the stored
    artifacts and :func:`~repro.core.incremental.inspect_with_artifacts`
    from scratch, reported as the ``repair`` and ``full`` stages — so the
    repair-to-full ratio is directly visible in the stage attribution.
    """
    from ..core.incremental import inspect_with_artifacts, repair_schedule
    from ..core.pgp import DEFAULT_EPSILON

    g = cell.dag
    cost = np.asarray(cell.cost, dtype=np.float64)[: g.n]
    p = cell.machine.n_cores
    eps = DEFAULT_EPSILON if epsilon is None else epsilon
    old = inspect_with_artifacts(g, cost, p, eps, backend=backend)

    rng = np.random.default_rng(seed)
    rows = rng.choice(g.n, size=min(n_rows, g.n), replace=False)
    keep = np.ones(g.indices.size, dtype=bool)
    for r in rows:
        lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
        if hi > lo:
            keep[int(rng.integers(lo, hi))] = False
    counts = np.bincount(
        np.repeat(np.arange(g.n), np.diff(g.indptr))[keep], minlength=g.n
    )
    indptr2 = np.concatenate([[0], np.cumsum(counts)]).astype(g.indptr.dtype)
    from ..graph.dag import DAG

    g_new = DAG(g.n, indptr2, g.indices[keep], check=False)
    cost_new = cost  # row costs are unchanged by dropping dependences here

    def rep() -> RepResult:
        t0 = time.perf_counter()
        result = repair_schedule(old, g_new, cost_new)
        t_repair = time.perf_counter() - t0
        t1 = time.perf_counter()
        inspect_with_artifacts(g_new, cost_new, p, eps, backend=backend)
        t_full = time.perf_counter() - t1
        stages = {"repair": t_repair, "full": t_full,
                  "repair/" + result.mode: t_repair}
        return t_repair + t_full, stages

    return rep


def run_repair_benchmark(
    matrix: str = REPAIR_SMOKE_MATRIX,
    *,
    kernel: str = "sptrsv",
    machine: str = "intel20",
    cores: Optional[int] = 8,
    ordering: str = "natural",
    epsilon: Optional[float] = None,
    backend=None,
    n_rows: int = 5,
    protocol: Optional[MeasurementProtocol] = None,
    note: str = "",
    progress: Optional[Callable[[Observation], None]] = None,
) -> Observation:
    """Measure the repair-vs-full smoke cell (one observation).

    The defaults pin the *documented budget configuration* — a
    natural-ordered Poisson mesh at 8 cores, where repair of a ≤5-row
    delta costs ≤25% of a full inspection.  (ND-ordered DAGs coarsen into
    a handful of very wide wavefronts, so one dirty wave forces a long
    live re-walk and the ratio degrades to roughly 0.4–0.6 — correct, just
    less profitable.)  The cell is advisory: `perf run` prints a warning
    when the median repair exceeds the budget but never fails the run —
    wall-clock ratios on loaded CI machines are too noisy to gate on.
    """
    from ..suite.harness import build_cell

    proto = protocol if protocol is not None else MeasurementProtocol()
    spec, fingerprint = _backend_fingerprint(backend)
    cell = build_cell(matrix, kernel=kernel, machine=machine,
                      cores=cores, ordering=ordering)
    key = ObservationKey(
        benchmark="repair",
        matrix=matrix,
        kernel=kernel,
        algorithm="hdagg",
        machine=cell.machine.name,
    )
    obs = proto.measure(
        key,
        repair_rep(cell, epsilon=epsilon, backend=spec, n_rows=n_rows),
        fingerprint=fingerprint,
        note=note,
    )
    _record_metrics(obs)
    if progress is not None:
        progress(obs)
    return obs
