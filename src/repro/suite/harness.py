"""Experiment harness: run (matrix x kernel x algorithm x machine) grids.

This is the programmatic engine behind every table and figure benchmark.
For one matrix it:

1. builds, sanitizes (:func:`~repro.sparse.sanitize.sanitize_csr`), and
   ND-reorders the matrix (the paper's METIS pre-pass, Section V);
2. derives the kernel inputs: operand matrix, dependence DAG, cost vector,
   memory model;
3. runs each inspector, validates its schedule against the DAG (structural
   + dependence safety), and simulates it on each machine;
4. records the paper's metrics per run (speedup vs the simulated sequential
   execution, locality, measured PG, sync counts, imbalance ratio, NRE).

Everything is cached per matrix so the grid costs one DAG build and one
memory model per kernel, not one per algorithm.

Resilience (all dormant-by-default, see DESIGN.md "Resilience"):

* inspectors run with a fallback chain (``hdagg → wavefront → serial``)
  and optional wall-clock budget; a failed or refuted inspection degrades
  the cell — stamped ``RunRecord.degraded`` / ``degraded_from`` — instead
  of killing the grid;
* ``run_suite`` can isolate per-matrix failures into structured
  :class:`~repro.resilience.failures.FailureRecord` rows, checkpoint
  finished matrices to a JSONL :class:`~repro.resilience.journal.RunJournal`
  (killed runs resume bit-identically), and recover crashed fork workers
  with bounded exponential-backoff retries;
* named ``fault_point`` sites let seeded
  :class:`~repro.resilience.faults.FaultPlan` chaos runs exercise every
  failure path deterministically.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..analysis.verifier import assert_schedule_safe, verify_dependences
from ..core.backends import BackendSpec
from ..core.incremental import IncrementalScheduleCache, family_key
from ..core.pgp import DEFAULT_EPSILON, accumulated_pgp
from ..core.schedule_cache import ScheduleCache, schedule_key
from ..kernels import KERNELS
from ..metrics.load_balance import imbalance_ratio
from ..metrics.nre import inspector_cost_model, nre
from ..metrics.parallelism import dag_shape
from ..metrics.synchronization import equivalent_p2p_syncs
from ..observability.state import STATE as _OBS_STATE
from ..passes.registry import PASS_GROUPS, SCHEDULERS
from ..resilience.degrade import inspect_with_fallback
from ..resilience.failures import FailureRecord
from ..resilience.faults import fault_point
from ..resilience.journal import RunJournal
from ..resilience.retry import RetryExhausted, retry_with_backoff
from ..runtime.machine import MACHINES, MachineConfig
from ..runtime.simulator import SimulationResult, simulate
from ..sparse.csr import CSRMatrix
from ..sparse.ordering import apply_ordering
from ..sparse.sanitize import SanitizeReport, sanitize_csr
from ..sparse.triangular import lower_triangle
from .matrices import MatrixSpec

__all__ = [
    "RunRecord",
    "MatrixContext",
    "Harness",
    "BenchCell",
    "build_cell",
    "DEFAULT_ALGORITHMS",
    "FailureRecord",
]

#: The paper's comparison set (MKL is SpTRSV-only, handled by the harness).
DEFAULT_ALGORITHMS = ("hdagg", "spmp", "wavefront", "lbc", "dagp", "mkl")

#: shared no-op context manager for the disabled-observability path
_NULL_CM = nullcontext()


def _span(name: str, **attrs):
    """A harness-level span when observability is on, else a no-op."""
    return _OBS_STATE.tracer.span(name, **attrs) if _OBS_STATE.enabled else _NULL_CM


@dataclass
class RunRecord:
    """Metrics of one (matrix, kernel, algorithm, machine) execution."""

    matrix: str
    family: str
    kernel: str
    algorithm: str
    machine: str
    n: int
    nnz: int
    n_wavefronts: int
    average_parallelism: float
    nnz_per_wavefront: float
    speedup: float
    makespan_cycles: float
    serial_cycles: float
    avg_memory_access_latency: float
    hit_rate: float
    potential_gain: float
    pgp: float
    equivalent_syncs: float
    n_barriers: int
    n_p2p_syncs: int
    imbalance_ratio: float
    inspector_cycles: float
    nre: float
    schedule_levels: int
    schedule_partitions: int
    fine_grained: bool
    inspector_seconds: float
    #: per-stage inspector seconds (HDagg populates this; empty otherwise)
    stage_seconds: dict = field(default_factory=dict)
    #: True when the schedule came from the harness's structure-keyed cache
    schedule_cached: bool = False
    #: True when the requested inspector failed and a fallback produced the
    #: schedule; ``algorithm`` then names the fallback that succeeded
    degraded: bool = False
    #: comma-joined algorithms that failed before the fallback succeeded
    #: (the requested inspector first); empty when not degraded
    degraded_from: str = ""
    #: canonical backend-spec description of the inspector tier that built
    #: the schedule (``schedule.meta["backend"]``); empty for algorithms
    #: that have no backend registry
    backend: str = ""
    #: True when the schedule came from an incremental pattern repair
    #: (:class:`~repro.core.incremental.IncrementalScheduleCache`) rather
    #: than a full inspection or an exact cache hit
    schedule_repaired: bool = False


@dataclass
class MatrixContext:
    """Cached per-matrix artefacts shared across algorithms/machines."""

    spec: MatrixSpec
    matrix: CSRMatrix  # reordered full SPD matrix
    kernels: Dict[str, dict] = field(default_factory=dict)  # kernel -> artefacts
    #: input-hardening outcome (None when sanitization was skipped)
    sanitize_report: Optional[SanitizeReport] = None


@dataclass
class BenchCell:
    """Everything needed to run one (matrix, kernel, machine) cell.

    The single-cell counterpart of :class:`MatrixContext`: the trace CLI
    and the perf-lab benchmarks both need exactly one cell's operand, DAG,
    cost vector, and memory model without paying for the full grid.
    """

    matrix: str
    kernel_name: str
    machine: MachineConfig
    operand: CSRMatrix
    dag: object
    cost: np.ndarray
    memory: object
    kernel: object


def build_cell(
    matrix: str,
    kernel: str = "sptrsv",
    machine: Union[str, MachineConfig] = "intel20",
    *,
    cores: Optional[int] = None,
    ordering: str = "nd",
) -> BenchCell:
    """Build one dataset cell: reorder the matrix and derive kernel inputs.

    ``matrix`` names a dataset entry (``hdagg-bench --list``); ``cores``
    overrides the machine model's count.  This is the shared front door
    for single-cell tooling (``hdagg-bench trace``, ``hdagg-bench perf``).
    """
    from .matrices import suite_by_name

    by_name = suite_by_name()
    if matrix not in by_name:
        raise KeyError(f"unknown matrix {matrix!r}; see `hdagg-bench --list`")
    if kernel not in KERNELS:
        raise KeyError(f"unknown kernel {kernel!r}")
    mach = machine if isinstance(machine, MachineConfig) else MACHINES[machine]
    if cores is not None:
        mach = mach.scaled(cores)
    ordered, _ = apply_ordering(by_name[matrix].build(), ordering)
    k = KERNELS[kernel]
    operand = lower_triangle(ordered) if kernel == "sptrsv" else ordered
    g = k.dag(operand)
    cost = k.cost(operand)
    memory = k.memory_model(operand, g)
    return BenchCell(
        matrix=matrix,
        kernel_name=kernel,
        machine=mach,
        operand=operand,
        dag=g,
        cost=cost,
        memory=memory,
        kernel=k,
    )


class Harness:
    """Grid runner over the suite.

    Parameters
    ----------
    machines:
        Machine names (keys of :data:`repro.runtime.machine.MACHINES`) or
        :class:`MachineConfig` objects.
    kernels:
        Kernel names among ``{"sptrsv", "spic0", "spilu0"}``.
    algorithms:
        Scheduler names; ``"mkl"`` is automatically restricted to SpTRSV
        (MKL has no parallel SpIC0/SpILU0, Section V).
    ordering:
        Symmetric pre-ordering applied to every matrix (paper: METIS; here
        ``"nd"`` by default).
    epsilon:
        HDagg/LBC load-balance threshold.
    schedule_cache:
        Optional :class:`~repro.core.schedule_cache.ScheduleCache`.  When
        set, every inspection is keyed by the DAG structure and parameters;
        repeated structures (re-runs, parameter sweeps sharing a matrix)
        reuse the cached schedule instead of re-inspecting.  Cached hits
        are flagged in ``RunRecord.schedule_cached`` and re-verified (a
        corrupted entry is dropped and re-inspected).
    fallback:
        Degrade failed inspections down the declared fallback chain
        (stamping ``RunRecord.degraded``) instead of raising.  On the
        success path this is byte-identical to a direct inspector call.
    inspector_budget:
        Optional wall-clock seconds each inspector may spend before it is
        abandoned (``None`` — the default — imposes no budget and no
        threading overhead).
    sanitize:
        Run :func:`~repro.sparse.sanitize.sanitize_csr` over every built
        matrix in :meth:`prepare` (repairing what is repairable, rejecting
        structural corruption with a structured error).  Well-formed
        matrices pass through unchanged.
    backend:
        Inspector backend selection for HDagg cells — a
        :class:`~repro.core.backends.BackendSpec`, a grammar string
        (``"lbp=compiled,coarsen=compiled"``), or ``None`` to follow the
        ``REPRO_BACKENDS`` environment variable.  Tiers are bit-identical
        by contract, so this changes inspector wall time only; the spec is
        folded into cache keys and stamped into ``RunRecord.backend``.
    """

    def __init__(
        self,
        machines: Sequence = ("intel20",),
        kernels: Sequence[str] = ("sptrsv", "spic0", "spilu0"),
        algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
        *,
        ordering: str = "nd",
        epsilon: float = DEFAULT_EPSILON,
        validate: bool = True,
        schedule_cache: Optional[ScheduleCache] = None,
        fallback: bool = True,
        inspector_budget: Optional[float] = None,
        sanitize: bool = True,
        backend: Union[str, BackendSpec, None] = None,
    ) -> None:
        self.machines: List[MachineConfig] = [
            m if isinstance(m, MachineConfig) else MACHINES[m] for m in machines
        ]
        for k in kernels:
            if k not in KERNELS:
                raise KeyError(f"unknown kernel {k!r}")
        self.kernels = tuple(kernels)
        for a in algorithms:
            if a not in SCHEDULERS:
                raise KeyError(f"unknown algorithm {a!r}")
        self.algorithms = tuple(algorithms)
        self.ordering = ordering
        self.epsilon = epsilon
        self.validate = validate
        self.schedule_cache = schedule_cache
        self.fallback = fallback
        if inspector_budget is not None and inspector_budget <= 0:
            raise ValueError("inspector_budget must be positive or None")
        self.inspector_budget = inspector_budget
        self.sanitize = sanitize
        # resolve once so a mid-run environment change cannot split the
        # grid across tiers (the env source is read exactly here)
        self.backend: BackendSpec = BackendSpec.coerce(backend)

    def __getstate__(self) -> dict:
        # worker processes re-inspect rather than ship the cache's schedules
        state = self.__dict__.copy()
        state["schedule_cache"] = None
        return state

    # ------------------------------------------------------------------
    def config_fingerprint(self, specs: Sequence[MatrixSpec]) -> str:
        """Digest of the grid configuration, used to key run journals."""
        payload = repr(
            (
                tuple(m.name for m in self.machines),
                self.kernels,
                self.algorithms,
                self.ordering,
                float(self.epsilon),
                self.validate,
                tuple(s.name for s in specs),
                self.backend.describe(),
            )
        )
        return sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    def prepare(self, spec: MatrixSpec) -> MatrixContext:
        """Build, sanitize, reorder, and derive kernel artefacts for one matrix."""
        with _span(f"suite/prepare[{spec.name}]"):
            return self._prepare(spec)

    def _prepare(self, spec: MatrixSpec) -> MatrixContext:
        raw = spec.build()
        injected = fault_point("harness.prepare", payload=raw, label=spec.name)
        sanitize_report: Optional[SanitizeReport] = None
        if injected is not None:
            # fault injection replaced the matrix with corrupted raw arrays;
            # the sanitizer must now repair or reject them
            raw, sanitize_report = sanitize_csr(
                injected, repair=True, ensure_diagonal=True, name=spec.name
            )
        elif self.sanitize:
            raw, sanitize_report = sanitize_csr(
                raw, repair=True, ensure_diagonal=True, name=spec.name
            )
        ctx = MatrixContext(spec=spec, matrix=raw, sanitize_report=sanitize_report)
        ordered, _ = apply_ordering(raw, self.ordering)
        ctx.matrix = ordered
        for kname in self.kernels:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g = kernel.dag(operand)
            cost = kernel.cost(operand)
            memory = kernel.memory_model(operand, g)
            shape = dag_shape(g)
            ctx.kernels[kname] = {
                "kernel": kernel,
                "operand": operand,
                "dag": g,
                "cost": cost,
                "memory": memory,
                "shape": shape,
            }
        return ctx

    def _algorithms_for(self, kernel: str) -> Iterable[str]:
        for a in self.algorithms:
            if a == "mkl" and kernel != "sptrsv":
                continue  # MKL's SpIC0/SpILU0 are not parallel (Section V)
            yield a

    # ------------------------------------------------------------------
    def run_matrix(self, spec: MatrixSpec) -> List[RunRecord]:
        """All records for one matrix across the configured grid."""
        with _span(f"suite/matrix[{spec.name}]"):
            return self._run_matrix_grid(spec)

    def _run_matrix_grid(self, spec: MatrixSpec) -> List[RunRecord]:
        fault_point("suite.matrix", label=spec.name)
        ctx = self.prepare(spec)
        records: List[RunRecord] = []
        for kname in self.kernels:
            art = ctx.kernels[kname]
            g, cost, memory = art["dag"], art["cost"], art["memory"]
            shape = art["shape"]

            # serial reference per machine (sequential run owns the machine)
            serial_schedule = SCHEDULERS["serial"](g, cost)
            serial_results: Dict[str, SimulationResult] = {}
            for machine in self.machines:
                serial_results[machine.name] = simulate(
                    serial_schedule, g, cost, memory, machine.scaled(1)
                )

            for algo in self._algorithms_for(kname):
                for machine in self.machines:
                    if _OBS_STATE.enabled:
                        _OBS_STATE.tracer.instant(
                            f"suite/cell[{spec.name},{kname},{algo},{machine.name}]"
                        )
                    inputs = PASS_GROUPS[algo].inputs
                    backend_desc = self.backend.describe() if "Backend" in inputs else ""
                    incremental = algo == "hdagg" and isinstance(
                        self.schedule_cache, IncrementalScheduleCache
                    )
                    key = None
                    cached = None
                    if self.schedule_cache is not None:
                        key = schedule_key(
                            g,
                            kernel=kname,
                            algorithm=algo,
                            p=machine.n_cores,
                            epsilon=self.epsilon if "Epsilon" in inputs else None,
                            backend=backend_desc,
                        )
                        if not incremental:
                            # the incremental path looks the key up itself
                            # inside acquire(); probing here too would
                            # double-count hits and misses
                            cached = self.schedule_cache.get(key)
                    t0 = time.perf_counter()
                    if cached is not None and self.validate:
                        # hits are re-verified without touching their meta:
                        # a corrupted entry is dropped and re-inspected
                        report = verify_dependences(
                            cached, g, max_witnesses=1, stamp_meta=False
                        )
                        if not report.ok:
                            self.schedule_cache.invalidate(key)
                            cached = None
                    used_algo = algo
                    degraded = False
                    degraded_from = ""
                    repaired = False
                    acquired = False
                    if cached is not None:
                        schedule = cached
                    elif incremental:
                        family = family_key(
                            kernel=kname,
                            algorithm=algo,
                            p=machine.n_cores,
                            epsilon=self.epsilon,
                            backend=backend_desc,
                            label=spec.name,
                        )
                        for _ in range(2):
                            schedule, source = self.schedule_cache.acquire(
                                key,
                                family,
                                g,
                                cost,
                                p=machine.n_cores,
                                epsilon=self.epsilon,
                                backend=self.backend,
                            )
                            if source == "hit" and self.validate:
                                report = verify_dependences(
                                    schedule, g, max_witnesses=1, stamp_meta=False
                                )
                                if not report.ok:
                                    # corrupted hit: drop it and re-acquire —
                                    # the retry repairs or re-inspects
                                    self.schedule_cache.invalidate(key)
                                    continue
                            break
                        if source != "hit" and self.validate:
                            assert_schedule_safe(schedule, g)
                        cached = schedule if source == "hit" else None
                        repaired = source == "repaired"
                        acquired = True
                    elif self.fallback:
                        outcome = inspect_with_fallback(
                            algo,
                            g,
                            cost,
                            machine.n_cores,
                            epsilon=self.epsilon,
                            budget=self.inspector_budget,
                            validate=self.validate,
                            backend=self.backend,
                        )
                        schedule = outcome.schedule
                        used_algo = outcome.algorithm
                        degraded = outcome.degraded
                        degraded_from = outcome.degraded_from
                    else:
                        fault_point("inspector", label=algo)
                        schedule = SCHEDULERS[algo](
                            g,
                            cost,
                            machine.n_cores,
                            epsilon=self.epsilon,
                            backend=self.backend,
                        )
                        if self.validate:
                            # structural check + dependence witness extraction;
                            # stamps "verify" into meta["stage_seconds"] so the
                            # verifier cost lands in RunRecord.stage_seconds
                            assert_schedule_safe(schedule, g)
                    inspector_seconds = time.perf_counter() - t0
                    if key is not None and cached is None and not degraded and not acquired:
                        # a degraded schedule must not poison the cache entry
                        # of the algorithm that failed to produce it; the
                        # incremental path already stored via acquire()
                        self.schedule_cache.put(key, schedule)
                    sim = simulate(schedule, g, cost, memory, machine)
                    serial = serial_results[machine.name]
                    insp_cycles = inspector_cost_model(used_algo, g, schedule)
                    if sim.makespan_cycles > 0:
                        speedup = serial.makespan_cycles / sim.makespan_cycles
                    elif serial.makespan_cycles <= 0:
                        warnings.warn(
                            f"{spec.name}/{kname}/{algo}: zero-cycle simulation; "
                            "speedup defined as 1.0",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        speedup = 1.0
                    else:
                        speedup = float("inf")
                    records.append(
                        RunRecord(
                            matrix=spec.name,
                            family=spec.family,
                            kernel=kname,
                            algorithm=used_algo,
                            machine=machine.name,
                            n=g.n,
                            nnz=ctx.matrix.nnz,
                            n_wavefronts=shape.n_wavefronts,
                            average_parallelism=shape.average_parallelism,
                            nnz_per_wavefront=ctx.matrix.nnz / max(1, shape.n_wavefronts),
                            speedup=speedup,
                            makespan_cycles=sim.makespan_cycles,
                            serial_cycles=serial.makespan_cycles,
                            avg_memory_access_latency=sim.avg_memory_access_latency,
                            hit_rate=sim.hit_rate,
                            potential_gain=sim.potential_gain,
                            pgp=accumulated_pgp(schedule, cost),
                            equivalent_syncs=equivalent_p2p_syncs(sim, machine.n_cores),
                            n_barriers=sim.n_barriers,
                            n_p2p_syncs=sim.n_p2p_syncs,
                            imbalance_ratio=imbalance_ratio(schedule, machine.n_cores),
                            inspector_cycles=insp_cycles,
                            nre=nre(insp_cycles, serial, sim),
                            schedule_levels=schedule.n_levels,
                            schedule_partitions=schedule.n_partitions,
                            fine_grained=schedule.fine_grained,
                            inspector_seconds=inspector_seconds,
                            # a cache hit never re-ran the inspector stages:
                            # copying the producer's stale stage timings here
                            # would make sum(stage_seconds) exceed the
                            # measured inspector_seconds, so a hit reports
                            # only the re-verification it actually paid for
                            stage_seconds=(
                                {"verify": inspector_seconds}
                                if cached is not None
                                else dict(schedule.meta.get("stage_seconds", {}))
                            ),
                            schedule_cached=cached is not None,
                            degraded=degraded,
                            degraded_from=degraded_from,
                            backend=str(schedule.meta.get("backend", "")),
                            schedule_repaired=repaired,
                        )
                    )
        return records

    # ------------------------------------------------------------------
    def run_suite(
        self,
        specs: Sequence[MatrixSpec],
        *,
        progress: bool = False,
        n_jobs: int = 1,
        isolate_failures: bool = False,
        failures: Optional[List[FailureRecord]] = None,
        journal: Optional[Union[RunJournal, str]] = None,
        max_retries: int = 2,
        retry_base_delay: float = 0.1,
        worker_timeout: Optional[float] = None,
    ) -> List[RunRecord]:
        """Run the grid over many matrices; flat record list.

        ``n_jobs > 1`` fans the per-matrix work over a fork pool with
        streamed progress (rows come back in spec order either way, so
        downstream tables are identical whichever mode produced them).

        ``isolate_failures`` turns a failing matrix into a structured
        :class:`FailureRecord` (collected into ``failures`` when given)
        while the rest of the grid continues; without it the first failure
        raises, always naming the matrix.  ``journal`` (a path or
        :class:`RunJournal`) checkpoints each finished matrix to JSONL;
        matrices already checkpointed are replayed from the journal
        verbatim, so a killed run resumes bit-identically.  Crashed or
        hung pool workers (detected via ``worker_timeout`` seconds without
        a result) are retried serially in the parent up to ``max_retries``
        times with exponential backoff starting at ``retry_base_delay``.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        specs = list(specs)
        owns_journal = journal is not None and not isinstance(journal, RunJournal)
        if owns_journal:
            journal = RunJournal(
                journal,
                fingerprint=self.config_fingerprint(specs),
                resume=True,
            )
        failures_out: List[FailureRecord] = failures if failures is not None else []
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = None  # spawn cannot inherit matrix builders; run serially
        try:
            if n_jobs == 1 or len(specs) <= 1 or ctx is None:
                return self._run_suite_serial(
                    specs,
                    progress=progress,
                    isolate_failures=isolate_failures,
                    failures_out=failures_out,
                    journal=journal,
                )
            return self._run_suite_pool(
                specs,
                ctx=ctx,
                n_jobs=n_jobs,
                progress=progress,
                isolate_failures=isolate_failures,
                failures_out=failures_out,
                journal=journal,
                max_retries=max_retries,
                retry_base_delay=retry_base_delay,
                worker_timeout=worker_timeout,
            )
        finally:
            if owns_journal:
                journal.close()

    # ------------------------------------------------------------------
    def _journal_records(self, journal: RunJournal, name: str) -> List[RunRecord]:
        from .storage import record_from_blob

        return [record_from_blob(blob) for blob in journal.record_blobs_for(name)]

    def _checkpoint(self, journal: Optional[RunJournal], name: str, records: List[RunRecord]) -> None:
        if journal is None:
            return
        from .storage import record_to_blob

        journal.append_matrix(name, [record_to_blob(r) for r in records])

    def _isolate(
        self,
        spec: MatrixSpec,
        exc: BaseException,
        *,
        stage: str,
        attempts: int,
        isolate_failures: bool,
        failures_out: List[FailureRecord],
        journal: Optional[RunJournal],
        progress: bool,
    ) -> None:
        """Fold one matrix failure into a structured row, or re-raise."""
        cause = exc.last if isinstance(exc, RetryExhausted) else exc
        record = FailureRecord(
            matrix=spec.name,
            family=spec.family,
            stage=stage,
            error_type=type(cause).__name__,
            message=str(cause),
            attempts=attempts,
            site=getattr(cause, "site", None),
        )
        if not isolate_failures:
            raise RuntimeError(f"matrix {spec.name!r} failed: {record.describe()}") from exc
        failures_out.append(record)
        if journal is not None:
            journal.append_failure(record.as_dict())
        if progress:
            print(f"    {spec.name} FAILED: {record.error_type}: {record.message}", flush=True)

    def _run_suite_serial(
        self,
        specs: List[MatrixSpec],
        *,
        progress: bool,
        isolate_failures: bool,
        failures_out: List[FailureRecord],
        journal: Optional[RunJournal],
    ) -> List[RunRecord]:
        out: List[RunRecord] = []
        for i, spec in enumerate(specs):
            if journal is not None and journal.has(spec.name):
                if progress:
                    print(f"[{i + 1}/{len(specs)}] {spec.name} (from journal)", flush=True)
                out.extend(self._journal_records(journal, spec.name))
                continue
            if progress:
                print(f"[{i + 1}/{len(specs)}] {spec.name}", flush=True)
            try:
                recs = self.run_matrix(spec)
            except Exception as exc:
                self._isolate(
                    spec,
                    exc,
                    stage="run",
                    attempts=1,
                    isolate_failures=isolate_failures,
                    failures_out=failures_out,
                    journal=journal,
                    progress=progress,
                )
                continue
            out.extend(recs)
            self._checkpoint(journal, spec.name, recs)
        return out

    def _run_suite_pool(
        self,
        specs: List[MatrixSpec],
        *,
        ctx,
        n_jobs: int,
        progress: bool,
        isolate_failures: bool,
        failures_out: List[FailureRecord],
        journal: Optional[RunJournal],
        max_retries: int,
        retry_base_delay: float,
        worker_timeout: Optional[float],
    ) -> List[RunRecord]:
        # Matrix builders (closures) don't pickle; fork workers inherit the
        # payload through this module global and receive only an index.
        global _POOL_PAYLOAD
        if _POOL_PAYLOAD is not None:
            raise RuntimeError(
                "Harness.run_suite(n_jobs>1) is already active in this process; "
                "nested or concurrent pool runs would clobber the shared worker "
                "payload — run them sequentially or with n_jobs=1"
            )
        results: Dict[int, List[RunRecord]] = {}
        pending: List[int] = []
        for i, spec in enumerate(specs):
            if journal is not None and journal.has(spec.name):
                results[i] = self._journal_records(journal, spec.name)
            else:
                pending.append(i)
        #: pool-side failures to resolve serially after the pool closes:
        #: index -> ("error", matrix, type, message, traceback) | ("crash", ...)
        deferred: Dict[int, tuple] = {}
        _POOL_PAYLOAD = (self, specs)
        try:
            if pending:
                with ctx.Pool(processes=min(n_jobs, len(pending))) as pool:
                    it = pool.imap(_run_matrix_safely, pending)
                    for pos, i in enumerate(pending):
                        spec = specs[i]
                        try:
                            if worker_timeout is not None:
                                payload = it.next(timeout=worker_timeout)
                            else:
                                payload = next(it)
                        except multiprocessing.TimeoutError:
                            # the worker crashed or hung: the pool's result
                            # stream is unrecoverable, so every matrix from
                            # here on is resolved serially in the parent
                            pool.terminate()
                            for j in pending[pos:]:
                                deferred[j] = (
                                    "crash",
                                    specs[j].name,
                                    "TimeoutError",
                                    f"pool worker returned no result within {worker_timeout}s",
                                    "",
                                )
                            break
                        if payload[0] == "ok":
                            results[i] = payload[1]
                            if progress:
                                print(
                                    f"[{i + 1}/{len(specs)}] {spec.name}", flush=True
                                )
                            self._checkpoint(journal, spec.name, results[i])
                        else:
                            deferred[i] = payload
        finally:
            _POOL_PAYLOAD = None
        # resolve pool-side failures serially, in spec order
        for i in sorted(deferred):
            spec = specs[i]
            kind, _, etype, msg, tb = deferred[i]
            if progress:
                print(
                    f"[{i + 1}/{len(specs)}] {spec.name} "
                    f"(pool worker {'crashed' if kind == 'crash' else 'failed'}: "
                    f"{etype}; re-running serially)",
                    flush=True,
                )
            retries = max_retries if kind == "crash" else 0
            attempts = 2 if kind == "error" else 1  # the worker attempt counts
            try:
                recs = retry_with_backoff(
                    lambda s=spec: self.run_matrix(s),
                    retries=retries,
                    base_delay=retry_base_delay,
                )
            except Exception as exc:
                total = attempts + (retries if isinstance(exc, RetryExhausted) else 0)
                self._isolate(
                    spec,
                    exc,
                    stage="worker",
                    attempts=total,
                    isolate_failures=isolate_failures,
                    failures_out=failures_out,
                    journal=journal,
                    progress=progress,
                )
                continue
            results[i] = recs
            self._checkpoint(journal, spec.name, recs)
        out: List[RunRecord] = []
        for i in range(len(specs)):
            out.extend(results.get(i, []))
        return out


#: (harness, specs) visible to fork workers; see Harness.run_suite
_POOL_PAYLOAD: Optional[tuple] = None


def _run_matrix_safely(index: int) -> tuple:
    """Module-level pool worker: run one matrix of the inherited payload.

    Exceptions are returned as a structured payload naming the matrix (a
    bare pool traceback says nothing about which matrix died); only a hard
    crash (injected ``pool.worker`` death, OOM-kill) leaves no payload.
    """
    harness, specs = _POOL_PAYLOAD
    spec = specs[index]
    fault_point("pool.worker", label=spec.name)
    try:
        return ("ok", harness.run_matrix(spec))
    except Exception as exc:
        return ("error", spec.name, type(exc).__name__, str(exc), traceback.format_exc())


def _run_matrix_at(index: int) -> List[RunRecord]:
    """Back-compat pool worker: run one matrix, raising on failure."""
    harness, specs = _POOL_PAYLOAD
    return harness.run_matrix(specs[index])
