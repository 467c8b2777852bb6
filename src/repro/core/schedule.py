"""Schedule: the object every inspector produces and every executor consumes.

Section IV-A of the paper: "The created schedule is composed of a set of
disjoint partitions called coarsened wavefronts.  Each coarsened wavefront is
composed of one or more disjoint partitions called width-partitions.  The
coarsened wavefronts execute sequentially and width-partitions of a coarsened
wavefront run in parallel."

The same container also represents the baselines:

* Wavefront / MKL-like: one coarsened wavefront per level, chunked into
  width-partitions, ``sync="barrier"``;
* SpMP: level-grouped width-partitions with ``sync="p2p"`` (no barriers —
  the simulator lets partitions start when their cross-partition dependences
  are satisfied);
* LBC: the coarsened l-partitions plus the sequential tail;
* DAGP: quotient-graph levels of the acyclic partitioning, ``sync="p2p"``;
* serial: a single width-partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from ..graph.dag import DAG
from ..sparse.csr import INDEX_DTYPE

__all__ = [
    "WidthPartition",
    "Schedule",
    "ScheduleError",
    "DependenceWitness",
    "dependence_witnesses",
]


def _json_safe(v) -> bool:
    """Keep only plainly serialisable meta entries when exporting."""
    if isinstance(v, (bool, int, float, str)) or v is None:
        return True
    if isinstance(v, (list, tuple)):
        return all(_json_safe(x) for x in v)
    return False


class ScheduleError(ValueError):
    """Raised when a schedule violates its structural or dependence invariants.

    ``witness`` carries the first :class:`DependenceWitness` when the failure
    is a dependence-ordering violation, ``None`` for structural failures —
    callers (the static verifier, the harness, CI tooling) read it instead of
    parsing the message.
    """

    def __init__(self, message: str, *, witness: "Optional[DependenceWitness]" = None) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class DependenceWitness:
    """A minimal counterexample to schedule safety: one mis-ordered DAG edge.

    The edge ``src -> dst`` requires ``src`` to finish before ``dst`` starts,
    but the schedule places them so that neither ``level[src] < level[dst]``
    nor "same width-partition with ``src`` positioned earlier" holds.  All
    schedule coordinates of both endpoints are included so the producing
    inspector's bug is localisable without re-deriving anything.
    """

    src: int
    dst: int
    src_level: int
    dst_level: int
    src_partition: int
    dst_partition: int
    src_position: int
    dst_position: int

    def describe(self) -> str:
        """One-line human-readable account of the violation."""
        return (
            f"dependence violated: edge {self.src} -> {self.dst} "
            f"(levels {self.src_level} -> {self.dst_level}, "
            f"partitions {self.src_partition} -> {self.dst_partition}, "
            f"positions {self.src_position} -> {self.dst_position})"
        )

    def as_dict(self) -> dict:
        """JSON-ready form for reports and the ``analyze`` CLI."""
        return {
            "src": self.src,
            "dst": self.dst,
            "src_level": self.src_level,
            "dst_level": self.dst_level,
            "src_partition": self.src_partition,
            "dst_partition": self.dst_partition,
            "src_position": self.src_position,
            "dst_position": self.dst_position,
        }


def dependence_witnesses(
    level: np.ndarray,
    pid: np.ndarray,
    pos: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    max_witnesses: int = 1,
) -> List[DependenceWitness]:
    """Mis-ordered edges among ``src -> dst`` under the schedule coordinates.

    An edge is safely ordered iff ``level[src] < level[dst]`` or the two
    endpoints share a width-partition with ``src`` positioned earlier.  The
    returned witnesses are sorted to make the *minimal* counterexample first:
    ascending destination level, then source/destination ids — so the
    earliest point in the execution where the schedule goes wrong leads.
    Both :meth:`Schedule.validate` and the static verifier in
    :mod:`repro.analysis.verifier` report through this single predicate.
    """
    ok = (level[src] < level[dst]) | ((pid[src] == pid[dst]) & (pos[src] < pos[dst]))
    bad = np.nonzero(~ok)[0]
    if bad.shape[0] == 0:
        return []
    order = np.lexsort((dst[bad], src[bad], level[dst[bad]]))
    picked = bad[order[:max_witnesses]]
    return [
        DependenceWitness(
            src=int(src[e]),
            dst=int(dst[e]),
            src_level=int(level[src[e]]),
            dst_level=int(level[dst[e]]),
            src_partition=int(pid[src[e]]),
            dst_partition=int(pid[dst[e]]),
            src_position=int(pos[src[e]]),
            dst_position=int(pos[dst[e]]),
        )
        for e in picked
    ]


@dataclass(frozen=True)
class WidthPartition:
    """A sequential unit of work: vertices executed in array order on one core.

    ``core`` is the bin the inspector assigned (0-based).  Fine-grained
    schedules (bin packing disabled, Algorithm 1 Lines 36-38) use
    ``core = -1``: the runtime picks a core dynamically.
    """

    core: int
    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.vertices, dtype=INDEX_DTYPE)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 1 or v.shape[0] == 0:
            raise ScheduleError("width-partition must be a non-empty 1-D vertex array")

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    def cost(self, vertex_cost: np.ndarray) -> float:
        """Total cost of the partition under a per-vertex cost function."""
        return float(vertex_cost[self.vertices].sum())


class _FlatLayout:
    """A schedule's width-partitions concatenated into one slot array.

    Slot ``s`` holds vertex ``vertices[s]``; each partition is one
    contiguous run of slots, in schedule order (levels in order, partitions
    in list order).  The structural check and the per-vertex level /
    partition / position maps all derive from these arrays with numpy, so
    only the constructor walks the partitions in Python.
    """

    __slots__ = ("n", "vertices", "sizes", "cores", "part_level")

    def __init__(self, schedule: "Schedule") -> None:
        parts = [part for level in schedule.levels for part in level]
        self.n = schedule.n
        self.part_level = np.repeat(
            np.arange(len(schedule.levels), dtype=INDEX_DTYPE),
            [len(level) for level in schedule.levels],
        )
        self.sizes = np.array([part.vertices.shape[0] for part in parts], dtype=INDEX_DTYPE)
        self.cores = np.array([part.core for part in parts], dtype=INDEX_DTYPE)
        self.vertices = (
            np.concatenate([part.vertices for part in parts])
            if parts
            else np.empty(0, dtype=INDEX_DTYPE)
        )

    def slot_level(self) -> np.ndarray:
        return np.repeat(self.part_level, self.sizes)

    def slot_pid(self) -> np.ndarray:
        return np.repeat(np.arange(self.sizes.shape[0], dtype=INDEX_DTYPE), self.sizes)

    def slot_pos(self) -> np.ndarray:
        starts = np.cumsum(self.sizes) - self.sizes
        return np.arange(self.vertices.shape[0], dtype=INDEX_DTYPE) - np.repeat(starts, self.sizes)

    def scatter(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-vertex map from per-slot values; ``-1`` where unscheduled."""
        out = np.full(self.n, -1, dtype=INDEX_DTYPE)
        out[self.vertices] = slot_values
        return out

    def coordinates(self) -> tuple:
        """Per-vertex ``(level, partition, position)`` maps."""
        return (
            self.scatter(self.slot_level()),
            self.scatter(self.slot_pid()),
            self.scatter(self.slot_pos()),
        )

    def _core_clashes(self) -> np.ndarray:
        """Per partition: its static core is already taken earlier in its level."""
        clash = np.zeros(self.cores.shape[0], dtype=bool)
        static = np.nonzero(self.cores >= 0)[0]
        if static.shape[0] < 2:
            return clash
        level, core = self.part_level[static], self.cores[static]
        order = np.lexsort((core, level))  # stable: the earliest user leads
        same = (level[order[1:]] == level[order[:-1]]) & (core[order[1:]] == core[order[:-1]])
        clash[static[order[1:][same]]] = True
        return clash

    def addressable(self, dag_n: int) -> bool:
        """True when every edge of a ``dag_n``-vertex DAG has coordinates here."""
        v = self.vertices
        return dag_n == self.n and (v.shape[0] == 0 or bool(v.min() >= 0 and v.max() < self.n))

    def structural_error(self, dag_n: int) -> Optional[str]:
        """The first structural defect against a ``dag_n``-vertex DAG, or ``None``.

        After the vertex and slot counts, the checks run partition by
        partition in schedule order: ids in range, then no vertex of an
        earlier partition, then no core reused within the level.  Vertices
        never scheduled are reported last.
        """
        n, v = self.n, self.vertices
        if dag_n != n:
            return f"schedule covers {n} vertices, DAG has {dag_n}"
        if v.shape[0] != n:
            return (
                f"schedule holds {v.shape[0]} vertex slots for {n} vertices "
                "(duplicate or missing entries)"
            )
        in_range = (v >= 0) & (v < n)
        clash = self._core_clashes()
        all_in_range = bool(in_range.all())
        if all_in_range and not clash.any() and np.all(np.bincount(v, minlength=n) == 1):
            return None
        # slow path: locate the first defect as (partition, check, message)
        pid = self.slot_pid()
        defects = []
        if not all_in_range:
            s = int(np.argmin(in_range))
            k = int(self.part_level[pid[s]])
            defects.append((int(pid[s]), 0, f"vertex id {int(v[s])} out of range [0, {n}) (level {k})"))
        ok = np.nonzero(in_range)[0]
        first_pid = np.full(n, self.sizes.shape[0], dtype=INDEX_DTYPE)
        np.minimum.at(first_pid, v[ok], pid[ok])
        repeated = ok[pid[ok] > first_pid[v[ok]]]
        if repeated.shape[0]:
            j = int(pid[repeated[0]])
            defects.append((j, 1, f"vertex scheduled twice (level {int(self.part_level[j])})"))
        if clash.any():
            j = int(np.argmax(clash))
            defects.append((
                j,
                2,
                f"core {int(self.cores[j])} used by two width-partitions "
                f"in level {int(self.part_level[j])}",
            ))
        if defects:
            return min(defects)[2]
        missing = np.nonzero(np.bincount(v, minlength=n) == 0)[0][:5].tolist()
        return f"vertices never scheduled: {missing}"


@dataclass
class Schedule:
    """A complete execution plan for one sparse kernel instance.

    Attributes
    ----------
    n:
        Number of kernel iterations (DAG vertices).
    levels:
        Coarsened wavefronts, outermost-sequential; each is a list of
        :class:`WidthPartition` that may run concurrently.
    sync:
        ``"barrier"`` — a global barrier separates consecutive levels;
        ``"p2p"`` — partitions synchronise point-to-point on their
        cross-partition dependences (no barriers).
    algorithm:
        Producing inspector's name (``"hdagg"``, ``"wavefront"``, ...).
    n_cores:
        Core count the schedule was built for.
    fine_grained:
        True when bin packing was disabled and the runtime load-balances the
        width-partitions dynamically.
    meta:
        Free-form inspector diagnostics (grouping sizes, cut positions, ...).
    """

    n: int
    levels: List[List[WidthPartition]]
    sync: str
    algorithm: str
    n_cores: int
    fine_grained: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sync not in ("barrier", "p2p"):
            raise ScheduleError(f"unknown sync model {self.sync!r}")
        if self.n_cores < 1:
            raise ScheduleError("n_cores must be >= 1")

    # ------------------------------------------------------------------
    # shape accessors
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of coarsened wavefronts."""
        return len(self.levels)

    @property
    def n_partitions(self) -> int:
        """Total number of width-partitions."""
        return sum(len(level) for level in self.levels)

    def iter_partitions(self) -> Iterator[tuple[int, WidthPartition]]:
        """Yield ``(level_index, partition)`` in schedule order."""
        for k, level in enumerate(self.levels):
            for part in level:
                yield k, part

    def execution_order(self) -> np.ndarray:
        """A sequential order consistent with the schedule.

        Levels in order, partitions within a level in list order, vertices
        within a partition in array order.  For any *valid* schedule this is
        a topological order of the kernel DAG, which is what the
        dependence-checking executors consume.
        """
        chunks = [part.vertices for _, part in self.iter_partitions()]
        if not chunks:
            return np.empty(0, dtype=INDEX_DTYPE)
        return np.concatenate(chunks)

    def _flat(self) -> "_FlatLayout":
        """This schedule's partitions flattened into one slot array.

        Computed per call, never cached: a schedule mutated after
        construction (by the mutation harness, say) must be judged as it
        is now.
        """
        return _FlatLayout(self)

    def level_of(self) -> np.ndarray:
        """Per-vertex coarsened-wavefront index."""
        flat = self._flat()
        return flat.scatter(flat.slot_level())

    def partition_of(self) -> np.ndarray:
        """Per-vertex global width-partition index (schedule order)."""
        flat = self._flat()
        return flat.scatter(flat.slot_pid())

    def position_of(self) -> np.ndarray:
        """Per-vertex position within its width-partition."""
        flat = self._flat()
        return flat.scatter(flat.slot_pos())

    def core_assignment(self) -> np.ndarray:
        """Per-vertex core id (-1 where dynamically scheduled)."""
        out = np.full(self.n, -1, dtype=INDEX_DTYPE)
        for _, part in self.iter_partitions():
            out[part.vertices] = part.core
        return out

    def n_barriers(self) -> int:
        """Global barriers the executor will issue (levels - 1 for barrier sync)."""
        return max(0, self.n_levels - 1) if self.sync == "barrier" else 0

    def level_loads(self, vertex_cost: np.ndarray) -> List[np.ndarray]:
        """Per-level array of per-core loads (length ``n_cores`` each).

        Fine-grained partitions (core == -1) are assigned greedily to the
        least-loaded core, mirroring what a work-stealing runtime achieves.
        """
        loads: List[np.ndarray] = []
        for level in self.levels:
            bins = np.zeros(self.n_cores, dtype=np.float64)
            for part in level:
                c = part.cost(vertex_cost)
                if part.core >= 0:
                    bins[part.core % self.n_cores] += c
                else:
                    bins[int(np.argmin(bins))] += c
            loads.append(bins)
        return loads

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, g: DAG, *, check_dependences: bool = True) -> None:
        """Raise :class:`ScheduleError` unless the schedule is well-formed.

        Structural: the width-partitions exactly partition ``range(n)`` (every
        id in ``[0, n)``, each exactly once) and per-level core ids are
        unique (when statically assigned).  The first defect is reported in
        schedule order.

        Dependences: every edge ``u -> v`` must satisfy
        ``level(u) < level(v)``, or ``u`` and ``v`` share a width-partition
        with ``u`` positioned earlier.  This is the safety invariant of both
        sync models (barrier: partitions of one level run concurrently;
        p2p: partitions may overlap across levels but a partition never
        waits mid-stream for a same-level peer).
        """
        flat = self._flat()
        error = flat.structural_error(g.n)
        if error is not None:
            raise ScheduleError(error)
        if not check_dependences or g.n_edges == 0:
            return
        src, dst = g.edge_list()
        witnesses = dependence_witnesses(*flat.coordinates(), src, dst, max_witnesses=1)
        if witnesses:
            raise ScheduleError(witnesses[0].describe(), witness=witnesses[0])

    def summary(self, vertex_cost: np.ndarray | None = None) -> dict:
        """Shape statistics used by reports and tests."""
        sizes = [part.size for _, part in self.iter_partitions()]
        widths = [len(level) for level in self.levels]
        out = {
            "algorithm": self.algorithm,
            "n": self.n,
            "n_levels": self.n_levels,
            "n_partitions": self.n_partitions,
            "sync": self.sync,
            "fine_grained": self.fine_grained,
            "max_width": max(widths) if widths else 0,
            "mean_partition_size": float(np.mean(sizes)) if sizes else 0.0,
        }
        if vertex_cost is not None:
            from .pgp import accumulated_pgp

            out["accumulated_pgp"] = accumulated_pgp(self, vertex_cost)
        return out

    def reversed(self) -> "Schedule":
        """The mirror schedule, valid for the *reversed* DAG.

        Levels run in opposite order and each width-partition's internal
        order flips; cores and groupings are preserved.  If this schedule
        is valid for ``G`` then the result is valid for ``G.reverse()`` —
        which is exactly the dependence structure of the backward/transpose
        kernel (``L^T x = y``), so one inspection serves both sweeps of a
        preconditioner application.
        """
        levels = [
            [
                WidthPartition(core=part.core, vertices=part.vertices[::-1].copy())
                for part in level
            ]
            for level in reversed(self.levels)
        ]
        return Schedule(
            n=self.n,
            levels=levels,
            sync=self.sync,
            algorithm=f"{self.algorithm}-reversed",
            n_cores=self.n_cores,
            fine_grained=self.fine_grained,
            meta=dict(self.meta, reversed=True),
        )

    # ------------------------------------------------------------------
    # serialization (inspector/executor separation across processes)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`.

        The inspector is the expensive half of the framework, so being able
        to persist its output and reuse it across runs/processes is part of
        the library contract (the paper's NRE analysis assumes exactly this
        reuse).
        """
        return {
            "n": self.n,
            "sync": self.sync,
            "algorithm": self.algorithm,
            "n_cores": self.n_cores,
            "fine_grained": self.fine_grained,
            "levels": [
                [{"core": int(part.core), "vertices": part.vertices.tolist()} for part in level]
                for level in self.levels
            ],
            "meta": {k: v for k, v in self.meta.items() if _json_safe(v)},
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "Schedule":
        """Rebuild a schedule serialised by :meth:`to_dict`."""
        levels = [
            [
                WidthPartition(
                    core=int(p["core"]),
                    vertices=np.asarray(p["vertices"], dtype=INDEX_DTYPE),
                )
                for p in level
            ]
            for level in blob["levels"]
        ]
        return cls(
            n=int(blob["n"]),
            levels=levels,
            sync=blob["sync"],
            algorithm=blob["algorithm"],
            n_cores=int(blob["n_cores"]),
            fine_grained=bool(blob.get("fine_grained", False)),
            meta=dict(blob.get("meta", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.algorithm}, n={self.n}, levels={self.n_levels}, "
            f"partitions={self.n_partitions}, sync={self.sync})"
        )
