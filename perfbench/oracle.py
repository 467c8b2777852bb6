"""The benchmark's own correctness checks, independent of the program's verifier.

* :func:`layout_problems` checks a served schedule against its DAG from
  first principles: every vertex appears exactly once, and every DAG edge
  ``u -> v`` is ordered either by level (``level[u] < level[v]``) or by
  position inside one width-partition.
* :func:`record_digest` hashes a grid RunRecord's non-timing fields, which
  the run compares against the expected table committed beside this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

#: RunRecord fields left out of the digest.  The first three are timings or
#: timing-side provenance; ``backend`` names the inspector tier, which the
#: result reports on its own (tiers are bit-identical by contract).
DIGEST_EXCLUDED = ("inspector_seconds", "stage_seconds", "schedule_cached", "backend")

EXPECTED_PATH = Path(__file__).with_name("expected_grid.json")


@dataclasses.dataclass(frozen=True)
class Layout:
    """A schedule flattened to three arrays, cheap to keep and to hash.

    ``order`` lists every partition's vertices in schedule order;
    partition ``j`` holds ``part_len[j]`` of them and runs in level
    ``part_level[j]``.
    """

    order: np.ndarray
    part_len: np.ndarray
    part_level: np.ndarray

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.order, self.part_len, self.part_level):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes() + b"|")
        return h.hexdigest()[:16]


def layout_of(schedule) -> Layout:
    """Flatten a ``Schedule`` (anything with ``levels`` of ``vertices``)."""
    parts = [(k, wp.vertices) for k, level in enumerate(schedule.levels) for wp in level]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return Layout(empty, empty, empty)
    return Layout(
        order=np.concatenate([v for _, v in parts]).astype(np.int64, copy=False),
        part_len=np.array([len(v) for _, v in parts], dtype=np.int64),
        part_level=np.array([k for k, _ in parts], dtype=np.int64),
    )


def layout_problems(layout: Layout, g) -> List[str]:
    """Why a flattened schedule is unsafe for DAG ``g``; empty when it is safe."""
    n = int(g.n)
    allv = layout.order
    if allv.size != n or (n and (allv.min() < 0 or allv.max() >= n)):
        return [f"schedule lists {allv.size} vertex slots for {n} vertices"]
    counts = np.bincount(allv, minlength=n)
    if np.any(counts != 1):
        missing = int(np.count_nonzero(counts == 0))
        return [f"{missing} vertices missing, {int(np.count_nonzero(counts > 1))} repeated"]
    pid = np.repeat(np.arange(layout.part_len.size), layout.part_len)
    starts = np.cumsum(layout.part_len) - layout.part_len
    lvl = np.empty(n, dtype=np.int64)
    prt = np.empty(n, dtype=np.int64)
    pst = np.empty(n, dtype=np.int64)
    lvl[allv] = layout.part_level[pid]
    prt[allv] = pid
    pst[allv] = np.arange(n) - starts[pid]
    indptr = np.asarray(g.indptr, dtype=np.int64)
    dst = np.asarray(g.indices, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    ordered = (lvl[src] < lvl[dst]) | ((prt[src] == prt[dst]) & (pst[src] < pst[dst]))
    bad = np.flatnonzero(~ordered)
    if bad.size:
        u, v = int(src[bad[0]]), int(dst[bad[0]])
        return [f"{bad.size} edges unordered, first {u}->{v}"]
    return []


def schedule_problems(schedule, g) -> List[str]:
    """Why ``schedule`` is unsafe for DAG ``g``; empty when it is safe."""
    return layout_problems(layout_of(schedule), g)


def record_fields(record) -> Dict[str, object]:
    """The non-timing fields of a RunRecord, as plain data."""
    fields = dataclasses.asdict(record)
    for name in DIGEST_EXCLUDED:
        fields.pop(name, None)
    return fields


def record_digest(record) -> str:
    """SHA-256 prefix over a RunRecord's non-timing fields (floats by repr)."""
    blob = json.dumps(
        {k: repr(v) if isinstance(v, float) else v for k, v in record_fields(record).items()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def cell_label(record) -> str:
    return f"{record.kernel}/{record.algorithm}/{record.machine}"


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, List[List[str]]]:
    """``matrix -> [[cell label, digest], ...]`` in harness row order."""
    return json.loads(path.read_text(encoding="utf-8"))["matrices"]


def grid_failures(records, expected: Dict[str, List[List[str]]]) -> List[str]:
    """One message per degraded or unexpected RunRecord of a grid pass.

    ``records`` must hold whole matrices in harness row order, which is
    what ``Harness.run_suite`` returns.
    """
    problems: List[str] = []
    by_matrix: Dict[str, list] = {}
    for r in records:
        by_matrix.setdefault(r.matrix, []).append(r)
    for matrix, rows in by_matrix.items():
        want = expected.get(matrix)
        if want is None:
            problems.extend(f"{matrix}: no expected rows" for _ in rows)
            continue
        # every row missing or extra is one failed cell
        problems.extend(
            f"{matrix}: {len(rows)} rows, expected {len(want)}"
            for _ in range(abs(len(rows) - len(want)))
        )
        for r, (label, digest) in zip(rows, want):
            if r.degraded:
                problems.append(f"{matrix} {label}: degraded from {r.degraded_from}")
            elif cell_label(r) != label or record_digest(r) != digest:
                problems.append(f"{matrix} {label}: record differs from the expected table")
    return problems
