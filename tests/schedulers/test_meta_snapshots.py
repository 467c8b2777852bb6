"""Snapshot of what the golden digests do not hash: ``Schedule.meta`` and
the 0-vertex result of every registered scheduler.

``golden_schedules.json`` freezes the partitions; this sidecar freezes the
rest of each schedule a caller can read — the non-timing ``meta`` on the
same four matrices, and ``algorithm`` / ``sync`` / ``n_cores`` / ``meta``
on an empty DAG (where the schedulers legitimately differ: SpMP answers
``p2p``, serial ``n_cores=1``, the level-set family ``n_wavefronts=0``).

Regenerate it exactly like the golden digests, and review the diff::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/schedulers/test_meta_snapshots.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.graph import DAG
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle

from .test_golden_snapshots import CORES, KERNEL_NAMES, MATRICES, _schedulers_for

META_PATH = Path(__file__).with_name("golden_meta.json")

#: meta keys that carry wall-clock seconds, not schedule content
TIMING_KEYS = ("stage_seconds",)


def _pinned_meta(schedule) -> dict:
    meta = {k: v for k, v in schedule.meta.items() if k not in TIMING_KEYS}
    return json.loads(json.dumps(meta, sort_keys=True))


def compute_snapshot() -> dict:
    empty = {}
    for algo in sorted(SCHEDULERS):
        s = SCHEDULERS[algo](DAG.empty(0), np.ones(0), CORES)
        empty[algo] = {
            "algorithm": s.algorithm,
            "sync": s.sync,
            "n_cores": s.n_cores,
            "n_levels": s.n_levels,
            "fine_grained": s.fine_grained,
            "meta": _pinned_meta(s),
        }
    meta = {}
    for mname, build in MATRICES.items():
        ordered, _ = apply_ordering(build(), "nd")
        per_kernel = {}
        for kname in KERNEL_NAMES:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g, cost = kernel.dag(operand), kernel.cost(operand)
            per_kernel[kname] = {
                algo: _pinned_meta(SCHEDULERS[algo](g, cost, CORES))
                for algo in _schedulers_for(kname)
            }
        meta[mname] = per_kernel
    return {"empty": empty, "meta": meta}


@pytest.fixture(scope="module")
def current():
    snapshot = compute_snapshot()
    if os.environ.get("REGEN_GOLDEN"):
        META_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return snapshot


@pytest.fixture(scope="module")
def pinned(current):
    assert META_PATH.exists(), f"{META_PATH} missing — generate it with REGEN_GOLDEN=1"
    return json.loads(META_PATH.read_text())


def test_empty_dag_results_match_snapshot(current, pinned):
    assert sorted(pinned["empty"]) == sorted(SCHEDULERS)
    assert current["empty"] == pinned["empty"]


@pytest.mark.parametrize("mname", sorted(MATRICES))
def test_meta_matches_snapshot(mname, current, pinned):
    assert current["meta"][mname] == pinned["meta"][mname], (
        f"Schedule.meta drift on {mname}; if intentional, regenerate with "
        f"REGEN_GOLDEN=1 and review the diff"
    )
