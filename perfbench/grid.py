"""The ``grid`` workload: the researcher's batch path through ``Harness.run_suite``.

Set-up generates the drawn matrices.  The measured phase runs the default
grid over them (3 kernels x 6 algorithms on ``intel20``, validation and
fallback on, no schedule cache, ``n_jobs=1``) in back-to-back passes for
about the given time.  Every RunRecord is checked against the expected
table.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

from inputs import grid_draw
from oracle import grid_failures, load_expected, record_digest
from spans import Profile, Recorder


@dataclass
class GridSetup:
    specs: list
    harness: object


@dataclass
class GridPhase:
    """What one measured phase produced."""

    pass_seconds: List[float] = field(default_factory=list)
    cells: int = 0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.pass_seconds)


def setup(seed: int) -> GridSetup:
    """Generate the drawn matrices and a default harness."""
    from repro.suite import Harness
    from repro.suite.matrices import MatrixSpec, suite_by_name

    by_name = suite_by_name()
    specs = []
    for name in grid_draw(seed):
        spec = by_name[name]
        built = spec.build()
        # the harness sanitizes and reorders what build() returns; a fresh
        # copy per call keeps every pass's input identical
        specs.append(MatrixSpec(name=spec.name, family=spec.family, build=built.copy))
    return GridSetup(specs=specs, harness=Harness())


def measure(s: GridSetup, seconds: float, rec: Optional[Recorder] = None) -> GridPhase:
    """Run whole grid passes for about ``seconds`` (at least one).

    Another pass starts while, at the median pass time so far, it would end
    less than half a pass after ``seconds``.
    """
    expected = load_expected()
    phase = GridPhase()
    digests = set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with rec.span("suite.harness") if rec is not None else nullcontext():
            records = s.harness.run_suite(s.specs, n_jobs=1)
        phase.pass_seconds.append(time.perf_counter() - t0)
        phase.cells += len(records)
        phase.attempted += sum(len(expected.get(sp.name, ())) for sp in s.specs)
        phase.problems.extend(grid_failures(records, expected))
        h = hashlib.sha256()
        for r in records:
            h.update(record_digest(r).encode())
        digests.add(h.hexdigest()[:16])
        if time.perf_counter() - start + statistics.median(phase.pass_seconds) / 2 > seconds:
            break
    if len(digests) != 1:
        phase.problems.append(f"grid passes disagree: {len(digests)} distinct record digests")
    phase.digest = ",".join(sorted(digests))
    return phase


def end_to_end(phase: GridPhase) -> dict:
    """Throughput in RunRecords/s; a record's latency is its pass's wall time.

    Every pass produces the same records, and every record of a pass
    arrives when ``run_suite`` returns, so throughput is the records of one
    pass over the median pass time, and the median latency is that time.
    """
    import numpy as np

    per_pass = phase.cells // len(phase.pass_seconds)
    times = np.asarray(phase.pass_seconds)
    return {
        "throughput_per_s": per_pass / float(np.median(times)),
        "p50_ms": float(np.median(times)) * 1e3,
    }


def per_layer(prof: Profile) -> dict:
    """Grid-specific per-layer numbers (the shared ones come from the caller)."""
    return {"suite.harness.self_s": prof.self_time("suite.harness")}

