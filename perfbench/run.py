"""One command for the repo's benchmark: three seeded workloads, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the workload twice in one process, first untraced
and then with every layer entry point wrapped (see ``spans.py``), checks
that both produce the same deterministic outputs, and reports per-layer
metrics plus the tracing overhead.  Spans are written to
``.perfbench/traces/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
makes the exit code 1; a checkout without the program's source exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("grid", "serve-hot", "serve-cold")
SETUP_REPEATS = 3


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    import numpy

    from repro.core.backends import BackendSpec

    return {
        "nproc": os.cpu_count(),
        "backend": BackendSpec.coerce(None).effective().describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """Accumulates one invocation's checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.samples: dict = {}
        self.recorder = None  # the traced phase's span log

    def fail(self, problems, attempted: int) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems)

    def mismatch(self, what: str, untraced, traced) -> None:
        if untraced != traced:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"traced run changed {what}: {untraced} != {traced}")


# ----------------------------------------------------------------------
def run_grid(run: Run) -> None:
    import grid
    from catalog import span_metrics
    from spans import Profile, Recorder, install

    if not run.traced:
        times = [_timed(grid.setup, run.seed) for _ in range(SETUP_REPEATS)]
        phase = grid.measure(times[-1][1], run.seconds)
        run.fail(phase.problems, phase.attempted)
        run.metrics.update(grid.end_to_end(phase))
        run.metrics["setup_s"] = statistics.median(t for t, _ in times)
        run.samples = {"draw": [sp.name for sp in times[-1][1].specs],
                       "pass_seconds": [round(t, 3) for t in phase.pass_seconds],
                       "records": phase.cells, "setups": SETUP_REPEATS}
        return
    half = run.seconds / 2
    plain = grid.measure(grid.setup(run.seed), half)
    run.fail(plain.problems, plain.attempted)
    rec = Recorder()
    patches = install(rec)
    try:
        traced = grid.measure(grid.setup(run.seed), half, rec)
    finally:
        patches.undo()
    run.fail(traced.problems, traced.attempted)
    run.mismatch("the RunRecord digest", plain.digest, traced.digest)
    prof = Profile(rec.spans)
    run.metrics.update(span_metrics(prof, traced.seconds))
    run.metrics.update(grid.per_layer(prof))
    run.metrics["trace.overhead_share"] = (
        (traced.seconds / traced.cells) / (plain.seconds / plain.cells) - 1.0
    )
    run.samples = {"passes": [len(plain.pass_seconds), len(traced.pass_seconds)]}
    run.recorder = rec


def run_serve(run: Run) -> None:
    import serve
    from catalog import span_metrics
    from inputs import SERVE_SHAPES
    from spans import Profile, Recorder, install

    rate = SERVE_SHAPES[run.workload].rate
    workdir = WORK / "work" / f"{run.workload}-{os.getpid()}"

    def fresh(n_open: int, rec=None):
        return serve.setup(run.workload, run.seed, n_open, workdir, rec)

    try:
        if not run.traced:
            n_open = max(1000, math.ceil(rate * 0.75 * run.seconds))
            times = []
            for _ in range(SETUP_REPEATS):
                if times:
                    times[-1][1].door.close()
                times.append(_timed(fresh, n_open))
            s = times[-1][1]
            phase = serve.measure(s, closed_seconds=max(2.0, 0.25 * run.seconds))
            run.fail(phase.problems, phase.attempted)
            run.metrics.update(serve.end_to_end(phase))
            run.metrics["setup_s"] = statistics.median(t for t, _ in times)
            run.samples = {"open_requests": len(phase.open), "closed_requests": len(phase.closed),
                           "setups": SETUP_REPEATS, "p99_ms": serve.tail_p99_ms(phase)}
            return
        n_open = max(500, math.ceil(rate * 0.375 * run.seconds))
        closed = max(1.0, 0.125 * run.seconds)
        s = fresh(n_open)
        plain = serve.measure(s, closed_seconds=closed)
        run.fail(plain.problems, plain.attempted)
        rec = Recorder()
        patches = install(rec)
        try:
            st = fresh(n_open, rec)
            traced = serve.measure(st, closed_seconds=closed, rec=rec)
        finally:
            patches.undo()
        run.fail(traced.problems, traced.attempted)
        a, b = serve.deterministic_outputs(s, plain), serve.deterministic_outputs(st, traced)
        for key in a:
            run.mismatch(key, a[key], b[key])
        prof = Profile(rec.spans)
        run.metrics.update(span_metrics(prof, traced.wall))
        run.metrics.update(serve.per_layer(prof, traced))
        run.metrics["loadgen.p99_ms"] = serve.tail_p99_ms(plain)
        t_plain = serve.end_to_end(plain)["throughput_per_s"]
        t_traced = serve.end_to_end(traced)["throughput_per_s"]
        run.metrics["trace.overhead_share"] = t_plain / t_traced - 1.0
        run.samples = {"open_requests": [len(plain.open), len(traced.open)]}
        run.recorder = rec
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
def result_json(run: Run) -> dict:
    from catalog import END_TO_END, PER_LAYER

    wanted = PER_LAYER if run.traced else END_TO_END
    metrics = {}
    for m in wanted:
        value = run.metrics.get(m.name, 0.0)
        metrics[m.name] = {
            "value": None if isinstance(value, float) and math.isinf(value) else value,
            "unit": m.unit,
        }
    return {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.observability.state import STATE

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    (run_grid if args.workload == "grid" else run_serve)(run)
    if STATE.enabled:
        run.fail(["the program's observability switch was on"], 1)
    if not run.traced:
        run.metrics["peak_rss_mb"] = _peak_rss_mb()
    run.metrics["fail_share"] = run.failed / max(1, run.attempted)
    if run.recorder is not None:
        run.recorder.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    print("env " + json.dumps(environment(), sort_keys=True))
    print("samples " + json.dumps(run.samples, sort_keys=True))
    print(f"fail_share {run.metrics['fail_share']:.6g} ({run.failed} of {run.attempted})")
    for p in run.problems[:20]:
        print(f"FAILED {p}")
    result = result_json(run)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
