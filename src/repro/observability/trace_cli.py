"""``hdagg-bench trace``: one observed run, exported for Perfetto.

Enables the ambient observability state, runs the full inspector-executor
pipeline for one (matrix, kernel, algorithm, machine) cell, and writes:

* ``spans.jsonl`` — every recorded span, one JSON object per line;
* ``trace.json`` — Chrome ``trace_event`` file combining the inspector /
  executor spans with the *threaded* executor's wall-clock per-core
  timeline (load it in ``chrome://tracing`` or https://ui.perfetto.dev);
* ``model_trace.json`` — the simulator's deterministic per-core timeline
  in model cycles (same format, 1 cycle exported as 1 µs);
* ``metrics.json`` — the metrics registry (vertices coarsened, PGP at
  each merge decision, bin-pack occupancy, cache hits, fault triggers).

It also prints the derived reports: per-core utilization, the sync-cost
breakdown with point-to-point wait attribution, and the trace-vs-model
load-imbalance comparison.  See EXPERIMENTS.md for the Perfetto recipe.

Examples::

    hdagg-bench trace --matrix mesh2d-s --kernel sptrsv --algorithm hdagg
    hdagg-bench trace --matrix band-wide --algorithm spmp --out traces/
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from . import reports
from .export import write_chrome_trace, write_spans_jsonl
from .state import observed
from .timeline import TimelineRecorder

__all__ = ["trace_main", "build_trace_parser"]


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hdagg-bench trace", description=__doc__)
    p.add_argument("--matrix", default="mesh2d-s", help="dataset matrix name")
    p.add_argument("--kernel", default="sptrsv",
                   choices=["sptrsv", "spic0", "spilu0"])
    p.add_argument("--algorithm", default="hdagg",
                   help="scheduler name (default: hdagg)")
    p.add_argument("--machine", default="intel20",
                   help="machine model for the simulator (intel20, amd64, laptop4)")
    p.add_argument("--cores", type=int, default=None,
                   help="core count (default: the machine model's)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="HDagg/LBC balance threshold")
    p.add_argument("--ordering", default="nd",
                   choices=["nd", "rcm", "natural", "random"])
    p.add_argument("--out-dir", "--out", dest="out", default="trace-out",
                   help="output directory (created if missing); --out is an "
                        "accepted alias so perf-lab and trace artifacts can "
                        "share one run directory")
    p.add_argument("--no-threaded", action="store_true",
                   help="skip the threaded execution (model timeline only)")
    return p


def _build_cell(args):
    """Matrix -> (g, cost, memory, machine, operand, kernel) for one cell."""
    from ..suite.harness import build_cell

    cell = build_cell(
        args.matrix,
        kernel=args.kernel,
        machine=args.machine,
        cores=args.cores,
        ordering=args.ordering,
    )
    return cell.dag, cell.cost, cell.memory, cell.machine, cell.operand, cell.kernel


def trace_main(argv: Optional[List[str]] = None) -> int:
    args = build_trace_parser().parse_args(argv)
    from ..runtime.simulator import simulate
    from ..runtime.threaded import run_threaded
    from ..schedulers import SCHEDULERS

    if args.algorithm not in SCHEDULERS:
        print(f"# unknown scheduler {args.algorithm!r}; "
              f"available: {sorted(SCHEDULERS)}", file=sys.stderr)
        return 2
    g, cost, memory, machine, operand, kernel = _build_cell(args)
    p = machine.n_cores
    os.makedirs(args.out, exist_ok=True)

    wall_recorder = TimelineRecorder()
    with observed() as (tracer, registry):
        schedule = SCHEDULERS[args.algorithm](g, cost, p, epsilon=args.epsilon)
        sim = simulate(schedule, g, cost, memory, machine,
                       collect_timeline=True)
        wall_timeline = None
        if not args.no_threaded:
            with tracer.span("execute/threaded", n=g.n, p=p):
                touched = np.zeros(g.n, dtype=np.int64)

                def process_vertex(v: int) -> None:
                    touched[v] += 1

                run_threaded(schedule, g, process_vertex, cost=cost,
                             timeline=wall_recorder)
            wall_timeline = wall_recorder.finalize()
        registry.gauge("simulator.makespan_cycles").set(sim.makespan_cycles)
        registry.gauge("simulator.potential_gain").set(sim.potential_gain)

    spans_path = os.path.join(args.out, "spans.jsonl")
    trace_path = os.path.join(args.out, "trace.json")
    model_path = os.path.join(args.out, "model_trace.json")
    metrics_path = os.path.join(args.out, "metrics.json")
    label = f"{args.matrix}/{args.kernel}/{args.algorithm}"
    write_spans_jsonl(tracer.spans, spans_path)
    write_chrome_trace(trace_path, tracer.spans, wall_timeline,
                       time_unit="s", label=label)
    write_chrome_trace(model_path, None, sim.timeline,
                       time_unit="cycles", label=f"{label} (model)")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(registry.to_json())
        fh.write("\n")

    print(f"# {label}: n={g.n} p={p} sync={schedule.sync} "
          f"levels={schedule.n_levels}")
    print(f"# spans: {len(tracer.spans)} -> {spans_path}")
    print(f"# chrome trace (wall): {trace_path}")
    print(f"# chrome trace (model cycles): {model_path}")
    print(f"# metrics: {len(registry)} -> {metrics_path}")
    print()
    print(reports.utilization_report(sim.timeline, unit="cycles"))
    print()
    print(reports.sync_report(sim.timeline, unit="cycles"))
    print()
    print(reports.imbalance_report(sim.timeline, schedule, cost,
                                   simulated_pg=sim.potential_gain))
    if wall_timeline is not None:
        print()
        print(reports.utilization_report(wall_timeline, unit="s"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(trace_main())
