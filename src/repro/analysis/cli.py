"""``hdagg-bench analyze``: certify schedules across the suite.

Runs the static analyses over a (matrix x kernel x scheduler) grid:

* dependence verifier — every DAG edge ordered by the schedule;
* memory-footprint race detector — no same-wavefront cross-partition
  footprint conflict (independent of the DAG construction);
* optional happens-before trace check (``--trace``) — execute through the
  threaded runtime and replay the event log through vector clocks;
* optional mutation harness (``--mutate``) — inject the known-unsafe
  schedule edits and fail unless every applicable mutation is caught.

Exit status is non-zero on any finding (or escaped mutant), which is what
the CI smoke job keys on.  Examples::

    hdagg-bench analyze --suite --quick
    hdagg-bench analyze --suite --kernels sptrsv --schedulers hdagg lbc
    hdagg-bench analyze --suite --quick --trace --mutate --json analyze.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

from ..kernels import KERNELS
from ..schedulers import SCHEDULERS
from ..sparse.ordering import apply_ordering
from ..sparse.triangular import lower_triangle
from .footprint import FOOTPRINTS, kernel_footprint
from .mutate import run_mutation_suite
from .races import detect_races
from .tracecheck import TraceRecorder, check_trace
from .verifier import verify_dependences

__all__ = ["analyze_main", "build_analyze_parser", "analyze_grid"]

#: kernels with a footprint model — the grid the smoke job certifies.
DEFAULT_KERNELS = ("sptrsv", "spic0", "spilu0")


def build_analyze_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hdagg-bench analyze", description=__doc__)
    p.add_argument("--suite", action="store_true", help="run over the evaluation dataset")
    p.add_argument("--quick", action="store_true", help="small per-family subset")
    p.add_argument("--matrices", nargs="+", default=None, help="restrict to named matrices")
    p.add_argument("--kernels", nargs="+", default=list(DEFAULT_KERNELS))
    p.add_argument("--schedulers", nargs="+", default=None,
                   help="scheduler names (default: every registered scheduler)")
    p.add_argument("--cores", type=int, default=8, help="core count to schedule for")
    p.add_argument("--epsilon", type=float, default=None, help="HDagg/LBC balance threshold")
    p.add_argument("--ordering", default="nd", choices=["nd", "rcm", "natural", "random"])
    p.add_argument("--trace", action="store_true",
                   help="also execute through the threaded runtime and check the trace")
    p.add_argument("--timeline", action="store_true",
                   help="also collect the simulator's per-core model timeline and "
                        "report its load-balance / sync summary per combination")
    p.add_argument("--mutate", action="store_true",
                   help="also run the mutation harness and fail on escaped mutants")
    p.add_argument("--max-witnesses", type=int, default=4)
    p.add_argument("--json", default=None, help="dump per-combination results to a JSON file")
    p.add_argument("--out-dir", default=None,
                   help="artifact directory (created if missing); a relative "
                        "--json path is placed inside it, and omitting --json "
                        "writes analyze.json there — same convention as "
                        "'trace --out-dir' and 'perf report --out-dir'")
    return p


def _schedulers_for(names: Optional[List[str]], kernel: str) -> List[str]:
    chosen = list(names) if names else sorted(SCHEDULERS)
    # MKL's SpIC0/SpILU0 are not parallel (Section V): same rule as the harness
    return [a for a in chosen if not (a == "mkl" and kernel != "sptrsv")]


def analyze_grid(
    specs,
    *,
    kernels=DEFAULT_KERNELS,
    schedulers: Optional[List[str]] = None,
    cores: int = 8,
    epsilon: Optional[float] = None,
    ordering: str = "nd",
    trace: bool = False,
    mutate: bool = False,
    timeline: bool = False,
    max_witnesses: int = 4,
    progress=None,
) -> List[Dict]:
    """Certify every (matrix, kernel, scheduler) combination; returns rows.

    Each row carries ``ok`` plus the individual analysis outcomes; callers
    (CLI, tests, CI) decide how to render or fail.
    """
    rows: List[Dict] = []
    for spec in specs:
        t_prep = time.perf_counter()
        try:
            ordered, _ = apply_ordering(spec.build(), ordering)
        except Exception as exc:
            # a broken matrix must not kill the rest of the grid: emit one
            # structured error row and move on
            row = _error_row(spec.name, "*", "*", exc, time.perf_counter() - t_prep)
            rows.append(row)
            if progress is not None:
                progress(row)
            continue
        for kname in kernels:
            if kname not in FOOTPRINTS:
                raise KeyError(f"kernel {kname!r} has no footprint model")
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g = kernel.dag(operand)
            cost = kernel.cost(operand)
            fp = kernel_footprint(kname, operand)
            for algo in _schedulers_for(schedulers, kname):
                t0 = time.perf_counter()
                try:
                    schedule = SCHEDULERS[algo](g, cost, cores, epsilon=epsilon)
                    dep = verify_dependences(schedule, g, max_witnesses=max_witnesses)
                    races = detect_races(schedule, fp, max_witnesses=max_witnesses)
                    row: Dict = {
                        "matrix": spec.name,
                        "kernel": kname,
                        "algorithm": algo,
                        "n": g.n,
                        "n_edges": g.n_edges,
                        "verifier": dep.as_dict(),
                        "races": races.as_dict(),
                        "ok": dep.ok and races.ok,
                    }
                    if trace:
                        recorder = TraceRecorder()
                        run_trace_ok, trace_detail = _trace_one(schedule, g, cost, recorder)
                        row["trace"] = {"ok": run_trace_ok, "detail": trace_detail,
                                        "n_events": len(recorder)}
                        row["ok"] = row["ok"] and run_trace_ok
                    if timeline:
                        row["timeline"] = _timeline_one(
                            schedule, g, cost, kernel, operand, cores
                        )
                    if mutate:
                        results = run_mutation_suite(schedule, g, fp)
                        escaped = [r.name for r in results if r.escaped]
                        row["mutations"] = {
                            "applied": sum(1 for r in results if r.applied),
                            "caught": sum(1 for r in results if r.caught),
                            "escaped": escaped,
                        }
                        row["ok"] = row["ok"] and not escaped
                    row["seconds"] = time.perf_counter() - t0
                except Exception as exc:
                    row = _error_row(spec.name, kname, algo, exc,
                                     time.perf_counter() - t0,
                                     n=g.n, n_edges=g.n_edges)
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


def _error_row(matrix: str, kernel: str, algorithm: str, exc: BaseException,
               seconds: float, *, n: int = 0, n_edges: int = 0) -> Dict:
    """Structured row for a combination that raised instead of analysing."""
    return {
        "matrix": matrix,
        "kernel": kernel,
        "algorithm": algorithm,
        "n": n,
        "n_edges": n_edges,
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "seconds": seconds,
    }


def _timeline_one(schedule, g, cost, kernel, operand, cores) -> Dict:
    """Model-timeline summary for one combination (opt-in via --timeline)."""
    from ..observability.reports import sync_breakdown
    from ..runtime.machine import MACHINES
    from ..runtime.simulator import simulate

    memory = kernel.memory_model(operand, g)
    sim = simulate(schedule, g, cost, memory, MACHINES["intel20"].scaled(cores),
                   collect_timeline=True)
    breakdown = sync_breakdown(sim.timeline, top=3)
    return {
        "model_pg": sim.timeline.measured_pg(),
        "makespan_cycles": sim.makespan_cycles,
        "busy_cycles": breakdown["busy"],
        "barrier_wait_cycles": breakdown["barrier_wait"],
        "p2p_wait_cycles": breakdown["p2p_wait"],
        "idle_cycles": breakdown["idle"],
        "top_dependences": breakdown["top_dependences"],
    }


def _trace_one(schedule, g, cost, recorder) -> tuple:
    """Threaded no-op execution + vector-clock replay of the trace."""
    from ..runtime.threaded import ThreadedExecutionError, run_threaded

    try:
        run_threaded(schedule, g, lambda v: None, cost=cost,
                     deadlock_timeout=10.0, trace=recorder)
    except ThreadedExecutionError as exc:
        return False, f"executor: {exc}"
    report = check_trace(recorder.events, g)
    return report.ok, "" if report.ok else report.describe()


def _format_row(row: Dict) -> str:
    status = "ok" if row["ok"] else "FAIL"
    if "error" in row:
        return (
            f"{row['matrix']:>14s} {row['kernel']:>7s} {row['algorithm']:>9s} "
            f"{status:>4s} ({row['seconds'] * 1e3:7.1f} ms) error={row['error']}"
        )
    extra = ""
    if not row["verifier"]["ok"]:
        extra += f" dep-violations={row['verifier']['n_violations']}"
    if not row["races"]["ok"]:
        extra += f" race-groups={row['races']['n_conflicting_groups']}"
    if "trace" in row and not row["trace"]["ok"]:
        extra += " trace=FAIL"
    if "mutations" in row:
        m = row["mutations"]
        extra += f" mutants={m['caught']}/{m['applied']}"
        if m["escaped"]:
            extra += f" escaped={','.join(m['escaped'])}"
    if "timeline" in row:
        t = row["timeline"]
        extra += f" model-pg={t['model_pg']:.3f}"
    return (
        f"{row['matrix']:>14s} {row['kernel']:>7s} {row['algorithm']:>9s} "
        f"{status:>4s} ({row['seconds'] * 1e3:7.1f} ms){extra}"
    )


def analyze_main(argv=None) -> int:
    args = build_analyze_parser().parse_args(argv)
    from ..suite.matrices import SUITE, small_suite

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        if args.json is None:
            args.json = os.path.join(args.out_dir, "analyze.json")
        elif not os.path.isabs(args.json):
            args.json = os.path.join(args.out_dir, args.json)

    if args.matrices:
        by_name = {s.name: s for s in SUITE}
        specs = [by_name[m] for m in args.matrices]
    elif args.suite or args.quick:
        specs = small_suite() if args.quick else list(SUITE)
    else:
        print("nothing to analyze: pass --suite, --quick, or --matrices", file=sys.stderr)
        return 2
    for k in args.kernels:
        if k not in KERNELS:
            print(f"unknown kernel {k!r}", file=sys.stderr)
            return 2
    if args.schedulers:
        for a in args.schedulers:
            if a not in SCHEDULERS:
                print(f"unknown scheduler {a!r}; available: {sorted(SCHEDULERS)}",
                      file=sys.stderr)
                return 2

    rows = analyze_grid(
        specs,
        kernels=tuple(args.kernels),
        schedulers=args.schedulers,
        cores=args.cores,
        epsilon=args.epsilon,
        ordering=args.ordering,
        trace=args.trace,
        mutate=args.mutate,
        timeline=args.timeline,
        max_witnesses=args.max_witnesses,
        progress=lambda row: print(_format_row(row), flush=True),
    )
    n_bad = sum(1 for r in rows if not r["ok"])
    verify_s = sum(r["verifier"]["seconds"] for r in rows if "verifier" in r)
    races_s = sum(r["races"]["seconds"] for r in rows if "races" in r)
    print(
        f"# {len(rows)} combinations, {n_bad} findings "
        f"(verifier {verify_s:.2f}s, race detector {races_s:.2f}s)",
        file=sys.stderr,
    )
    if args.json:
        from ..suite.reporting import dump_json

        dump_json({"rows": rows, "n_findings": n_bad}, args.json)
        print(f"# wrote {args.json}", file=sys.stderr)
    for row in rows:
        if row["ok"]:
            continue
        if "error" in row:
            print(f"  error [{row['matrix']}/{row['kernel']}/{row['algorithm']}]: "
                  f"{row['error']}", file=sys.stderr)
            continue
        for w in row["verifier"]["witnesses"]:
            print(f"  witness [{row['matrix']}/{row['kernel']}/{row['algorithm']}]: {w}",
                  file=sys.stderr)
        for w in row["races"]["witnesses"]:
            print(f"  race [{row['matrix']}/{row['kernel']}/{row['algorithm']}]: {w}",
                  file=sys.stderr)
    return 1 if n_bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(analyze_main())
