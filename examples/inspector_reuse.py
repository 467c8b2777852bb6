#!/usr/bin/env python
"""Inspector cost and auto-selection — the library-adoption workflow.

Two questions a downstream solver asks before reusing one schedule across
many executions, answered together:

* what does an inspection cost, and where does the time go?  A
  ``(cores, epsilon)`` sweep through :data:`repro.schedulers.SCHEDULERS`
  reports HDagg's inspector seconds per stage (``meta["stage_seconds"]``);
* which scheduler pays for itself at my execution count?
  :func:`repro.suite.choose_scheduler` picks serial / wavefront / SpMP /
  HDagg by total cost for an expected execution count (MKL's
  ``expected_calls`` knob made explicit, Section V-B economics).

Run:  python examples/inspector_reuse.py
"""

from repro import INTEL20, simulate
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle, poisson2d
from repro.suite import choose_scheduler, format_table


def main() -> None:
    a, _ = apply_ordering(poisson2d(56, seed=11), "nd")
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(a)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    memory = kernel.memory_model(low, g)
    print(f"system: n={g.n}, edges={g.n_edges}")

    # ---- where one inspection spends its time, across a (p, eps) sweep --
    rows = []
    for p in (4, 8, 16, 20):
        for eps in (0.1, 0.3, 0.5):
            schedule = SCHEDULERS["hdagg"](g, cost, p, epsilon=eps)
            stages = schedule.meta["stage_seconds"]
            rows.append(
                [p, eps, schedule.n_levels, sum(stages.values()) * 1e3,
                 max(stages, key=stages.get)]
            )
    print(
        format_table(
            ["cores", "epsilon", "levels", "inspect ms", "slowest stage"],
            rows,
            title="HDagg inspection across a (cores, epsilon) sweep",
        )
    )

    # ---- expected-calls-driven scheduler selection ----------------------
    rows = []
    for n_exec in (1, 5, 50, 1000, 100_000):
        choice = choose_scheduler(g, cost, memory, INTEL20, n_exec)
        rows.append(
            [n_exec, choice.algorithm, choice.inspector_cycles, choice.makespan_cycles]
        )
    print()
    print(
        format_table(
            ["expected executions", "chosen", "inspector cycles", "per-run cycles"],
            rows,
            title="scheduler choice vs expected executions (Equation 2 economics)",
        )
    )

    serial = simulate(SCHEDULERS["serial"](g, cost), g, cost, memory, INTEL20.scaled(1))
    best = choose_scheduler(g, cost, memory, INTEL20, 100_000)
    print(
        f"\nat 100k executions the {best.algorithm} schedule runs "
        f"{serial.makespan_cycles / best.makespan_cycles:.2f}x faster than serial"
    )


if __name__ == "__main__":
    main()
