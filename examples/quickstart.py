#!/usr/bin/env python
"""Quickstart: the paper's Listing 2 driver, in Python.

Builds an SPD matrix, runs the HDagg inspector for SpILU0, executes the
factorisation through the schedule, verifies it, and reports the simulated
speedup over sequential execution on the paper's 20-core machine model.

Run:  python examples/quickstart.py [path/to/matrix.mtx]
"""

import sys

from repro import INTEL20, SpILU0, hdagg, simulate
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, poisson2d, read_matrix_market


def main() -> None:
    # ---------------- load the input matrix -------------------------
    if len(sys.argv) > 1:
        a = read_matrix_market(sys.argv[1])
        print(f"loaded {sys.argv[1]}: n={a.n_rows}, nnz={a.nnz}")
    else:
        a = poisson2d(64, seed=7)
        print(f"generated poisson2d(64): n={a.n_rows}, nnz={a.nnz}")
    a, _ = apply_ordering(a, "nd")  # the paper's METIS pre-pass

    kernel = SpILU0()

    # ---------------- inspector (Listing 2) -------------------------
    g = kernel.dag(a)  # Graph G = ILU0.DAG(A)
    c = kernel.cost(a)  # Cost  C = ILU0.cost(A)
    schedule = hdagg(g, c, INTEL20.n_cores)  # S = HDagg(G, C, p, eps)
    schedule.validate(g)
    print(
        f"HDagg: {schedule.meta['n_wavefronts']} wavefronts -> "
        f"{schedule.n_levels} coarsened wavefronts, "
        f"{schedule.n_partitions} width-partitions"
        f"{' (fine-grained)' if schedule.fine_grained else ''}"
    )

    # ---------------- executor --------------------------------------
    factor = kernel.execute_in_order(a, schedule.execution_order())
    defect = kernel.verify(a, factor)
    print(f"ILU(0) factor computed through the schedule; defect = {defect:.2e}")

    # ---------------- simulated performance -------------------------
    memory = kernel.memory_model(a, g)
    serial = simulate(SCHEDULERS["serial"](g, c), g, c, memory, INTEL20.scaled(1))
    parallel = simulate(schedule, g, c, memory, INTEL20)
    print(
        f"simulated on {INTEL20.name}: speedup {serial.makespan_cycles / parallel.makespan_cycles:.2f}x, "
        f"avg memory latency {parallel.avg_memory_access_latency:.1f} cycles, "
        f"potential gain {parallel.potential_gain:.2f}, "
        f"{parallel.n_barriers} barriers"
    )


if __name__ == "__main__":
    main()
