#!/usr/bin/env python
"""Iterative solver: the workload that amortises the inspector (Figure 9).

Preconditioned conjugate gradient with an IC(0) preconditioner applies the
same two triangular solves at every iteration — "these overheads are
quickly amortized in iterative solvers where a kernel is executed tens of
thousands of times" (Section V-B).  This example:

1. factors A with schedule-driven SpIC0;
2. runs CG and PCG, counting kernel executions;
3. evaluates Equation 2's NRE with the modelled inspector cost and the
   simulated per-execution gain, showing the break-even point.

Run:  python examples/iterative_solver.py
"""

import numpy as np

from repro import INTEL20, hdagg, simulate
from repro.kernels import SpIC0, SpTRSV
from repro.kernels.sptrsv import sptrsv_levelwise, sptrsv_transpose_levelwise
from repro.metrics import inspector_cost_model, nre
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, conjugate_gradient, poisson2d


def main() -> None:
    a, _ = apply_ordering(poisson2d(40, seed=3), "nd")
    rng = np.random.default_rng(0)
    b = rng.normal(size=a.n_rows)
    print(f"system: n={a.n_rows}, nnz={a.nnz}")

    # ---- factor with a schedule-driven SpIC0 ------------------------
    ic0 = SpIC0()
    g = ic0.dag(a)
    schedule = hdagg(g, ic0.cost(a), INTEL20.n_cores)
    factor = ic0.execute_in_order(a, schedule.execution_order())
    print(f"IC(0) defect: {ic0.verify(a, factor):.2e}")

    from repro.graph import compute_wavefronts

    waves = compute_wavefronts(g)  # shared by both triangular sweeps

    def preconditioner(r):
        y = sptrsv_levelwise(factor, r, waves)  # L y = r (forward sweep)
        return sptrsv_transpose_levelwise(factor, y, waves)  # L^T z = y

    # ---- CG vs PCG ---------------------------------------------------
    plain = conjugate_gradient(a, b, tol=1e-10)
    pcg = conjugate_gradient(a, b, preconditioner=preconditioner, tol=1e-10)
    print(f"CG  iterations: {plain.iterations} (converged={plain.converged})")
    print(f"PCG iterations: {pcg.iterations} (converged={pcg.converged})")
    solves_performed = 2 * pcg.iterations  # L and L^T per iteration

    # ---- when does the inspector pay for itself? ---------------------
    trsv = SpTRSV()
    low = factor
    g_trsv = trsv.dag(low)
    cost = trsv.cost(low)
    mem = trsv.memory_model(low, g_trsv)
    sched = hdagg(g_trsv, cost, INTEL20.n_cores)
    serial = simulate(SCHEDULERS["serial"](g_trsv, cost), g_trsv, cost, mem, INTEL20.scaled(1))
    parallel = simulate(sched, g_trsv, cost, mem, INTEL20)
    insp = inspector_cost_model("hdagg", g_trsv, sched)
    required = nre(insp, serial, parallel)
    print(
        f"SpTRSV speedup {serial.makespan_cycles / parallel.makespan_cycles:.2f}x; "
        f"NRE = {required:.1f} kernel executions to amortise the inspector"
    )
    print(
        f"this PCG run performs {solves_performed} triangular solves -> "
        f"inspector amortised {solves_performed / max(required, 1e-9):.1f}x over"
        if solves_performed > required
        else f"this run performs {solves_performed} solves; a longer solve "
        f"(or more right-hand sides) amortises the inspector"
    )


if __name__ == "__main__":
    main()
