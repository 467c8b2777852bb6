#!/usr/bin/env python
"""End-to-end scheduled direct solver: reorder, factor, solve, verify.

The full pipeline a sparse direct solver runs, with every dependence-bound
stage driven by an HDagg schedule:

1. nested-dissection reordering (the METIS pre-pass);
2. symbolic Cholesky (fill pattern + elimination tree);
3. numeric Cholesky through the scheduled executor;
4. forward solve ``L y = b`` and backward solve ``L^T x = y`` via the
   level-wise kernels;
5. residual check against the original system.

Run:  python examples/direct_solver.py
"""

import numpy as np

from repro import INTEL20, hdagg, simulate
from repro.graph import compute_wavefronts
from repro.kernels import SpChol, SpTRSV
from repro.kernels.sptrsv import sptrsv_levelwise, sptrsv_transpose_levelwise
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, fill_in, poisson2d

# Row-granular complete factorisation moves whole factor rows between
# cores; at this demo scale the coherence traffic eats most of the
# parallel gain (real solvers go supernodal/BLAS3 for exactly this
# reason), so simulate a few fat cores rather than the full socket.
MACHINE = INTEL20.scaled(4)


def main() -> None:
    raw = poisson2d(48, seed=9)
    rng = np.random.default_rng(4)
    b_raw = rng.normal(size=raw.n_rows)
    print(f"system: n={raw.n_rows}, nnz={raw.nnz}")

    # 1. reorder (and permute the right-hand side with it)
    a, perm = apply_ordering(raw, "nd")
    b = b_raw[perm]
    print(f"nested dissection: fill {fill_in(raw)} -> {fill_in(a)} entries")

    # 2 + 3. symbolic + scheduled numeric factorisation
    chol = SpChol()
    g = chol.dag(a)
    schedule = hdagg(g, chol.cost(a), MACHINE.n_cores)
    schedule.validate(g)
    factor = chol.execute_in_order(a, schedule.execution_order())
    print(
        f"factor: nnz={factor.nnz} "
        f"({schedule.meta['n_wavefronts']} wavefronts -> {schedule.n_levels} CWs), "
        f"defect={chol.verify(a, factor):.2e}"
    )

    # 4. triangular solves (forward + transpose) on the factor
    waves = compute_wavefronts(SpTRSV().dag(factor))
    y = sptrsv_levelwise(factor, b, waves)
    x = sptrsv_transpose_levelwise(factor, y, waves)

    # 5. verify against the *original* system
    x_raw = np.empty_like(x)
    x_raw[perm] = x
    residual = np.linalg.norm(raw.matvec(x_raw) - b_raw) / np.linalg.norm(b_raw)
    print(f"relative residual on the original system: {residual:.2e}")

    # bonus: what the machine model says about the factorisation schedule
    mem = chol.memory_model(a, g)
    cost = chol.cost(a)
    serial = simulate(SCHEDULERS["serial"](g, cost), g, cost, mem, MACHINE.scaled(1))
    par = simulate(schedule, g, cost, mem, MACHINE)
    print(
        f"simulated factorisation speedup on {MACHINE.name}: "
        f"{serial.makespan_cycles / par.makespan_cycles:.2f}x"
    )


if __name__ == "__main__":
    main()
