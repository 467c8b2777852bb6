"""The baseline schedulers as declarative pass groups.

The level-set family (wavefront, SpMP, MKL-style) shares one
``wavefronts`` pass and differs only in its emit pass — chunking policy
and synchronisation model are *configuration*.  ``coarsenk`` adds a
fixed-window merge pass between the two.  LBC and DAGP keep their
monolithic algorithms (:mod:`repro.schedulers.lbc`,
:mod:`repro.schedulers.dagp`) as single passes with full contracts: the
verifier still checks their dataflow, and decomposing them further is a
follow-up, not a prerequisite.

Each group declares the options it takes with their defaults; the
registry entry :data:`repro.schedulers.SCHEDULERS` ``[name]`` runs the
group through :func:`repro.passes.registry.run_scheduler_group`.
"""

from __future__ import annotations

from typing import Any, List, Mapping

import numpy as np

from .base import Pass, PassContext, PassGroup
from .contracts import Contract

__all__ = [
    "build_wavefront_group",
    "build_spmp_group",
    "build_mkl_group",
    "build_coarsen_k_group",
    "build_serial_group",
    "build_lbc_group",
    "build_dagp_group",
]


# ----------------------------------------------------------------------
# shared pass: level decomposition
# ----------------------------------------------------------------------
def _run_wavefronts(ctx: PassContext) -> Mapping[str, Any]:
    from ..graph.wavefronts import compute_wavefronts

    return {"Wavefronts": compute_wavefronts(ctx["DAG"])}


_WAVEFRONTS_PASS = Pass(
    name="wavefronts",
    contract=Contract(
        requires=("DAG",),
        produces=("Wavefronts",),
        requires_invariants=("acyclic",),
        preserves=("acyclic", "topo-ordered"),
    ),
    run=_run_wavefronts,
    repair="recompute",
)


# ----------------------------------------------------------------------
# wavefront / spmp / mkl emit passes
#
# Wavefront is the classic inspector [2], [3]: traverse the DAG in
# topological order to build the wavefronts; each wavefront's iterations
# run in parallel and a global barrier follows every wavefront.  Within a
# wavefront, rows are split into at most ``p`` contiguous cost-balanced
# chunks (``omp parallel for`` with static cost-aware chunking).  The
# weaknesses the paper calls out — a barrier per level (count grows with
# the critical path), no reuse of dependent iterations on one core — fall
# out of the structure and are measured by the metrics layer.
#
# SpMP [4] keeps the same cost-balanced chunks but synchronises them
# point-to-point (see :mod:`repro.schedulers.spmp`).
#
# MKL substitution note (see DESIGN.md): Intel MKL is closed source, so the
# paper's MKL column is modelled by what ``mkl_sparse_optimize`` + parallel
# ``mkl_sparse_d_trsv`` publicly do for triangular solves: level-set
# scheduling with a barrier per level and *cost-oblivious* static chunking
# of each level across threads (equal row counts, not equal work).  The
# cost-obliviousness is the behavioural difference from the tuned Wavefront
# baseline and is what makes the vendor column weaker on skewed matrices,
# in line with the paper's larger average speedup over MKL (3.56x) than
# over Wavefront (1.95x).  MKL's inspection is also the most expensive of
# the level-set family (the paper sets ``expected_calls = 1000``); the
# harness models that with a higher per-edge inspector constant.
# ----------------------------------------------------------------------
def _emit_levels(ctx: PassContext, *, chunk: str, sync: str, algorithm: str) -> Mapping[str, Any]:
    from ..core.schedule import Schedule, WidthPartition
    from ..schedulers.base import chunk_by_cost, chunk_by_count

    g = ctx["DAG"]
    p = ctx["Cores"]
    waves = ctx["Wavefronts"]
    levels: List[List[WidthPartition]] = []
    for k in range(waves.n_levels):
        verts = waves.wavefront(k)
        if chunk == "cost":
            chunks = chunk_by_cost(verts, ctx["Cost"], p)
        else:
            chunks = chunk_by_count(verts, p)
        levels.append(
            [WidthPartition(core=i, vertices=ch) for i, ch in enumerate(chunks)]
        )
    schedule = Schedule(
        n=g.n,
        levels=levels,
        sync=sync,
        algorithm=algorithm,
        n_cores=p,
        meta={"n_wavefronts": waves.n_levels},
    )
    return {"Schedule": schedule}


def _run_emit_wavefront(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="cost", sync="barrier", algorithm="wavefront")


def _run_emit_spmp(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="cost", sync="p2p", algorithm="spmp")


def _run_emit_mkl(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="count", sync="barrier", algorithm="mkl")


def _level_emit_pass(name: str, run: Any, requires: tuple) -> Pass:
    return Pass(
        name=name,
        contract=Contract(
            requires=requires,
            produces=("Schedule",),
            requires_invariants=("acyclic", "topo-ordered"),
            establishes=("dependence-closed", "vertex-cover"),
        ),
        run=run,
        repair="splice",
    )


def build_wavefront_group() -> PassGroup:
    return PassGroup(
        name="wavefront",
        passes=(
            _WAVEFRONTS_PASS,
            _level_emit_pass(
                "emit-cost-chunks", _run_emit_wavefront, ("Wavefronts", "DAG", "Cost", "Cores")
            ),
        ),
        inputs=("DAG", "Cost", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="level sets, cost-balanced chunks, one barrier per level",
    )


def build_spmp_group() -> PassGroup:
    return PassGroup(
        name="spmp",
        passes=(
            _WAVEFRONTS_PASS,
            _level_emit_pass(
                "emit-p2p-chunks", _run_emit_spmp, ("Wavefronts", "DAG", "Cost", "Cores")
            ),
        ),
        inputs=("DAG", "Cost", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="level grouping with point-to-point synchronisation",
    )


def build_mkl_group() -> PassGroup:
    return PassGroup(
        name="mkl",
        passes=(
            _WAVEFRONTS_PASS,
            _level_emit_pass(
                "emit-count-chunks", _run_emit_mkl, ("Wavefronts", "DAG", "Cores")
            ),
        ),
        inputs=("DAG", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="vendor-style level sets with cost-oblivious chunking",
    )


# ----------------------------------------------------------------------
# coarsenk: fixed-window merge between the shared passes
#
# The prior art LBP improves on: the paper cites wavefront-coarsening
# approaches [5], [6] that "merge vertices across wavefronts to create
# well-balanced coarsened wavefronts" with a *fixed* policy, contrasting
# them with LBP's balance-preserving cuts.  This baseline merges every
# ``k`` consecutive wavefronts regardless of what that does to the
# component structure, then packs the merged range's connected components
# into ``p`` bins (packing components is mandatory for correctness —
# partitions of one level must not depend on each other).
#
# Its failure mode is exactly what Section IV-C predicts: a window that
# crosses a connectivity bottleneck produces a single giant component and a
# serialised level.  The ablation benchmark uses it to quantify what the
# PGP-driven cut policy is worth.
# ----------------------------------------------------------------------
def _run_window_merge(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.binpack import first_fit_pack
    from ..graph.connected_components import components_as_lists

    g = ctx["DAG"]
    cost = ctx["Cost"]
    p = ctx["Cores"]
    waves = ctx["Wavefronts"]
    k = ctx.options["k"]
    if k < 1:
        raise ValueError("window k must be >= 1")
    windows = []
    for lo in range(0, waves.n_levels, k):
        hi = min(lo + k, waves.n_levels)
        verts = waves.vertices_in_range(lo, hi)
        comps = components_as_lists(g, verts)
        packing = first_fit_pack([float(cost[c].sum()) for c in comps], p)
        windows.append((lo, hi, comps, packing))
    return {"LBPPartition": windows}


def _run_emit_windows(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.schedule import Schedule, WidthPartition

    g = ctx["DAG"]
    p = ctx["Cores"]
    waves = ctx["Wavefronts"]
    levels: List[List[WidthPartition]] = []
    for _lo, _hi, comps, packing in ctx["LBPPartition"]:
        parts = []
        for core, items in enumerate(packing.items_per_bin(p)):
            if items.size == 0:
                continue
            members = np.sort(np.concatenate([comps[int(t)] for t in items]))
            parts.append(WidthPartition(core=core, vertices=members))
        if parts:
            levels.append(parts)
    schedule = Schedule(
        n=g.n,
        levels=levels,
        sync="barrier",
        algorithm="coarsenk",
        n_cores=p,
        meta={"window": ctx.options["k"], "n_wavefronts": waves.n_levels},
    )
    return {"Schedule": schedule}


def build_coarsen_k_group() -> PassGroup:
    return PassGroup(
        name="coarsenk",
        passes=(
            _WAVEFRONTS_PASS,
            Pass(
                name="window-merge",
                contract=Contract(
                    requires=("Wavefronts", "DAG", "Cost", "Cores"),
                    produces=("LBPPartition",),
                    requires_invariants=("acyclic", "topo-ordered"),
                ),
                run=_run_window_merge,
                repair="splice",
            ),
            Pass(
                name="emit-windows",
                contract=Contract(
                    requires=("LBPPartition", "Wavefronts", "DAG", "Cores"),
                    produces=("Schedule",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=("dependence-closed", "vertex-cover"),
                ),
                run=_run_emit_windows,
                repair="splice",
            ),
        ),
        inputs=("DAG", "Cost", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="fixed-window wavefront coarsening with component packing",
        options={"k": 4},  # levels per coarsened wavefront
    )


# ----------------------------------------------------------------------
# serial / lbc / dagp: single-pass groups
# ----------------------------------------------------------------------
def _run_serial(ctx: PassContext) -> Mapping[str, Any]:
    # the sequential baseline every NRE computation needs: all iterations
    # in ascending id order on core 0, no synchronisation
    from ..core.schedule import Schedule, WidthPartition
    from ..sparse.csr import INDEX_DTYPE

    g = ctx["DAG"]
    levels = [[WidthPartition(core=0, vertices=np.arange(g.n, dtype=INDEX_DTYPE))]] if g.n else []
    schedule = Schedule(n=g.n, levels=levels, sync="barrier", algorithm="serial", n_cores=1)
    return {"Schedule": schedule}


def build_serial_group() -> PassGroup:
    return PassGroup(
        name="serial",
        passes=(
            Pass(
                name="emit-serial",
                contract=Contract(
                    requires=("DAG",),
                    produces=("Schedule",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=("dependence-closed", "vertex-cover"),
                ),
                run=_run_serial,
                repair="recompute",
            ),
        ),
        inputs=("DAG", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="ascending-id order on one core (NRE denominator)",
    )


def _run_lbc(ctx: PassContext) -> Mapping[str, Any]:
    from ..schedulers.lbc import lbc_body

    return {
        "Schedule": lbc_body(ctx["DAG"], ctx["Cost"], ctx["Cores"], ctx["Epsilon"])
    }


def build_lbc_group() -> PassGroup:
    from ..core.pgp import DEFAULT_EPSILON

    return PassGroup(
        name="lbc",
        passes=(
            Pass(
                name="lbc-etree-cut",
                contract=Contract(
                    requires=("DAG", "Cost", "Cores", "Epsilon"),
                    produces=("Schedule",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=("dependence-closed", "vertex-cover"),
                ),
                run=_run_lbc,
                repair="recompute",
            ),
        ),
        inputs=("DAG", "Cost", "Cores", "Epsilon"),
        assumes=("acyclic", "topo-ordered"),
        description="elimination-tree cut with packed subtrees (ParSy)",
        options={"epsilon": DEFAULT_EPSILON},
    )


def _run_dagp(ctx: PassContext) -> Mapping[str, Any]:
    from ..schedulers.dagp import dagp_body

    return {
        "Schedule": dagp_body(ctx["DAG"], ctx["Cost"], ctx["Cores"], ctx.options["k"])
    }


def build_dagp_group() -> PassGroup:
    return PassGroup(
        name="dagp",
        passes=(
            Pass(
                name="dagp-partition-quotient",
                contract=Contract(
                    requires=("DAG", "Cost", "Cores"),
                    produces=("Schedule",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=("dependence-closed", "vertex-cover"),
                ),
                run=_run_dagp,
                repair="recompute",
            ),
        ),
        inputs=("DAG", "Cost", "Cores"),
        assumes=("acyclic", "topo-ordered"),
        description="acyclic partitioning with a list-scheduled quotient DAG",
        options={"k": 1000},  # the paper's best-performing part count
    )
