"""The HDagg inspector as a pass group (Algorithm 1, stage per pass).

Each stage of the paper's Algorithm 1 is one :class:`~repro.passes.base.Pass`
bound to the backend registry stage of the same name, with the contract the
inline pipeline used implicitly:

========= ============================ ==============================
pass       consumes                     produces
========= ============================ ==============================
reduce     DAG                          ReducedDAG
aggregate  ReducedDAG, Cost, Cores      Grouping
coarsen    ReducedDAG, Grouping, Cost   CoarseDAG, GroupCost
lbp        CoarseDAG, GroupCost, ...    CoarsenedWaves
expand     CoarsenedWaves, Grouping...  Schedule
========= ============================ ==============================

:func:`build_hdagg_group` is the factory the ablation switches configure:
``transitive_reduce=False`` swaps the reduce pass for an identity variant
(same timer window, same fault site — only the contract loses
``transitively-reduced``), ``aggregate=False`` replaces step 1 with an
identity grouping, ``bin_pack=False`` swaps the LBP pass for the
force-fine-grained variant.  Ablations and successor schedulers are
different pass lists, not code surgery.  Every variant declares the same
options: the load-balance threshold, the backend spec, the step-1 group
cap, and the synchronisation model.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .base import Pass, PassContext, PassGroup
from .contracts import Contract

__all__ = ["build_hdagg_group", "HDAGG_INPUTS", "HDAGG_ASSUMES"]

#: artifacts the hdagg driver seeds the context with
HDAGG_INPUTS = ("DAG", "Cost", "Cores", "Epsilon", "Backend")

#: invariants the kernel DAG builders guarantee on those inputs
HDAGG_ASSUMES = ("acyclic", "topo-ordered", "bit-identical-under-backend")


def _resolve(ctx: PassContext, stage: str) -> Any:
    """Backend-registry implementation for ``stage`` under the context spec."""
    from ..core.backends import resolve_stage

    fn, _tier = resolve_stage(ctx.spec, stage)
    return fn


# ----------------------------------------------------------------------
# pass bodies
# ----------------------------------------------------------------------
def _run_reduce(ctx: PassContext) -> Mapping[str, Any]:
    return {"ReducedDAG": _resolve(ctx, "reduce")(ctx["DAG"])}


def _run_reduce_identity(ctx: PassContext) -> Mapping[str, Any]:
    # ablation (transitive_reduce=False): subtree grouping on the raw DAG
    return {"ReducedDAG": ctx["DAG"]}


def _run_aggregate(ctx: PassContext) -> Mapping[str, Any]:
    cost = ctx["Cost"]
    cap_fraction = ctx.options["group_cost_cap_fraction"]
    cap = (
        cap_fraction * float(cost.sum()) / ctx["Cores"]
        if cap_fraction is not None
        else None
    )
    return {"Grouping": _resolve(ctx, "aggregate")(ctx["ReducedDAG"], cost, cap)}


def _run_identity_grouping(ctx: PassContext) -> Mapping[str, Any]:
    # ablation (aggregate=False): step 1 disabled, every vertex its own group
    from ..graph.coarsen import identity_grouping

    g = ctx["DAG"]
    return {"ReducedDAG": g, "Grouping": identity_grouping(g.n)}


def _run_coarsen(ctx: PassContext) -> Mapping[str, Any]:
    g2, group_cost = _resolve(ctx, "coarsen")(
        ctx["ReducedDAG"], ctx["Grouping"], ctx["Cost"]
    )
    return {"CoarseDAG": g2, "GroupCost": group_cost}


def _run_lbp(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.backends import resolve_stage

    lbp_fn, _ = resolve_stage(ctx.spec, "lbp")
    pack_fn, pack_tier = resolve_stage(ctx.spec, "binpack")
    lbp = lbp_fn(
        ctx["CoarseDAG"],
        ctx["GroupCost"],
        ctx["Cores"],
        ctx["Epsilon"],
        allow_fine_grained=True,
        pack=None if pack_tier == "numpy" else pack_fn,
    )
    return {"CoarsenedWaves": lbp}


def _run_lbp_fine_grained(ctx: PassContext) -> Mapping[str, Any]:
    # ablation of Lines 36-38 (bin_pack=False): force fine-grained
    # regardless of the accumulated PGP.  The flag is flipped on the pass's
    # own product before publishing — input artifacts are never touched.
    lbp = _run_lbp(ctx)["CoarsenedWaves"]
    lbp.fine_grained = True
    return {"CoarsenedWaves": lbp}


def _run_expand(ctx: PassContext) -> Mapping[str, Any]:
    g = ctx["DAG"]
    lbp = ctx["CoarsenedWaves"]
    grouping = ctx["Grouping"]
    # an empty DAG yields a bare schedule, as every single-pass scheduler's does
    meta: Dict[str, Any] = {} if g.n == 0 else {
        "n_groups": grouping.n_groups,
        "n_edges_original": g.n_edges,
        "n_edges_reduced": ctx["ReducedDAG"].n_edges,
        "n_coarse_vertices": ctx["CoarseDAG"].n,
        "n_coarse_wavefronts": len(lbp.coarsened),
        "n_wavefronts": lbp.waves.n_levels,
        "accumulated_pgp": lbp.accumulated_pgp,
        "cut_positions": lbp.cut_positions,
        "epsilon": ctx["Epsilon"],
        "backend": ctx["Backend"],
    }
    schedule = _resolve(ctx, "expand")(
        lbp,
        grouping,
        g.n,
        ctx["Cores"],
        sync=ctx.options["sync"],
        meta=meta,
    )
    return {"Schedule": schedule}


# ----------------------------------------------------------------------
# span attribute helpers (only computed when observability is armed)
# ----------------------------------------------------------------------
def _reduce_attrs(ctx: PassContext) -> Dict[str, Any]:
    g = ctx["DAG"]
    return {"n": g.n, "n_edges": g.n_edges}


def _lbp_attrs(ctx: PassContext) -> Dict[str, Any]:
    return {"n_coarse": ctx["CoarseDAG"].n, "epsilon": ctx["Epsilon"]}


# ----------------------------------------------------------------------
# the group factory
# ----------------------------------------------------------------------
def build_hdagg_group(
    *,
    aggregate: bool = True,
    transitive_reduce: bool = True,
    bin_pack: bool = True,
) -> PassGroup:
    """The HDagg pass list for one ablation configuration.

    The default arguments produce the paper's Algorithm 1 — the group
    registered as ``"hdagg"``.  Toggles swap passes for contract-weakened
    variants instead of branching inside pass bodies.
    """
    from ..core.pgp import DEFAULT_EPSILON

    passes = []
    if aggregate:
        reduce_establishes = ("transitively-reduced",) if transitive_reduce else ()
        passes.append(
            Pass(
                name="reduce",
                contract=Contract(
                    requires=("DAG",),
                    produces=("ReducedDAG",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=reduce_establishes,
                    preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
                ),
                run=_run_reduce if transitive_reduce else _run_reduce_identity,
                stage="reduce",
                tiers=("reference", "numpy"),
                timer_label="transitive_reduction",
                span="inspect/transitive_reduction",
                span_attrs=_reduce_attrs,
                fault_label="transitive_reduction",
                repair="recompute",
            )
        )
        passes.append(
            Pass(
                name="aggregate",
                contract=Contract(
                    requires=("ReducedDAG", "Cost", "Cores"),
                    produces=("Grouping",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
                ),
                run=_run_aggregate,
                stage="aggregate",
                tiers=("reference", "numpy"),
                timer_label="aggregation",
                span="inspect/aggregation",
                fault_label="aggregation",
                repair="recompute",
            )
        )
    else:
        passes.append(
            Pass(
                name="identity-grouping",
                contract=Contract(
                    requires=("DAG",),
                    produces=("ReducedDAG", "Grouping"),
                    requires_invariants=("acyclic",),
                    preserves=("acyclic", "topo-ordered"),
                ),
                run=_run_identity_grouping,
                repair="recompute",
            )
        )
    passes.append(
        Pass(
            name="coarsen",
            contract=Contract(
                requires=("ReducedDAG", "Grouping", "Cost"),
                produces=("CoarseDAG", "GroupCost"),
                requires_invariants=("acyclic", "topo-ordered"),
                preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
            ),
            run=_run_coarsen,
            stage="coarsen",
            tiers=("reference", "numpy", "compiled"),
            timer_label="coarsen",
            span="inspect/coarsen",
            fault_label="coarsen",
            repair="splice",
        )
    )
    passes.append(
        Pass(
            name="lbp",
            contract=Contract(
                requires=("CoarseDAG", "GroupCost", "Cores", "Epsilon"),
                produces=("CoarsenedWaves",),
                requires_invariants=("acyclic", "topo-ordered"),
                establishes=("balanced-under-epsilon",) if bin_pack else (),
                preserves=("bit-identical-under-backend",),
            ),
            run=_run_lbp if bin_pack else _run_lbp_fine_grained,
            stage="lbp",
            tiers=("reference", "numpy", "compiled"),
            timer_label="lbp",
            span="inspect/lbp",
            span_attrs=_lbp_attrs,
            fault_label="lbp",
            repair="splice",
        )
    )
    passes.append(
        Pass(
            name="expand",
            contract=Contract(
                requires=(
                    "CoarsenedWaves",
                    "Grouping",
                    "DAG",
                    "ReducedDAG",
                    "CoarseDAG",
                    "Cores",
                    "Epsilon",
                    "Backend",
                ),
                produces=("Schedule",),
                requires_invariants=("acyclic", "topo-ordered"),
                establishes=("dependence-closed", "vertex-cover"),
                preserves=("bit-identical-under-backend",),
            ),
            run=_run_expand,
            stage="expand",
            tiers=("reference", "numpy"),
            timer_label="expand",
            span="inspect/expand",
            fault_label="expand",
            repair="splice",
        )
    )
    suffix = []
    if not aggregate:
        suffix.append("no-aggregate")
    elif not transitive_reduce:
        suffix.append("no-reduce")
    if not bin_pack:
        suffix.append("fine-grained")
    name = "hdagg" if not suffix else "hdagg+" + "+".join(suffix)
    return PassGroup(
        name=name,
        passes=tuple(passes),
        inputs=HDAGG_INPUTS,
        outputs=("Schedule",),
        assumes=HDAGG_ASSUMES,
        description="HDagg Algorithm 1: reduce -> aggregate -> coarsen -> LBP -> expand",
        options={
            "epsilon": DEFAULT_EPSILON,  # PGP threshold (Listing 2's epsilon())
            "backend": None,  # BackendSpec, its grammar, or None: REPRO_BACKENDS
            "group_cost_cap_fraction": 0.25,  # None: the paper's uncapped step 1
            "sync": "barrier",  # or "p2p" between width-partitions
        },
    )
