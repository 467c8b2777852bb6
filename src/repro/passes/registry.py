"""The scheduler registry, and the one driver that runs a scheduler.

A scheduler is a pass group and nothing more.  :func:`register_pass_group`
puts a group in ``PASS_GROUPS`` and installs ``SCHEDULERS[name]``, a
generic runner with the uniform signature ``(g, cost, p=1, **options) ->
Schedule``.  The runner looks the group up in ``PASS_GROUPS`` on every
call, so replacing the registered group (a successor scheduler, a timed
copy) changes what the entry runs.  A group declares the options it takes
and their defaults (``PassGroup.options``); :func:`run_scheduler_group`
seeds the context from them.  CI verifies each registered group with
:func:`repro.statan.verify_pipeline` before any of them run, so an
ill-formed recombination is a structured diagnostic, not a runtime crash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from ..observability.state import STATE as _OBS_STATE
from .base import PassContext, PassGroup
from .baselines import (
    build_coarsen_k_group,
    build_dagp_group,
    build_lbc_group,
    build_mkl_group,
    build_serial_group,
    build_spmp_group,
    build_wavefront_group,
)
from .executor import run_group
from .hdagg import build_hdagg_group

__all__ = [
    "PASS_GROUPS",
    "SCHEDULERS",
    "register_pass_group",
    "get_pass_group",
    "run_scheduler_group",
]

#: scheduler name -> declarative pass group
PASS_GROUPS: Dict[str, PassGroup] = {}

#: scheduler name -> runner ``(g, cost, p=1, **options) -> Schedule``;
#: written only by :func:`register_pass_group`
SCHEDULERS: Dict[str, Callable[..., Any]] = {}

#: options every caller may pass; a group without the matching input drops them
_SHARED_OPTIONS = (("epsilon", "Epsilon"), ("backend", "Backend"))


def register_pass_group(group: PassGroup, *, name: Optional[str] = None) -> PassGroup:
    """Register ``group`` as the scheduler ``name`` (default: its own name).

    Adds (or replaces) the group in :data:`PASS_GROUPS` and installs the
    runner for ``name`` in :data:`SCHEDULERS`.
    """
    key = name or group.name
    PASS_GROUPS[key] = group
    SCHEDULERS[key] = _runner(key)
    return group


def get_pass_group(name: str) -> PassGroup:
    """Look up a registered group; raises ``KeyError`` with choices listed."""
    try:
        return PASS_GROUPS[name]
    except KeyError:
        raise KeyError(
            f"unknown pass group {name!r}; registered: {sorted(PASS_GROUPS)}"
        ) from None


def _runner(name: str) -> Callable[..., Any]:
    """The registry entry for ``name``.

    Registry dispatch is what gets an ``inspect/<name>`` span and an
    ``inspector.runs.<name>`` count when the ambient observability state
    is on; disabled, it costs one attribute read.
    """

    def schedule(g: Any, cost: Any, p: int = 1, **options: Any) -> Any:
        if not _OBS_STATE.enabled:
            return run_scheduler_group(PASS_GROUPS[name], g, cost, p, **options)["Schedule"]
        with _OBS_STATE.tracer.span(f"inspect/{name}", n=int(getattr(g, "n", -1)), p=int(p)):
            ctx = run_scheduler_group(PASS_GROUPS[name], g, cost, p, **options)
        if _OBS_STATE.registry is not None:
            _OBS_STATE.registry.counter(f"inspector.runs.{name}").inc()
        return ctx["Schedule"]

    return schedule


def run_scheduler_group(
    group: PassGroup, g: Any, cost: Any, p: int = 1, **options: Any
) -> PassContext:
    """Seed a context for ``group`` from its declared options and run it.

    ``options`` override the group's defaults.  ``epsilon`` and
    ``backend`` are accepted by every group (``None`` means the default)
    and dropped when the group has no ``Epsilon`` / ``Backend`` input;
    any other option the group does not declare raises ``TypeError``.
    The backend spec is coerced (spec, grammar string, or ``None`` for
    the ambient default) and its effective description seeds
    ``Backend``.  Passes with a ``timer_label`` are timed into
    ``Schedule.meta["stage_seconds"]``.  Returns the context, which
    keeps every intermediate artifact next to the ``Schedule``.
    """
    from ..core.backends import BackendSpec
    from ..runtime.perf import StageTimer

    for option, artifact in _SHARED_OPTIONS:
        if artifact not in group.inputs or options.get(option) is None:
            options.pop(option, None)
    unknown = sorted(set(options) - set(group.options))
    if unknown:
        raise TypeError(
            f"scheduler {group.name!r} got unexpected options {unknown}; "
            f"it takes {sorted(group.options)}"
        )
    opts = {**group.options, **options}
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] != g.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g.n}")
    artifacts: Dict[str, Any] = {"DAG": g, "Cost": cost, "Cores": p}
    if "Epsilon" in group.inputs:
        artifacts["Epsilon"] = opts.pop("epsilon")
    spec: Any = None
    if "Backend" in group.inputs:
        spec = BackendSpec.coerce(opts.pop("backend"))
        artifacts["Backend"] = spec.effective().describe()
    timer = StageTimer()
    ctx = run_group(group, PassContext(artifacts, timer=timer, spec=spec, options=opts))
    stages = timer.as_dict()
    if stages:
        # to_dict() drops non-JSON meta values, so this never leaks into
        # serialized schedules
        ctx["Schedule"].meta["stage_seconds"] = stages
    if _OBS_STATE.enabled and _OBS_STATE.registry is not None and ctx.has("CoarsenedWaves"):
        _record_lbp_metrics(_OBS_STATE.registry, ctx)
    return ctx


def _record_lbp_metrics(reg: Any, ctx: PassContext) -> None:
    """Inspector metrics of a group with an LBP stage (HDagg).

    Recorded post hoc from the LBP decision log and packing results, so
    the inspector hot loops stay untouched.
    """
    g, g2, lbp, p = ctx["DAG"], ctx["CoarseDAG"], ctx["CoarsenedWaves"], ctx["Cores"]
    reg.counter("inspector.vertices").inc(g.n)
    reg.counter("inspector.vertices_coarsened").inc(g.n - g2.n)
    reg.gauge("inspector.coarse_vertices").set(g2.n)
    reg.gauge("inspector.accumulated_pgp").set(lbp.accumulated_pgp)
    pgp_hist = reg.histogram("inspector.pgp_at_merge")
    for decision in lbp.decisions or []:
        pgp_hist.observe(decision.pgp)
    occupancy = reg.histogram("binpack.occupancy")
    for cw in lbp.coarsened:
        if cw.packing is not None and p > 0:
            occupancy.observe(cw.packing.n_bins_used / p)


register_pass_group(build_hdagg_group())
register_pass_group(build_wavefront_group())
register_pass_group(build_spmp_group())
register_pass_group(build_mkl_group())
register_pass_group(build_coarsen_k_group())
register_pass_group(build_serial_group())
register_pass_group(build_lbc_group())
register_pass_group(build_dagp_group())
