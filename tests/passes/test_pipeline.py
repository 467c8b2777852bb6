"""Executor runtime contract enforcement and scheduler-group equivalence."""

import numpy as np
import pytest

from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.passes import (
    Contract,
    PASS_GROUPS,
    Pass,
    PassContext,
    PassGroup,
    PipelineExecutionError,
    get_pass_group,
    run_group,
    run_scheduler_group,
)
from repro.schedulers import SCHEDULERS


def _pass(name, requires=(), produces=(), run=None, **kw):
    return Pass(
        name=name,
        contract=Contract(requires=requires, produces=produces),
        run=run or (lambda ctx: {}),
        **kw,
    )


def test_run_group_threads_artifacts_between_passes():
    group = PassGroup(
        name="two-step",
        passes=(
            _pass("first", requires=("DAG",), produces=("Wavefronts",),
                  run=lambda ctx: {"Wavefronts": ctx["DAG"] + 1}),
            _pass("second", requires=("Wavefronts",), produces=("Schedule",),
                  run=lambda ctx: {"Schedule": ctx["Wavefronts"] * 10}),
        ),
        inputs=("DAG",),
    )
    ctx = run_group(group, PassContext({"DAG": 4}))
    assert ctx["Schedule"] == 50


def test_run_group_rejects_missing_required_artifact():
    group = PassGroup(
        name="needs-cost",
        passes=(_pass("p", requires=("Cost",), produces=("Schedule",),
                      run=lambda ctx: {"Schedule": 1}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError) as exc_info:
        run_group(group, PassContext({"DAG": 0}))
    err = exc_info.value
    assert (err.group, err.pass_name) == ("needs-cost", "p")
    assert "['Cost']" in str(err)
    assert "verify_pipeline" in str(err)  # points at the static checker


def test_run_group_rejects_products_not_matching_declaration():
    # under-delivering and over-delivering are both contract violations
    lies = PassGroup(
        name="liar",
        passes=(_pass("p", requires=("DAG",), produces=("Schedule",),
                      run=lambda ctx: {"Schedule": 1, "Grouping": 2}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError, match="do not match declared produces"):
        run_group(lies, PassContext({"DAG": 0}))
    silent = PassGroup(
        name="silent",
        passes=(_pass("p", requires=("DAG",), produces=("Schedule",),
                      run=lambda ctx: {}),),
        inputs=("DAG",),
    )
    with pytest.raises(PipelineExecutionError, match="do not match declared produces"):
        run_group(silent, PassContext({"DAG": 0}))


def test_run_group_rejects_unproduced_group_output():
    group = PassGroup(
        name="no-output",
        passes=(_pass("p", requires=("DAG",), produces=("Grouping",),
                      run=lambda ctx: {"Grouping": 1}),),
        inputs=("DAG",),
        outputs=("Schedule",),
    )
    with pytest.raises(PipelineExecutionError, match="'Schedule' was never produced"):
        run_group(group, PassContext({"DAG": 0}))


def test_get_pass_group_unknown_name_lists_registered():
    with pytest.raises(KeyError, match="unknown pass group 'nope'"):
        get_pass_group("nope")


def test_every_scheduler_has_a_registered_pass_group():
    assert set(PASS_GROUPS) == set(SCHEDULERS)


def _mesh_dag_and_cost(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    return g, cost


def _levels(schedule):
    return [[(wp.core, wp.vertices.tolist()) for wp in level] for level in schedule.levels]


@pytest.mark.parametrize("name", ["wavefront", "spmp", "mkl", "lbc", "dagp"])
def test_scheduler_group_matches_public_function(name, mesh_nd):
    """The registry entry is its group run over a hand-seeded context, bit
    for bit: the driver adds option defaults and nothing else."""
    g, cost = _mesh_dag_and_cost(mesh_nd)
    group = get_pass_group(name)
    artifacts = {"DAG": g, "Cost": np.asarray(cost, dtype=np.float64), "Cores": 4}
    if "Epsilon" in group.inputs:
        artifacts["Epsilon"] = 0.1
    by_hand = run_group(group, PassContext(artifacts, options=group.options))["Schedule"]
    via_registry = SCHEDULERS[name](g, cost, 4, epsilon=0.1)
    assert by_hand.algorithm == via_registry.algorithm
    assert by_hand.execution_order().tolist() == via_registry.execution_order().tolist()
    assert _levels(by_hand) == _levels(via_registry)
    assert by_hand.meta == via_registry.meta


def test_hdagg_group_runs_through_uniform_driver(mesh_nd):
    """``SCHEDULERS["hdagg"]``, ``hdagg()`` and the driver called directly
    run one group through one driver: same schedule, same stage timer
    windows, same coerced backend."""
    from repro.core import hdagg

    g, cost = _mesh_dag_and_cost(mesh_nd)
    via_registry = SCHEDULERS["hdagg"](g, cost, 4, epsilon=0.5)
    via_function = hdagg(g, cost, 4, 0.5)
    ctx = run_scheduler_group(get_pass_group("hdagg"), g, cost, 4, epsilon=0.5)
    assert _levels(via_registry) == _levels(via_function) == _levels(ctx["Schedule"])
    assert set(via_registry.meta["stage_seconds"]) == set(via_function.meta["stage_seconds"])
    assert ctx["Backend"] == via_registry.meta["backend"] == via_function.meta["backend"]


def test_hdagg_group_runs_standalone():
    """The registered hdagg group executes outside its driver too."""
    from repro.core.backends import BackendSpec

    g = DAG.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    cost = np.ones(6)
    group = get_pass_group("hdagg")
    ctx = PassContext(
        {"DAG": g, "Cost": cost, "Cores": 2, "Epsilon": 0.1, "Backend": "numpy"},
        spec=BackendSpec.coerce(None),
        options=group.options,
    )
    run_group(group, ctx)
    schedule = ctx["Schedule"]
    schedule.validate(g)
    via_driver = SCHEDULERS["hdagg"](g, cost, 2, epsilon=0.1)
    assert schedule.execution_order().tolist() == via_driver.execution_order().tolist()
    # intermediate artifacts stay inspectable on the context
    for artifact in ("ReducedDAG", "Grouping", "CoarseDAG", "GroupCost", "CoarsenedWaves"):
        assert ctx.has(artifact), artifact
