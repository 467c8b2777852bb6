"""Cross-cutting contract tests: every scheduler x every matrix family."""

import numpy as np
import pytest

from repro.graph import dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS, get_scheduler
from repro.sparse import lower_triangle

ALGOS = ["hdagg", "wavefront", "spmp", "lbc", "dagp", "mkl", "serial"]


def build(name, g, cost, p):
    builder = SCHEDULERS[name]
    return builder(g, cost, p) if name != "serial" else builder(g, cost)


@pytest.mark.parametrize("name", ALGOS)
def test_schedule_contract(name, all_small_matrices):
    """Partition-cover, dependence safety, and a valid topological order."""
    for mname, a in all_small_matrices.items():
        g = dag_from_matrix_lower(a)
        cost = KERNELS["spilu0"].cost(a)
        s = build(name, g, cost, 4)
        s.validate(g)
        assert verify_schedule_order(g, s.execution_order()), (name, mname)
        assert s.n == g.n


@pytest.mark.parametrize("name", ALGOS)
def test_deterministic(name, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    s1, s2 = build(name, g, cost, 4), build(name, g, cost, 4)
    assert s1.execution_order().tolist() == s2.execution_order().tolist()


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_numerics_via_interleaved_execution(name, mesh_nd, rng):
    """Adversarial interleaving within levels must still compute correctly."""
    from repro.runtime import execute_schedule

    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    s = build(name, g, kernel.cost(low), 4)
    b = rng.normal(size=mesh_nd.n_rows)
    ref = kernel.reference(low, b)
    for seed in (0, 1, 2):
        got = execute_schedule(kernel, low, s, b, interleave_seed=seed)
        np.testing.assert_allclose(got, ref, rtol=1e-10, err_msg=f"{name} seed={seed}")


def test_registry_contents():
    for name in ALGOS:
        assert name in SCHEDULERS
    assert get_scheduler("hdagg") is SCHEDULERS["hdagg"]


def test_registry_unknown():
    with pytest.raises(KeyError, match="available"):
        get_scheduler("nope")


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_p_equals_one_collapses(name, mesh):
    g = dag_from_matrix_lower(mesh)
    s = build(name, g, np.ones(g.n), 1)
    s.validate(g)
    for level in s.levels:
        assert len(level) == 1 or all(part.core in (0, -1) for part in level)


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_more_cores_than_vertices(name):
    from repro.sparse import poisson2d

    a = poisson2d(3, seed=1)  # 9 vertices
    g = dag_from_matrix_lower(a)
    s = build(name, g, np.ones(9), 32)
    s.validate(g)


# ----------------------------------------------------------------------
# the registry's uniform calling convention, over every registered entry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mesh_problem(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    return g, KERNELS["spilu0"].cost(mesh_nd)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_entry_runs_with_only_g_cost_p(name, mesh_problem):
    """Every option has a default declared by the scheduler's group."""
    g, cost = mesh_problem
    SCHEDULERS[name](g, cost, 4).validate(g)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_entry_accepts_epsilon_and_backend_none(name, mesh_problem):
    """Callers pass ``epsilon=`` / ``backend=`` to every scheduler; ``None``
    is the default, and a scheduler without the input ignores them."""
    g, cost = mesh_problem
    s = SCHEDULERS[name](g, cost, 4, epsilon=None, backend=None)
    assert s.execution_order().tolist() == SCHEDULERS[name](g, cost, 4).execution_order().tolist()


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_entry_rejects_an_unknown_option(name, mesh_problem):
    g, cost = mesh_problem
    with pytest.raises(TypeError, match="kk"):
        SCHEDULERS[name](g, cost, 4, kk=3)


def test_coarsenk_rejects_window_zero(mesh_problem):
    g, cost = mesh_problem
    with pytest.raises(ValueError, match="k must be >= 1"):
        SCHEDULERS["coarsenk"](g, cost, 4, k=0)
