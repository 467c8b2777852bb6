import dataclasses

import numpy as np
import pytest

from oracle import cell_label, grid_failures, record_digest, schedule_problems


@pytest.fixture(scope="module")
def problem():
    from repro.kernels import KERNELS
    from repro.schedulers import SCHEDULERS
    from repro.sparse import apply_ordering, lower_triangle, poisson2d

    a = lower_triangle(apply_ordering(poisson2d(8, seed=1), "nd")[0])
    k = KERNELS["sptrsv"]
    g, cost = k.dag(a), k.cost(a)
    return g, SCHEDULERS["hdagg"](g, cost, 4)


def _swap(schedule, u, v):
    from repro.core.schedule import Schedule, WidthPartition

    def moved(vertices):
        out = np.array(vertices, copy=True)
        iu, iv = out == u, out == v
        out[iu], out[iv] = v, u
        return out

    levels = [[WidthPartition(wp.core, moved(wp.vertices)) for wp in parts]
              for parts in schedule.levels]
    return Schedule(n=schedule.n, levels=levels, sync=schedule.sync,
                    algorithm=schedule.algorithm, n_cores=schedule.n_cores)


def test_oracle_accepts_the_inspector_schedule(problem):
    g, schedule = problem
    assert schedule_problems(schedule, g) == []


def test_oracle_rejects_one_swapped_dependent_pair(problem):
    g, schedule = problem
    u = int(np.flatnonzero(np.diff(g.indptr))[0])  # first vertex with a successor
    v = int(g.indices[g.indptr[u]])
    problems = schedule_problems(_swap(schedule, u, v), g)
    assert problems and "unordered" in problems[0]


def test_oracle_rejects_a_missing_or_repeated_vertex(problem):
    g, schedule = problem
    from repro.core.schedule import Schedule, WidthPartition

    first = schedule.levels[0][0]
    dup = WidthPartition(first.core, np.append(first.vertices, first.vertices[0]))
    levels = [[dup, *schedule.levels[0][1:]], *schedule.levels[1:]]
    bad = Schedule(n=schedule.n, levels=levels, sync=schedule.sync,
                   algorithm=schedule.algorithm, n_cores=schedule.n_cores)
    assert schedule_problems(bad, g)


@pytest.fixture(scope="module")
def records():
    from repro.sparse import poisson2d
    from repro.suite import Harness
    from repro.suite.matrices import MatrixSpec

    spec = MatrixSpec("tiny", "mesh2d", lambda: poisson2d(10, seed=3))
    return Harness(kernels=("sptrsv",), algorithms=("hdagg", "wavefront")).run_suite([spec])


def test_record_check_rejects_one_changed_field(records):
    expected = {"tiny": [[cell_label(r), record_digest(r)] for r in records]}
    assert grid_failures(records, expected) == []
    changed = [dataclasses.replace(records[0], n_barriers=records[0].n_barriers + 1),
               *records[1:]]
    assert len(grid_failures(changed, expected)) == 1


def test_record_check_ignores_timings_and_flags_degraded_or_missing_rows(records):
    expected = {"tiny": [[cell_label(r), record_digest(r)] for r in records]}
    retimed = [dataclasses.replace(r, inspector_seconds=r.inspector_seconds + 1.0)
               for r in records]
    assert grid_failures(retimed, expected) == []
    degraded = [dataclasses.replace(records[0], degraded=True), *records[1:]]
    assert len(grid_failures(degraded, expected)) == 1
    assert len(grid_failures(records[:-1], expected)) == 1
