"""Differential tests: the flattened schedule layout against the loop oracles.

``Schedule.level_of``/``partition_of``/``position_of`` and the structural
half of ``Schedule.validate`` derive everything from one flattened slot
array.  The ``_reference`` functions below are the per-partition loops they
replaced; every derived array, exception type and message must match them,
except where the loop had a bug (out-of-range vertex ids, tested
separately).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.verifier import verify_dependences
from repro.core import Schedule, ScheduleError, WidthPartition
from repro.core.schedule import dependence_witnesses
from repro.graph import DAG
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle
from repro.sparse.csr import INDEX_DTYPE
from tests.schedulers.test_golden_snapshots import CORES, KERNEL_NAMES, MATRICES, _schedulers_for


# ----------------------------------------------------------------------
# reference oracles: the loop implementations
# ----------------------------------------------------------------------
def _reference_level_of(s: Schedule) -> np.ndarray:
    out = np.full(s.n, -1, dtype=INDEX_DTYPE)
    for k, part in s.iter_partitions():
        out[part.vertices] = k
    return out


def _reference_partition_of(s: Schedule) -> np.ndarray:
    out = np.full(s.n, -1, dtype=INDEX_DTYPE)
    for pid, (_, part) in enumerate(s.iter_partitions()):
        out[part.vertices] = pid
    return out


def _reference_position_of(s: Schedule) -> np.ndarray:
    out = np.full(s.n, -1, dtype=INDEX_DTYPE)
    for _, part in s.iter_partitions():
        out[part.vertices] = np.arange(part.size, dtype=INDEX_DTYPE)
    return out


def _reference_validate_structure(s: Schedule, g: DAG) -> None:
    if g.n != s.n:
        raise ScheduleError(f"schedule covers {s.n} vertices, DAG has {g.n}")
    total = sum(part.size for _, part in s.iter_partitions())
    if total != s.n:
        raise ScheduleError(
            f"schedule holds {total} vertex slots for {s.n} vertices "
            "(duplicate or missing entries)"
        )
    seen = np.zeros(s.n, dtype=bool)
    for k, level in enumerate(s.levels):
        used_cores = set()
        for part in level:
            if np.any(seen[part.vertices]):
                raise ScheduleError(f"vertex scheduled twice (level {k})")
            seen[part.vertices] = True
            if part.core >= 0:
                if part.core in used_cores:
                    raise ScheduleError(
                        f"core {part.core} used by two width-partitions in level {k}"
                    )
                used_cores.add(part.core)
    if not np.all(seen):
        missing = np.nonzero(~seen)[0][:5].tolist()
        raise ScheduleError(f"vertices never scheduled: {missing}")


def _outcome(fn, *args):
    """``("ok", result)`` or ``(exception type, message)`` of one call."""
    try:
        out = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return "ok", None if out is None else np.asarray(out).tolist()


# ----------------------------------------------------------------------
# random schedules, valid and malformed
# ----------------------------------------------------------------------
DEFECTS = (
    "none",
    "duplicate",
    "duplicate-extra-slot",
    "missing",
    "in-partition-repeat",
    "core-collision",
    "n-mismatch",
    "empty-levels",
    "empty-level-list",
    "dynamic-core",
)


@st.composite
def schedules(draw):
    """A random schedule over ``range(n)`` and a DAG of matching size, with up to three defects."""
    n = draw(st.integers(1, 40))
    perm = draw(st.permutations(range(n)))
    n_levels = draw(st.integers(1, n))
    level_cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n_levels - 1))) if n > 1 else []
    levels = []
    for lo, hi in zip([0] + level_cuts, level_cuts + [n]):
        chunk = perm[lo:hi]
        cuts = sorted(draw(st.sets(st.integers(1, len(chunk) - 1), max_size=4))) if len(chunk) > 1 else []
        parts = [list(chunk[a:b]) for a, b in zip([0] + cuts, cuts + [len(chunk)])]
        cores = draw(st.permutations(range(len(parts) + 2)))[: len(parts)]
        levels.append([[c, p] for c, p in zip(cores, parts)])
    if draw(st.booleans()):
        for level in levels:
            for part in level:
                part[0] = -1
    g_n = n
    # up to three defects at once, so that several compete for "first"
    for defect in draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3)):
        flat = [part for level in levels for part in level]
        if not flat:
            break
        if defect == "duplicate":
            i, j = draw(st.integers(0, len(flat) - 1)), draw(st.integers(0, len(flat) - 1))
            if i != j:
                victim = draw(st.integers(0, len(flat[j][1]) - 1))
                flat[j][1][victim] = flat[i][1][0]
        elif defect == "duplicate-extra-slot":
            i, j = draw(st.integers(0, len(flat) - 1)), draw(st.integers(0, len(flat) - 1))
            flat[j][1].append(flat[i][1][-1])
        elif defect == "missing":
            i = draw(st.integers(0, len(flat) - 1))
            if len(flat[i][1]) > 1:
                flat[i][1].pop()
            else:
                levels = [[part for part in level if part is not flat[i]] for level in levels]
                levels = [level for level in levels if level]
        elif defect == "in-partition-repeat":
            # overwrite a suffix with the partition's first vertex
            i = draw(st.integers(0, len(flat) - 1))
            vs = flat[i][1]
            cut = draw(st.integers(1, len(vs)))
            vs[cut:] = [vs[0]] * (len(vs) - cut)
        elif defect == "core-collision":
            wide = [level for level in levels if len(level) > 1]
            if wide:
                level = draw(st.sampled_from(wide))
                level[-1][0] = level[0][0] = draw(st.integers(0, 3))
        elif defect == "n-mismatch":
            g_n = n + draw(st.sampled_from([-1, 1]))
        elif defect == "empty-levels":
            levels = []
        elif defect == "empty-level-list":
            levels = [[]]
        elif defect == "dynamic-core":
            flat[draw(st.integers(0, len(flat) - 1))][0] = -1
    schedule = Schedule(
        n=n,
        levels=[[WidthPartition(c, np.array(v)) for c, v in level] for level in levels],
        sync="barrier",
        algorithm="random",
        n_cores=4,
    )
    return schedule, DAG.empty(max(g_n, 0))


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedules())
def test_layout_matches_loop_oracles(case):
    s, g = case
    assert _outcome(s.level_of) == _outcome(_reference_level_of, s)
    assert _outcome(s.partition_of) == _outcome(_reference_partition_of, s)
    assert _outcome(s.position_of) == _outcome(_reference_position_of, s)
    expected = _outcome(_reference_validate_structure, s, g)
    assert _outcome(lambda: s.validate(g, check_dependences=False)) == expected
    report = verify_dependences(s, g, stamp_meta=False)
    if expected[0] == "ok":
        assert report.ok and report.structural_error is None
    else:
        assert not report.ok and report.structural_error == expected[1]


# ----------------------------------------------------------------------
# the two loop bugs: ids outside [0, n)
# ----------------------------------------------------------------------
@pytest.fixture
def chain4():
    return DAG.from_edges(4, [0, 1, 2], [1, 2, 3])


def _serial(vertices, n=4):
    return Schedule(
        n=n, levels=[[WidthPartition(0, np.array(vertices))]], sync="barrier",
        algorithm="test", n_cores=1,
    )


def test_negative_vertex_id_is_rejected(chain4):
    # -1 used to alias vertex n-1 in the cover check and pass
    s = _serial([0, 1, 2, -1])
    with pytest.raises(ScheduleError, match=r"vertex id -1 out of range \[0, 4\) \(level 0\)"):
        s.validate(chain4)
    report = verify_dependences(s, chain4)
    assert not report.ok
    assert "out of range" in report.structural_error


@pytest.mark.parametrize("structural", [True, False])
def test_vertex_id_past_n_is_a_structural_error(chain4, structural):
    # an id >= n used to escape as IndexError from a "never raises" verifier
    s = _serial([0, 1, 2, 7])
    with pytest.raises(ScheduleError, match=r"vertex id 7 out of range \[0, 4\)"):
        s.validate(chain4)
    report = verify_dependences(s, chain4, structural=structural)
    assert not report.ok
    assert report.structural_error == "vertex id 7 out of range [0, 4) (level 0)"


@pytest.mark.parametrize(
    "levels, message",
    [
        # core reuse in level 0 comes before the bad id in level 1
        ([[(1, [0]), (1, [1])], [(0, [2, 9])]], "core 1 used by two width-partitions in level 0"),
        # one partition with a repeat and a bad id: the range check runs first
        ([[(0, [0, 1])], [(0, [1, -1])]], r"vertex id -1 out of range \[0, 4\) \(level 1\)"),
    ],
)
def test_first_defect_in_schedule_order(chain4, levels, message):
    s = Schedule(
        n=4,
        levels=[[WidthPartition(c, np.array(v)) for c, v in level] for level in levels],
        sync="barrier", algorithm="test", n_cores=2,
    )
    with pytest.raises(ScheduleError, match=message):
        s.validate(chain4)


# ----------------------------------------------------------------------
# witnesses on every scheduler x kernel of the golden matrices
# ----------------------------------------------------------------------
def _golden_cells():
    for mname, build in MATRICES.items():
        ordered, _ = apply_ordering(build(), "nd")
        for kname in KERNEL_NAMES:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g, cost = kernel.dag(operand), kernel.cost(operand)
            for algo in _schedulers_for(kname):
                yield f"{mname}/{kname}/{algo}", g, SCHEDULERS[algo](g, cost, CORES)


def _reference_report(s: Schedule, g: DAG, max_witnesses: int):
    level, pid, pos = _reference_level_of(s), _reference_partition_of(s), _reference_position_of(s)
    src, dst = g.edge_list()
    ok = (level[src] < level[dst]) | ((pid[src] == pid[dst]) & (pos[src] < pos[dst]))
    witnesses = dependence_witnesses(level, pid, pos, src, dst, max_witnesses=max_witnesses)
    return witnesses, int(np.count_nonzero(~ok)) if witnesses else 0


def test_witnesses_match_reference_on_golden_grid():
    cells = 0
    for label, g, s in _golden_cells():
        # the schedule itself is certified; its mirror runs every edge backwards
        for candidate in (s, s.reversed()):
            report = verify_dependences(candidate, g, max_witnesses=16, stamp_meta=False)
            witnesses, n_violations = _reference_report(candidate, g, 16)
            assert report.structural_error is None, label
            assert report.witnesses == witnesses, label
            assert report.n_violations == n_violations, label
            assert report.ok == (not witnesses), label
        cells += 1
    assert cells == len(MATRICES) * sum(len(_schedulers_for(k)) for k in KERNEL_NAMES)
