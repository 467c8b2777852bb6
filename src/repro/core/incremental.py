"""Incremental re-inspection: repair a schedule after a small pattern change.

Solver pipelines re-factorize: a few rows of the factor change (pivot
perturbation, partial refactorization, mesh-local updates) while the rest
of the sparsity pattern — and therefore the dependence DAG, the subtree
grouping, and most of the LBP walk — is untouched.  A full re-inspection
pays the whole Algorithm-1 pipeline again; this module repairs the cached
inspection instead:

1. :class:`PatternDelta` names the row-level difference (rows added,
   removed, or retained-with-changed-columns) via a monotone old→new row
   map; :func:`diff_dag` builds one and :func:`changed_rows` extracts the
   structurally-changed retained rows.
2. :func:`repair_schedule` re-runs only the cheap global stages (two-hop
   reduction, subtree grouping — both fractions of the pipeline), then
   *diffs* everything downstream: it matches old groups to new groups,
   marks the dirty ones, splices the coarsened DAG ``G''`` row-by-row
   (clean rows are id-remapped from the old ``G''``), re-walks LBP only
   across the dirty wavefront window (reusing the old walk's prefix and
   suffix verbatim — the walk's state fully resets at every cut, so clean
   cut-to-cut spans replay bit-for-bit), and re-expands only the window's
   coarsened wavefronts.
3. :class:`IncrementalScheduleCache` wires this into the structure-keyed
   schedule cache: an exact-key miss whose *parameter family* (kernel,
   algorithm, ``p``, ``epsilon``, backend, options) was seen before
   becomes a repair instead of a full inspection.

The contract is strict: when ``mode == "repaired"`` the output schedule is
**bit-identical** to a full re-inspection of the new pattern (enforced by
the hypothesis suite in ``tests/core/test_incremental.py``).  Every guard
that cannot cheaply prove identity falls back to ``mode == "full"``, which
is simply a fresh :func:`inspect_with_artifacts` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.coarsen import Grouping, identity_grouping
from ..graph.dag import DAG, gather_slices
from ..graph.wavefronts import compute_wavefronts
from ..passes import build_hdagg_group, plan_repair
from ..sparse.csr import INDEX_DTYPE
from .backends import BackendSpec, resolve_stage
from .hdagg import _expand_cw, _grouping_csr, hdagg_context
from .lbp import CoarsenedWavefront, LBPDecision, LBPResult, _RangeComponents
from .pgp import DEFAULT_EPSILON, pgp
from .schedule import Schedule, WidthPartition
from .schedule_cache import ScheduleCache

__all__ = [
    "PatternDelta",
    "diff_dag",
    "changed_rows",
    "InspectionArtifacts",
    "inspect_with_artifacts",
    "RepairResult",
    "repair_schedule",
    "IncrementalScheduleCache",
    "family_key",
]

_FAMILY_KEY_VERSION = b"repro-family-key-v1\0"

#: pipeline options a repair understands; anything else forces a full run
_DEFAULT_OPTIONS = {
    "aggregate": True,
    "transitive_reduce": True,
    "bin_pack": True,
    "group_cost_cap_fraction": 0.25,
    "sync": "barrier",
}


# ----------------------------------------------------------------------
# Pattern deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternDelta:
    """Row-level difference between an old and a new sparsity pattern.

    ``row_map[i]`` is the new row id of old row ``i``, or ``-1`` when the
    row was removed.  The map must be strictly increasing over retained
    rows — row insertion and deletion preserve the relative order of the
    survivors, which is what lets the repair path reuse sorted vertex
    arrays without re-sorting.  New rows are exactly the new ids missing
    from the map's image.
    """

    n_old: int
    n_new: int
    row_map: np.ndarray

    def __post_init__(self) -> None:
        rm = np.ascontiguousarray(self.row_map, dtype=INDEX_DTYPE)
        object.__setattr__(self, "row_map", rm)
        if rm.shape[0] != self.n_old:
            raise ValueError(f"row_map has length {rm.shape[0]}, expected {self.n_old}")
        kept = rm[rm >= 0]
        if kept.size:
            if int(kept.max()) >= self.n_new:
                raise ValueError("row_map target out of range")
            if kept.size > 1 and np.any(np.diff(kept) <= 0):
                raise ValueError("row_map must be strictly increasing on retained rows")

    @classmethod
    def identity(cls, n: int) -> "PatternDelta":
        """Same row count, same numbering (columns may still have changed)."""
        return cls(n, n, np.arange(n, dtype=INDEX_DTYPE))

    @property
    def retained_old(self) -> np.ndarray:
        """Old ids of retained rows (ascending)."""
        return np.flatnonzero(self.row_map >= 0).astype(INDEX_DTYPE, copy=False)

    @property
    def retained_new(self) -> np.ndarray:
        """New ids of retained rows, aligned with :attr:`retained_old`."""
        return self.row_map[self.retained_old]

    @property
    def removed(self) -> np.ndarray:
        """Old ids of removed rows."""
        return np.flatnonzero(self.row_map < 0).astype(INDEX_DTYPE, copy=False)

    @property
    def added(self) -> np.ndarray:
        """New ids of added rows."""
        mask = np.ones(self.n_new, dtype=bool)
        mask[self.retained_new] = False
        return np.flatnonzero(mask).astype(INDEX_DTYPE, copy=False)

    @property
    def is_identity(self) -> bool:
        """True when no rows were added or removed (ids are unchanged)."""
        return self.n_old == self.n_new and self.removed.size == 0


def diff_dag(g_old: DAG, g_new: DAG, row_map: Optional[np.ndarray] = None) -> PatternDelta:
    """Delta between two dependence DAGs.

    Without ``row_map`` the DAGs must have equal vertex counts and rows
    are matched by id; pass an explicit map when rows were inserted or
    deleted (the caller knows the renumbering, the DAGs alone do not).
    """
    if row_map is None:
        if g_old.n != g_new.n:
            raise ValueError(
                f"row_map required when vertex counts differ ({g_old.n} vs {g_new.n})"
            )
        return PatternDelta.identity(g_old.n)
    return PatternDelta(g_old.n, g_new.n, np.asarray(row_map, dtype=INDEX_DTYPE))


def changed_rows(g_old: DAG, g_new: DAG, delta: PatternDelta) -> np.ndarray:
    """New ids of retained rows whose out-edge lists differ.

    Old targets are pushed through ``delta.row_map`` before comparison, so
    an edge to a removed vertex — or to a renumbered one that moved — reads
    as a change.  Fully vectorized: rows with equal lengths are compared as
    one flat gather, mismatches mapped back to their row via ``np.repeat``.
    """
    old_ids = delta.retained_old
    new_ids = delta.row_map[old_ids]
    if old_ids.size == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    cnt_old = g_old.indptr[old_ids + 1] - g_old.indptr[old_ids]
    cnt_new = g_new.indptr[new_ids + 1] - g_new.indptr[new_ids]
    diff_len = cnt_old != cnt_new
    same = ~diff_len
    sel_old, sel_new = old_ids[same], new_ids[same]
    bad = np.zeros(sel_old.shape[0], dtype=bool)
    a = gather_slices(g_old.indptr, g_old.indices, sel_old)
    if a.size:
        b = gather_slices(g_new.indptr, g_new.indices, sel_new)
        mismatch = delta.row_map[a] != b
        if mismatch.any():
            rows = np.repeat(
                np.arange(sel_old.shape[0], dtype=INDEX_DTYPE), cnt_old[same]
            )
            bad[np.bincount(rows[mismatch], minlength=sel_old.shape[0]) > 0] = True
    return np.sort(np.concatenate((new_ids[diff_len], sel_new[bad])))


# ----------------------------------------------------------------------
# Inspection artifacts
# ----------------------------------------------------------------------
@dataclass
class InspectionArtifacts:
    """Every intermediate Algorithm-1 product, kept for later repair."""

    g: DAG
    cost: np.ndarray
    p: int
    epsilon: float
    g_base: DAG  # reduced DAG (== g when reduction/aggregation disabled)
    grouping: Grouping
    g2: DAG  # coarsened DAG G''
    group_cost: np.ndarray
    lbp: LBPResult
    schedule: Schedule
    backend: str
    options: dict = field(default_factory=lambda: dict(_DEFAULT_OPTIONS))


def inspect_with_artifacts(
    g: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    backend: "BackendSpec | str | None" = None,
    **options,
) -> InspectionArtifacts:
    """Full HDagg inspection that keeps its intermediates.

    Identical to :func:`repro.core.hdagg.hdagg` (same driver call, same
    schedule) but keeps the stage products a later
    :func:`repair_schedule` needs, read off the run's context.  ``options`` accepts the :func:`hdagg`
    keyword switches (``aggregate``, ``transitive_reduce``, ``bin_pack``,
    ``group_cost_cap_fraction``, ``sync``).
    """
    unknown = set(options) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise TypeError(f"unknown inspection options: {sorted(unknown)}")
    opts = dict(_DEFAULT_OPTIONS)
    opts.update(options)
    ctx = hdagg_context(g, cost, p, epsilon, backend=backend, **opts)
    return InspectionArtifacts(
        g=g,
        cost=ctx["Cost"],
        p=p,
        epsilon=epsilon,
        g_base=ctx["ReducedDAG"],
        grouping=ctx["Grouping"],
        g2=ctx["CoarseDAG"],
        group_cost=ctx["GroupCost"],
        lbp=ctx["CoarsenedWaves"],
        schedule=ctx["Schedule"],
        backend=ctx["Backend"],
        options=opts,
    )


@dataclass
class RepairResult:
    """Outcome of :func:`repair_schedule`.

    ``mode`` is ``"repaired"`` (diff-driven splice; output bit-identical
    to a full re-inspection) or ``"full"`` (a guard fired and a fresh
    inspection ran instead — ``stats["reason"]`` says which).  Either way
    ``artifacts`` describes the *new* pattern and can seed the next repair.
    """

    schedule: Schedule
    mode: str
    artifacts: InspectionArtifacts
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def _full_repair(
    old: InspectionArtifacts,
    g_new: DAG,
    cost_new: np.ndarray,
    reason: str,
) -> RepairResult:
    art = inspect_with_artifacts(
        g_new, cost_new, old.p, old.epsilon, backend=old.backend, **old.options
    )
    return RepairResult(
        schedule=art.schedule, mode="full", artifacts=art, stats={"reason": reason}
    )


def _map_cw(cw: CoarsenedWavefront, pi_old2new: np.ndarray, identity: bool) -> CoarsenedWavefront:
    """Old coarsened wavefront under the group renumbering (order-preserving)."""
    if identity:
        return cw
    comps = [np.ascontiguousarray(pi_old2new[c]) for c in cw.components]
    return CoarsenedWavefront(
        wave_lo=cw.wave_lo, wave_hi=cw.wave_hi, components=comps, packing=cw.packing
    )


def _map_level(
    level: List[WidthPartition], row_map: np.ndarray, identity: bool
) -> List[WidthPartition]:
    """Old schedule level under the vertex renumbering (order-preserving)."""
    if identity:
        return level
    return [
        WidthPartition(core=part.core, vertices=row_map[part.vertices])
        for part in level
    ]


def repair_schedule(
    old: InspectionArtifacts,
    g_new: DAG,
    cost_new: np.ndarray,
    delta: Optional[PatternDelta] = None,
    *,
    max_dirty_fraction: float = 0.25,
) -> RepairResult:
    """Repair ``old``'s schedule for the new pattern ``(g_new, cost_new)``.

    ``delta`` relates old rows to new rows; ``None`` means identity when
    the vertex counts match (the factorization-update case) and otherwise
    forces a full inspection.  When more than ``max_dirty_fraction`` of the
    groups are dirty the delta is too large for splicing to pay off and a
    full inspection runs instead.

    The repair recomputes the two cheap global stages exactly (two-hop
    reduction and subtree grouping — both depend globally on the pattern
    via the cost-cap, so recomputing them is what keeps the bit-identity
    proof local), then splices everything downstream around the dirty set.
    The recompute/splice boundary is not hard-coded: it is read off the
    hdagg pass group's declared ``repair`` policies via
    :func:`repro.passes.plan_repair` (a pass whose contracts changed
    policy would make the plan disagree with this implementation, which
    falls back to a full inspection rather than splice wrongly), and the
    plan is stamped into ``stats["plan"]``.
    """
    cost_new = np.asarray(cost_new, dtype=np.float64)
    if cost_new.shape[0] != g_new.n:
        raise ValueError(f"cost has length {cost_new.shape[0]}, expected {g_new.n}")
    if delta is None:
        if g_new.n != old.g.n:
            return _full_repair(old, g_new, cost_new, "row map required for size change")
        delta = PatternDelta.identity(g_new.n)
    if delta.n_old != old.g.n or delta.n_new != g_new.n:
        raise ValueError(
            f"delta shape ({delta.n_old}->{delta.n_new}) does not match "
            f"DAGs ({old.g.n}->{g_new.n})"
        )
    if old.g.n == 0 or g_new.n == 0:
        return _full_repair(old, g_new, cost_new, "empty pattern")
    if old.schedule.fine_grained:
        return _full_repair(old, g_new, cost_new, "fine-grained schedule")
    if len(old.schedule.levels) != len(old.lbp.coarsened):
        return _full_repair(old, g_new, cost_new, "schedule/LBP shape mismatch")

    t_start = time.perf_counter()
    seconds: Dict[str, float] = {}
    opts = old.options
    p, epsilon = old.p, old.epsilon
    spec = BackendSpec.coerce(old.backend)

    # ---- repair plan from the pass-group contracts --------------------
    # A pattern delta dirties the DAG and Cost inputs; the plan buckets
    # the group's passes by their declared repair policy.  This splice
    # implementation handles exactly {coarsen, lbp, expand} — anything
    # else means the group's contracts moved out from under us.
    group = build_hdagg_group(
        aggregate=opts["aggregate"],
        transitive_reduce=opts["transitive_reduce"],
        bin_pack=opts["bin_pack"],
    )
    plan = plan_repair(group, ("DAG", "Cost"))
    if plan.splice != ("coarsen", "lbp", "expand") or plan.replay:
        return _full_repair(old, g_new, cost_new, f"unsupported repair plan {plan}")
    plan_stats = {
        "recompute": list(plan.recompute),
        "splice": list(plan.splice),
        "replay": list(plan.replay),
    }

    # ---- exact recompute of the cheap global stages -------------------
    t0 = time.perf_counter()
    if opts["aggregate"]:
        reduce_fn, _ = resolve_stage(spec, "reduce")
        aggregate_fn, _ = resolve_stage(spec, "aggregate")
        g_base_new = reduce_fn(g_new) if opts["transitive_reduce"] else g_new
        cap_frac = opts["group_cost_cap_fraction"]
        cap = cap_frac * float(cost_new.sum()) / p if cap_frac is not None else None
        grouping_new = aggregate_fn(g_base_new, cost_new, cap)
    else:
        g_base_new = g_new
        grouping_new = identity_grouping(g_new.n)
    seconds["aggregate"] = time.perf_counter() - t0

    # ---- diff: dirty vertices, group matching, dirty groups -----------
    t0 = time.perf_counter()
    ro, rn = delta.retained_old, delta.retained_new
    dirty_vertex = np.zeros(g_new.n, dtype=bool)
    dirty_vertex[changed_rows(old.g_base, g_base_new, delta)] = True
    dirty_vertex[rn[old.cost[ro] != cost_new[rn]]] = True
    dirty_vertex[delta.added] = True

    labels_new = grouping_new.labels
    labels_old = old.grouping.labels
    n_groups_new = grouping_new.n_groups
    n_groups_old = old.grouping.n_groups
    gptr, gflat = _grouping_csr(grouping_new)
    sizes_new = np.diff(gptr)
    # per new group: the old label of every member (or -1 for added rows);
    # a group matches an old one iff the labels agree and the sizes do too
    ol = np.full(g_new.n, -1, dtype=INDEX_DTYPE)
    ol[rn] = labels_old[ro]
    ol_sorted = ol[gflat]
    gmin = np.minimum.reduceat(ol_sorted, gptr[:-1])
    gmax = np.maximum.reduceat(ol_sorted, gptr[:-1])
    sizes_old = np.bincount(labels_old, minlength=n_groups_old)
    matched = (gmin >= 0) & (gmin == gmax)
    matched[matched] &= sizes_old[gmin[matched]] == sizes_new[matched]
    pi_new2old = np.where(matched, gmin, np.int64(-1)).astype(INDEX_DTYPE, copy=False)
    mids = np.flatnonzero(matched)
    if mids.size > 1 and np.any(np.diff(pi_new2old[mids]) <= 0):
        return _full_repair(old, g_new, cost_new, "group renumbering not monotone")
    pi_old2new = np.full(n_groups_old, -1, dtype=INDEX_DTYPE)
    pi_old2new[pi_new2old[mids]] = mids
    identity_pi = (
        n_groups_old == n_groups_new
        and mids.size == n_groups_new
        and bool(np.array_equal(pi_new2old, np.arange(n_groups_new)))
    )

    # a group's G'' row is stale when its membership changed, a member's
    # reduced row or cost changed, or an out-edge target changed label
    dirty_group = ~matched
    dirty_group[labels_new[dirty_vertex]] = True
    src, dst = g_base_new.edge_list()
    gs, gd = labels_new[src], labels_new[dst]
    bad_target = ~matched[gd]
    if bad_target.any():
        dirty_group[gs[bad_target]] = True
    n_dirty = int(dirty_group.sum())
    seconds["diff"] = time.perf_counter() - t0
    if n_dirty > max_dirty_fraction * n_groups_new:
        return _full_repair(
            old,
            g_new,
            cost_new,
            f"dirty fraction {n_dirty}/{n_groups_new} exceeds {max_dirty_fraction}",
        )

    # ---- coarsen splice: G'' rows and group costs ---------------------
    t0 = time.perf_counter()
    clean_ids = np.flatnonzero(~dirty_group)
    old_len = np.diff(old.g2.indptr)
    edge_mask = dirty_group[gs] & (gs != gd)
    if edge_mask.any():
        pair = np.unique(np.stack((gs[edge_mask], gd[edge_mask]), axis=1), axis=0)
        dsrc, ddst = pair[:, 0], pair[:, 1]
    else:
        dsrc = ddst = np.empty(0, dtype=INDEX_DTYPE)
    lengths = np.bincount(dsrc, minlength=n_groups_new).astype(INDEX_DTYPE, copy=False)
    lengths[clean_ids] = old_len[pi_new2old[clean_ids]]
    indptr2 = np.zeros(n_groups_new + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=indptr2[1:])
    indices2 = np.empty(int(indptr2[-1]), dtype=INDEX_DTYPE)
    if dsrc.size:
        # pairs are sorted by (src, dst); per-src runs land contiguously
        within = np.arange(dsrc.shape[0], dtype=INDEX_DTYPE) - np.searchsorted(
            dsrc, dsrc
        )
        indices2[indptr2[dsrc] + within] = ddst
    if clean_ids.size:
        orow = pi_new2old[clean_ids]
        vals = pi_old2new[gather_slices(old.g2.indptr, old.g2.indices, orow)]
        if vals.size and int(vals.min()) < 0:
            # a clean group's row references an unmatched target group: the
            # dirtiness propagation missed something — never expected, but
            # fall back rather than emit a corrupt DAG
            return _full_repair(old, g_new, cost_new, "clean row maps out of range")
        cnts = old_len[orow]
        total = int(cnts.sum())
        if total:
            cum = np.cumsum(cnts)
            dest = np.repeat(indptr2[clean_ids], cnts) + (
                np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - cnts, cnts)
            )
            indices2[dest] = vals
    g2_new = DAG(n_groups_new, indptr2, indices2, check=False)

    group_cost_new = np.empty(n_groups_new, dtype=np.float64)
    group_cost_new[clean_ids] = old.group_cost[pi_new2old[clean_ids]]
    dirty_ids = np.flatnonzero(dirty_group)
    if dirty_ids.size:
        # np.add.at in ascending vertex order over just the dirty groups'
        # members reproduces the full group_costs accumulation bit-for-bit
        acc = np.zeros(n_groups_new, dtype=np.float64)
        vmask = dirty_group[labels_new]
        np.add.at(acc, labels_new[vmask], cost_new[vmask])
        group_cost_new[dirty_ids] = acc[dirty_ids]
    seconds["coarsen"] = time.perf_counter() - t0

    # ---- wavefront cleanliness and the dirty window -------------------
    t0 = time.perf_counter()
    waves_new = compute_wavefronts(g2_new)
    l_new, l_old = waves_new.n_levels, old.lbp.waves.n_levels
    lvl_new, lvl_old = waves_new.level, old.lbp.waves.level
    group_clean = matched & ~dirty_group
    group_clean &= lvl_old[np.maximum(pi_new2old, 0)] == lvl_new
    m = min(l_old, l_new)
    wave_clean = np.zeros(l_new, dtype=bool)
    if m:
        unclean_at = np.bincount(lvl_new[~group_clean], minlength=l_new)
        wave_clean[:m] = (unclean_at[:m] == 0) & (
            waves_new.sizes()[:m] == old.lbp.waves.sizes()[:m]
        )
    old_cws = old.lbp.coarsened
    old_dec = list(old.lbp.decisions or [])
    old_cut_index = {cw.wave_lo: k for k, cw in enumerate(old_cws)}
    last_old = len(old_cws) - 1

    def reusable(k: int) -> bool:
        """Can old coarsened wavefront ``k`` replay verbatim?

        Its whole span must be clean, and so must the wave its failed
        merge candidate peeked at (``wave_hi``); the last old wavefront
        has no failed candidate but must still end the new walk.
        """
        cw = old_cws[k]
        if k == last_old:
            return cw.wave_hi == l_new and bool(
                np.all(wave_clean[cw.wave_lo : cw.wave_hi])
            )
        return cw.wave_hi < l_new and bool(
            np.all(wave_clean[cw.wave_lo : cw.wave_hi + 1])
        )

    # Merge loop over cut-to-cut segments.  Invariant at the top: the full
    # walk on the new inputs has a cut exactly at ``pos`` (or starts
    # there).  Clean old segments cut at an old cut position replay
    # verbatim (the walk's state fully resets at a cut); dirty stretches
    # are re-walked live until they re-synchronise with an old cut.
    coarsened_new: List[CoarsenedWavefront] = []
    dec_new: List[LBPDecision] = []
    #: per-emitted-wavefront origin: old index when replayed, -1 when live
    origin: List[int] = []
    cc = None
    pos = 0
    while pos < l_new:
        k = old_cut_index.get(pos)
        if k is not None and reusable(k):
            cw = old_cws[k]
            coarsened_new.append(_map_cw(cw, pi_old2new, identity_pi))
            origin.append(k)
            # decisions for waves pos+1 .. wave_hi (incl. the cut at
            # wave_hi that ended this segment, when there is one)
            stop = cw.wave_hi if k != last_old else l_new - 1
            dec_new.extend(old_dec[pos:stop])
            pos = cw.wave_hi
            continue
        # live walk from the cut at ``pos`` until the next cut
        if cc is None:
            cc = _RangeComponents(g2_new, waves_new, group_cost_new, p)
        # Clean-prefix skip: when an old coarsened wavefront also started
        # at ``pos``, every clean wave at its front was merged by the old
        # walk, and the walk state is path-independent (components are
        # canonical minima, packing orders by (root, vertex)).  Seeding
        # the whole clean prefix in one union pass and replaying the old
        # merge decisions verbatim is therefore bit-identical to stepping
        # wave by wave — only the genuinely dirty tail is walked live.
        w = pos + 1
        if k is not None:
            stop_old = min(old_cws[k].wave_hi, l_new)
            w = pos
            while w < stop_old and wave_clean[w]:
                w += 1
            w = max(w, pos + 1)
        cc.seed(pos, w)
        dec_new.extend(old_dec[pos : w - 1])
        prev = cc.candidate()
        i = w
        cut_at = None
        while i < l_new:
            cc.extend(i + 1)
            cand = cc.candidate()
            score = pgp(cand.packing.loads)
            if score > epsilon:
                dec_new.append(LBPDecision(wave=i, pgp=score, merged=False))
                cut_at = i
                break
            dec_new.append(LBPDecision(wave=i, pgp=score, merged=True))
            prev = cand
            i += 1
        coarsened_new.append(prev.materialize())
        origin.append(-1)
        pos = cut_at if cut_at is not None else l_new
    n_reused = sum(1 for k in origin if k >= 0)

    # Lines 36-38 over the final list; loads of reused wavefronts are the
    # old float arrays, so the Python-sum accumulation replays bit-for-bit
    total_mean = sum(float(cw.packing.loads.mean()) for cw in coarsened_new)
    total_max = sum(float(cw.packing.loads.max()) for cw in coarsened_new)
    accumulated = 1.0 - total_mean / total_max if total_max > 0 else 0.0
    fine = bool(opts["bin_pack"]) is False or accumulated > epsilon
    lbp_new = LBPResult(
        coarsened=coarsened_new,
        waves=waves_new,
        fine_grained=fine,
        accumulated_pgp=accumulated,
        decisions=dec_new,
    )
    seconds["lbp"] = time.perf_counter() - t0

    # ---- expansion splice ---------------------------------------------
    t0 = time.perf_counter()
    gsize = np.diff(gptr)
    identity_rows = delta.is_identity
    levels: List[List[WidthPartition]] = []
    if fine != old.schedule.fine_grained:
        # the packing flag flipped: bucket shapes changed everywhere
        for cw in coarsened_new:
            if cw.components:
                parts = _expand_cw(cw, fine, gptr, gflat, gsize, p)
                if parts:
                    levels.append(parts)
    else:
        for cw, org in zip(coarsened_new, origin):
            if org >= 0:
                levels.append(
                    _map_level(old.schedule.levels[org], delta.row_map, identity_rows)
                )
            elif cw.components:
                parts = _expand_cw(cw, fine, gptr, gflat, gsize, p)
                if parts:
                    levels.append(parts)
    meta = {
        "n_groups": n_groups_new,
        "n_edges_original": g_new.n_edges,
        "n_edges_reduced": g_base_new.n_edges,
        "n_coarse_vertices": g2_new.n,
        "n_coarse_wavefronts": len(coarsened_new),
        "n_wavefronts": l_new,
        "accumulated_pgp": accumulated,
        "cut_positions": lbp_new.cut_positions,
        "epsilon": epsilon,
        "backend": spec.effective().describe(),
    }
    schedule = Schedule(
        n=g_new.n,
        levels=levels,
        sync=opts["sync"],
        algorithm="hdagg",
        n_cores=p,
        fine_grained=fine,
        meta=meta,
    )
    seconds["expand"] = time.perf_counter() - t0
    seconds["total"] = time.perf_counter() - t_start
    schedule.meta["stage_seconds"] = dict(seconds)

    artifacts = InspectionArtifacts(
        g=g_new,
        cost=cost_new,
        p=p,
        epsilon=epsilon,
        g_base=g_base_new,
        grouping=grouping_new,
        g2=g2_new,
        group_cost=group_cost_new,
        lbp=lbp_new,
        schedule=schedule,
        backend=spec.effective().describe(),
        options=dict(opts),
    )
    stats = {
        "n_groups": n_groups_new,
        "n_dirty_groups": n_dirty,
        "n_matched_groups": int(mids.size),
        "n_reused_cws": n_reused,
        "n_live_cws": len(coarsened_new) - n_reused,
        "seconds": seconds,
        "plan": plan_stats,
    }
    return RepairResult(schedule=schedule, mode="repaired", artifacts=artifacts, stats=stats)


# ----------------------------------------------------------------------
# Cache wiring
# ----------------------------------------------------------------------
def family_key(
    *,
    kernel: str = "",
    algorithm: str = "hdagg",
    p: int,
    epsilon: float | None = None,
    backend: str = "",
    label: str = "",
    options: dict | None = None,
) -> str:
    """Digest of one *parameter family* — everything in a schedule key
    except the pattern itself.  Two inspection problems in the same family
    differ only by their DAG, which is exactly when repair applies.

    ``label`` scopes the family to one logical matrix (the harness passes
    the dataset name): unrelated patterns that merely share parameters
    would otherwise repair against each other's artifacts — safe (the
    dirty-fraction guard falls back to a full inspection) but wasted diff
    work.
    """
    payload = repr(
        (
            kernel,
            algorithm,
            int(p),
            None if epsilon is None else float(epsilon),
            backend,
            label,
            sorted((options or {}).items()),
        )
    )
    h = sha256(_FAMILY_KEY_VERSION)
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


class IncrementalScheduleCache(ScheduleCache):
    """Schedule cache whose near-misses become repairs.

    On top of the exact structure-keyed LRU store, each *family* (see
    :func:`family_key`) keeps the latest :class:`InspectionArtifacts`.  An
    exact-key miss with a family hit runs :func:`repair_schedule` against
    the stored artifacts instead of a full inspection; the repaired (or
    fallback-full) artifacts replace the family entry either way, so a
    drifting pattern keeps repairing against its most recent ancestor.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries)
        self._families: Dict[str, InspectionArtifacts] = {}
        self.repairs = 0
        self.repair_fulls = 0

    def put_artifacts(self, family: str, artifacts: InspectionArtifacts) -> None:
        """Seed (or refresh) a family's repair ancestor."""
        self._families[family] = artifacts

    def artifacts_for(self, family: str) -> Optional[InspectionArtifacts]:
        return self._families.get(family)

    def acquire(
        self,
        key: str,
        family: str,
        g: DAG,
        cost: np.ndarray,
        *,
        p: int,
        epsilon: float = DEFAULT_EPSILON,
        backend: "BackendSpec | str | None" = None,
        delta: Optional[PatternDelta] = None,
        **options,
    ) -> Tuple[Schedule, str]:
        """Schedule for ``(g, cost)`` under the family's parameters.

        Returns ``(schedule, source)`` with ``source`` one of ``"hit"``
        (exact key), ``"repaired"`` (family near-miss, diff-spliced), or
        ``"full"`` (fresh inspection — first sighting of the family, or a
        repair guard fired).  Both stores are updated on every miss.
        """
        hit = self.get(key)
        if hit is not None:
            return hit, "hit"
        old = self._families.get(family)
        if old is not None:
            result = repair_schedule(old, g, cost, delta=delta)
            if result.mode == "repaired":
                self.repairs += 1
            else:
                self.repair_fulls += 1
            self._families[family] = result.artifacts
            self.put(key, result.schedule)
            return result.schedule, result.mode
        art = inspect_with_artifacts(g, cost, p, epsilon, backend=backend, **options)
        self._families[family] = art
        self.put(key, art.schedule)
        return art.schedule, "full"

    def clear(self) -> None:
        super().clear()
        self._families.clear()
        self.repairs = 0
        self.repair_fulls = 0
