"""Seeded workload inputs: the grid draw, the serving catalogs, the request streams.

Everything here is a pure function of the workload seed.  The program under
test never sees the seed, only what these functions generate from it, so
two runs with one seed hand it identical inputs and another seed hands it
different ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: The grid draw takes :data:`GRID_TAKE` matrix from each slot: the
#: irregular slot is where LBC dominates, the structured slot (chains) is
#: where ordering does.  They are the cheapest suite matrices of their
#: kinds, so one pass over a draw takes a few seconds and a run repeats it
#: often enough for a median; matrices inside one slot cost within a few
#: percent of each other through the default grid, so runs with different
#: seeds do about the same amount of work.
GRID_SLOTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("irregular", ("rand-dense",)),
    ("structured", ("chain-pure", "ladder-s")),
)
GRID_TAKE = 1

#: every matrix any seed can draw (the expected-record table covers these)
GRID_POOL: Tuple[str, ...] = tuple(name for _, names in GRID_SLOTS for name in names)


@dataclass(frozen=True)
class ServeShape:
    """Load shape of one serving workload."""

    #: ``(nx, ny)`` poisson2d grid shapes the catalog's structures come from
    grids: Tuple[Tuple[int, int], ...]
    #: number of distinct structures in the catalog
    n_structures: int
    #: kernels whose DAGs each structure is requested for (one key each)
    kernels: Tuple[str, ...]
    #: core counts each DAG is requested for (one key each)
    cores: Tuple[int, ...]
    #: open-loop arrival rate, requests per second
    rate: float
    #: Zipf exponent of key popularity; 0 means flat
    zipf_s: float
    #: L1 bound handed to the broker's cache; ``None`` is unbounded
    l1_entries: int | None
    #: share of the catalog persisted to the store during set-up; with
    #: none, set-up primes L1 with the whole catalog instead
    persisted_share: float


def _grids_near(lo: int, hi: int, points: int) -> Tuple[Tuple[int, int], ...]:
    """Grid shapes with both sides in ``[lo, hi]`` and within 4% of ``points`` points."""
    side = range(lo, hi + 1)
    return tuple((x, y) for x in side for y in side if abs(x * y - points) <= 0.04 * points)


SERVE_SHAPES = {
    # 3 structures x 2 kernels = 6 keys of ~9.2k vertices at p=8, L1
    # primed.  Under Zipf popularity the hottest keys set the latency, so
    # the keys are kept alike: a hit's cost follows the schedule's level
    # (and so partition) count, and these grids are the ones near 96 x 96
    # whose ND-ordered DAGs HDagg schedules in 30 levels at p=8 (others
    # nearby take 18 to 32 levels, and their hits up to 30% less time).
    "serve-hot": ServeShape(
        grids=((93, 97), (93, 98), (94, 97), (95, 95), (95, 96), (96, 95), (97, 94), (97, 98)),
        n_structures=3, kernels=("sptrsv", "spilu0"),
        cores=(8,), rate=45.0, zipf_s=1.2, l1_entries=None, persisted_share=0.0,
    ),
    # 24 structures x 3 kernels x 2 core counts = 144 keys of ~900
    # vertices against an L1 of 16; a third of the keys start in the store,
    # the rest are inspected fresh when first asked for.  Popularity is
    # flat, so no single key sets the latency.
    "serve-cold": ServeShape(
        grids=_grids_near(24, 38, 30 * 30), n_structures=24,
        kernels=("sptrsv", "spic0", "spilu0"),
        cores=(4, 8), rate=45.0, zipf_s=0.0, l1_entries=16, persisted_share=1 / 3,
    ),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input stream, so streams never shift each other."""
    return np.random.default_rng([int(seed), stream])


def grid_draw(seed: int) -> List[str]:
    """Matrix names of the grid workload, slot by slot, in seeded order."""
    rng = _rng(seed, 1)
    return [
        str(names[int(i)])
        for _, names in GRID_SLOTS
        for i in rng.choice(len(names), size=GRID_TAKE, replace=False)
    ]


def catalog_dims(workload: str, seed: int) -> List[Tuple[int, int]]:
    """Distinct ``(nx, ny)`` poisson2d grid shapes of a serving catalog."""
    shape = SERVE_SHAPES[workload]
    picks = _rng(seed, 2).choice(len(shape.grids), size=shape.n_structures, replace=False)
    return [shape.grids[int(i)] for i in picks]


def catalog_keys(workload: str, seed: int) -> List[Tuple[int, str, int]]:
    """``(structure index, kernel, cores)`` of every catalog key, in rank order.

    The order is a seeded permutation, so with Zipf popularity a different
    key is hottest under a different seed.
    """
    shape = SERVE_SHAPES[workload]
    keys = [
        (s, k, p)
        for s in range(shape.n_structures)
        for k in shape.kernels
        for p in shape.cores
    ]
    order = _rng(seed, 3).permutation(len(keys))
    return [keys[int(i)] for i in order]


def persisted_keys(workload: str, seed: int) -> List[int]:
    """Catalog positions written to the store during set-up."""
    shape = SERVE_SHAPES[workload]
    n = len(catalog_keys(workload, seed))
    k = int(round(n * shape.persisted_share))
    return sorted(int(i) for i in _rng(seed, 4).choice(n, size=k, replace=False))


def popularity(n: int, zipf_s: float) -> np.ndarray:
    """Request probability per catalog rank: Zipf(``zipf_s``), or flat at 0."""
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), zipf_s)
    return w / w.sum()


@dataclass(frozen=True)
class RequestStream:
    """Which key each request asks for, and when it is due."""

    picks: np.ndarray  # catalog position per open-loop request
    offsets: np.ndarray  # due time per request, seconds after the start
    closed_picks: np.ndarray  # catalog positions cycled by closed-loop clients

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.picks, self.offsets, self.closed_picks):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def warm_keys(workload: str, seed: int) -> List[int]:
    """Catalog positions the service holds before timing starts.

    With nothing persisted, set-up primes L1 with the whole catalog;
    otherwise the persisted keys are warm and the rest are fresh.
    """
    if SERVE_SHAPES[workload].persisted_share == 0:
        return list(range(len(catalog_keys(workload, seed))))
    return persisted_keys(workload, seed)


def request_stream(workload: str, seed: int, n_requests: int) -> RequestStream:
    """Open-loop Poisson arrivals and the closed-loop key sequence.

    Each fresh key is first asked for at an evenly spaced point of the open
    loop, so fresh inspections arrive at a steady rate instead of in one
    opening burst; every other request picks among the keys asked for so
    far (or warm) by the workload's popularity.  The closed loop, whose
    segments alternate with the open loop's, picks among the warm keys
    only, so how far the open loop has got never changes what it asks for.
    """
    shape = SERVE_SHAPES[workload]
    n_keys = len(catalog_keys(workload, seed))
    rng = _rng(seed, 5)
    released = warm_keys(workload, seed)
    warm = set(released)
    fresh = rng.permutation([k for k in range(n_keys) if k not in warm])
    if fresh.size > n_requests:
        raise ValueError(f"{fresh.size} fresh keys need at least as many requests")
    first_ask = {i * n_requests // fresh.size: int(k) for i, k in enumerate(fresh)}
    picks = np.empty(n_requests, dtype=np.int64)
    for i in range(n_requests):
        if i in first_ask:
            released.append(first_ask[i])
            picks[i] = first_ask[i]
        else:
            rank = rng.choice(len(released), p=popularity(len(released), shape.zipf_s))
            picks[i] = released[int(rank)]
    offsets = np.cumsum(rng.exponential(1.0 / shape.rate, size=n_requests))
    closed = np.asarray(sorted(warm))[
        rng.choice(len(warm), size=4096, p=popularity(len(warm), shape.zipf_s))
    ]
    return RequestStream(picks=picks, offsets=offsets, closed_picks=closed)
