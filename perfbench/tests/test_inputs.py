import numpy as np

from inputs import (
    GRID_POOL,
    GRID_SLOTS,
    GRID_TAKE,
    SERVE_SHAPES,
    catalog_dims,
    catalog_keys,
    grid_draw,
    persisted_keys,
    request_stream,
    warm_keys,
)


def _inputs(seed):
    return (
        grid_draw(seed),
        catalog_dims("serve-hot", seed),
        catalog_dims("serve-cold", seed),
        persisted_keys("serve-cold", seed),
        request_stream("serve-hot", seed, 200).digest(),
        request_stream("serve-cold", seed, 200).digest(),
    )


def test_same_seed_same_inputs():
    assert _inputs(7) == _inputs(7)


def test_another_seed_other_inputs():
    assert _inputs(7) != _inputs(8)
    assert request_stream("serve-cold", 7, 200).digest() != request_stream(
        "serve-cold", 8, 200).digest()
    assert len({tuple(grid_draw(s)) for s in range(40)}) > 1


def test_every_draw_holds_an_irregular_and_a_structured_matrix():
    slots = dict(GRID_SLOTS)
    for seed in range(40):
        draw = grid_draw(seed)
        assert len(set(draw)) == len(draw) == 2 * GRID_TAKE
        assert set(draw[:GRID_TAKE]) <= set(slots["irregular"])
        assert set(draw[GRID_TAKE:]) <= set(slots["structured"])
        assert set(draw) <= set(GRID_POOL)


def test_arrivals_follow_the_configured_rate():
    stream = request_stream("serve-hot", 3, 4000)
    rate = len(stream.offsets) / stream.offsets[-1]
    assert 0.9 < rate / SERVE_SHAPES["serve-hot"].rate < 1.1
    assert np.all(np.diff(stream.offsets) > 0)


def test_fresh_keys_are_first_asked_for_at_a_steady_rate():
    n = 1000
    warm = set(warm_keys("serve-cold", 5))
    picks = request_stream("serve-cold", 5, n).picks
    first = {}
    for i, k in enumerate(picks):
        first.setdefault(int(k), i)
    fresh_first = sorted(i for k, i in first.items() if k not in warm)
    assert len(fresh_first) == len(catalog_keys("serve-cold", 5)) - len(warm)
    gaps = np.diff(fresh_first)
    assert gaps.min() >= n // len(fresh_first) and gaps.max() <= n // len(fresh_first) + 1
    assert set(warm_keys("serve-hot", 5)) == set(range(len(catalog_keys("serve-hot", 5))))


def test_closed_loop_asks_only_for_warm_keys():
    for workload in SERVE_SHAPES:
        warm = set(warm_keys(workload, 5))
        assert set(request_stream(workload, 5, 1000).closed_picks.tolist()) <= warm
