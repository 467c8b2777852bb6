import asyncio

from loadgen import closed_loop, open_loop, quantile_ms


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    async def sleep(self, dt: float) -> None:
        self.t += dt
        await asyncio.sleep(0)


def test_open_loop_charges_an_injected_stall_to_every_later_request():
    clock = FakeClock()
    stall, stalled = 1.0, 3
    offsets = [0.1 * (i + 1) for i in range(30)]

    async def submit(i, req):
        if i == stalled:
            clock.t += stall  # the generator's loop is blocked for a second
        return req

    outs = asyncio.run(open_loop(submit, list(range(30)), offsets,
                                 clock=clock, sleep=clock.sleep))
    assert [o.index for o in outs] == list(range(30))
    resumed = offsets[stalled] + stall
    for o in outs[stalled + 1:]:
        if o.due < resumed:  # fell due during the stall
            assert o.late >= resumed - o.due - 1e-9
            assert o.latency >= resumed - o.due - 1e-9
        else:
            assert o.latency < 0.2
    assert any(o.due < resumed for o in outs[stalled + 1:])
    assert all(o.latency < 0.2 for o in outs[:stalled])


def test_open_loop_counts_a_refused_request_beyond_any_limit():
    clock = FakeClock()

    async def submit(i, req):
        if i == 1:
            raise RuntimeError("shed")
        return req

    outs = asyncio.run(open_loop(submit, [0, 1, 2], [0.1, 0.2, 0.3], clock=clock,
                                 sleep=clock.sleep, failures=(RuntimeError,)))
    assert [o.ok for o in outs] == [True, False, True]
    assert quantile_ms([o.latency for o in outs], 0.99) == float("inf")


def test_closed_loop_keeps_one_request_per_client_outstanding():
    clock = FakeClock()
    active = []

    async def submit(i, req):
        active.append(i)
        assert len(active) <= 2
        await clock.sleep(0.01)
        active.remove(i)
        return req

    outs, elapsed = asyncio.run(closed_loop(submit, list(range(8)), clients=2,
                                            duration=0.1, clock=clock))
    assert all(o.ok for o in outs)
    assert len(outs) >= 10 and elapsed >= 0.1


def test_segments_continue_the_request_numbering():
    clock = FakeClock()
    seen = []

    async def submit(i, req):
        seen.append(i)
        await clock.sleep(0.01)
        return req

    async def two_segments():
        first = await open_loop(submit, [0, 1], [0.1, 0.2], clock=clock, sleep=clock.sleep)
        second = await open_loop(submit, [2, 3], [0.1, 0.2], clock=clock, sleep=clock.sleep,
                                 first=2)
        closed, _ = await closed_loop(submit, list(range(8)), clients=2, duration=0.05,
                                      clock=clock, first=4)
        return first + second, closed

    opened, closed = asyncio.run(two_segments())
    assert [o.index for o in opened] == [0, 1, 2, 3]
    assert seen[:4] == [0, 1, 2, 3]
    assert sorted(o.index for o in closed)[:2] == [4, 5]
