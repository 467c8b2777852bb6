"""Open- and closed-loop load generators over ``FrontDoor.submit``.

The open loop sends each request at its due time whether or not earlier
ones have finished, and times it from that due time.  When the generator
itself runs late (the event loop stalled, a worker held the interpreter
lock), the delay lands on every request that fell due meanwhile instead of
vanishing: that is the coordinated-omission correction.  How late the
generator ran is reported on its own.

The closed loop keeps ``clients`` requests outstanding, each client sending
its next request when the previous one returns, and reports completions
per second: the capacity of the stack at that concurrency.

Clocks and sleeps are injectable so tests can drive both loops with a fake
clock.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence

import numpy as np

Submit = Callable[[int, Any], Awaitable[Any]]


@dataclass
class Outcome:
    """One request as the generator saw it (times on the generator's clock)."""

    index: int
    due: float
    sent: float
    done: float = math.nan
    result: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not math.isnan(self.done)

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; infinite for a failed request."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.due


async def open_loop(
    submit: Submit,
    requests: Sequence[Any],
    offsets: Sequence[float],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    failures: tuple = (Exception,),
    first: int = 0,
) -> List[Outcome]:
    """Send ``requests[i]`` at ``start + offsets[i]``; return every outcome.

    ``submit(first + i, request)`` is awaited in its own task.  Exceptions
    listed in ``failures`` are recorded on the outcome (the request counts as
    beyond any latency limit); anything else propagates.
    """
    outcomes: List[Outcome] = []
    tasks = []

    async def one(out: Outcome, req: Any) -> None:
        try:
            out.result = await submit(out.index, req)
        except failures as exc:
            out.error = exc
            return
        out.done = clock()

    start = clock()
    for i, req in enumerate(requests):
        due = start + float(offsets[i])
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        out = Outcome(index=first + i, due=due, sent=clock())
        outcomes.append(out)
        tasks.append(asyncio.ensure_future(one(out, req)))
    await asyncio.gather(*tasks)
    return outcomes


async def closed_loop(
    submit: Submit,
    requests: Sequence[Any],
    *,
    clients: int,
    duration: float,
    clock: Callable[[], float] = time.perf_counter,
    failures: tuple = (Exception,),
    first: int = 0,
) -> tuple[List[Outcome], float]:
    """``clients`` back-to-back senders cycling ``requests`` for ``duration`` s.

    Returns the outcomes and the elapsed seconds from start to the last
    reply.  Client ``c`` sends requests ``first + c, first + c + clients,
    ...`` (mod the list length), so the sequence is fixed by the list and
    ``first`` alone.
    """
    outcomes: List[Outcome] = []
    start = clock()
    stop = start + duration

    async def client(c: int) -> None:
        i = first + c
        while clock() < stop:
            now = clock()
            out = Outcome(index=i, due=now, sent=now)
            outcomes.append(out)
            try:
                out.result = await submit(i, requests[i % len(requests)])
            except failures as exc:
                out.error = exc
            else:
                out.done = clock()
            i += clients

    await asyncio.gather(*(client(c) for c in range(clients)))
    return outcomes, clock() - start


def quantile_ms(values: Sequence[float], q: float) -> float:
    """``q``-quantile in milliseconds; infinite values stay infinite.

    Uses the "higher" rule so a quantile is always an observed value: a
    failed request (infinite latency) in the tail makes the quantile
    infinite rather than interpolating it away.
    """
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q, method="higher")) * 1e3
