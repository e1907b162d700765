"""Single-process asyncio load generator for the serve workloads.

Three phases run against one server, all from one thread:

* ``warmup`` sends every distinct request once, one at a time.  Its bodies
  are the reference every later response must equal byte for byte.
* ``open_loop`` sends on a seeded Poisson schedule whatever the server does.
  Each latency is timed from the request's *due* time, so a stall also
  charges the requests queued behind it; how late the generator sent each
  request is reported separately.
* ``closed_loop`` keeps a fixed number of requests in flight, each sent as
  soon as the previous one on its connection is answered: the rate the
  server sustains (``capacity.py``), from which the open-loop rates follow.

The server speaks HTTP/1.0, so every request is one connection: the
request is written, the reply is read until the server closes.
"""

from __future__ import annotations

import asyncio
import random
import selectors
import time
from dataclasses import dataclass, field
from typing import Any, Coroutine

__all__ = ["Request", "Outcome", "Phase", "Client", "poisson_schedule", "run_until_complete"]


def run_until_complete(coro: Coroutine[Any, Any, Any]) -> Any:
    """Run *coro* on a new event loop whose timers wake within about 0.1 ms.

    asyncio's default selector on Linux is epoll, whose timeout rounds up
    to whole milliseconds: open-loop requests were then sent 0.7 ms late at
    the median and 1.8 ms at p95, as long as a query's service time.
    ``select`` takes microseconds, and the generator watches only a few
    sockets, so its cost per call does not matter.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


@dataclass(frozen=True, slots=True)
class Request:
    """One distinct request of a workload's mix."""

    method: str
    path: str
    body: bytes = b""


@dataclass(slots=True)
class Outcome:
    """What happened to one sent (or unsent) request."""

    index: int  # position of the request in the workload's distinct list
    trace_id: str
    due: float
    sent: float = -1.0  # -1: never sent
    done: float = -1.0  # -1: no complete reply
    ok: bool = False  # status 200 and body equal to the reference

    @property
    def latency_s(self) -> float:
        """Due time to reply (open loop); equals send to reply when on time."""
        return self.done - self.due

    @property
    def service_s(self) -> float:
        """Send to reply: the time the request spent on the wire and server."""
        return self.done - self.sent


@dataclass(slots=True)
class Phase:
    """The outcomes of one phase plus its measured duration."""

    outcomes: list[Outcome] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def poisson_schedule(
    rate: float, duration_s: float, n_requests: int, rng: random.Random
) -> list[tuple[float, int]]:
    """Seeded ``(due offset, request index)`` pairs of a Poisson arrival
    process at *rate* per second over *duration_s* seconds.

    Requests are drawn as successive shuffles of all indices, so every
    distinct request is sent equally often (within one): how many of the
    few expensive requests a run contains does not depend on chance.
    """
    out: list[tuple[float, int]] = []
    order: list[int] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        if not order:
            order = list(range(n_requests))
            rng.shuffle(order)
        out.append((t, order.pop()))
        t += rng.expovariate(rate)
    return out


class Client:
    """Sends :class:`Request` objects to one ``host:port``.

    Args:
        host, port: the server address.
        requests: the workload's distinct requests.
        trace_prefix: 8 hex digits that start every trace id this client
            sends in ``X-Repro-Trace-Id`` (the rest is a request counter), so
            the server-side trace can be matched to each client latency.
    """

    #: A slower reply counts as failed.
    TIMEOUT_S = 10.0

    def __init__(self, host: str, port: int, requests: list[Request], trace_prefix: str) -> None:
        self.host = host
        self.port = port
        self.requests = requests
        self.reference: list[bytes | None] = [None] * len(requests)
        self._trace_prefix = trace_prefix
        self._counter = 0

    def _next_trace_id(self) -> str:
        self._counter += 1
        return f"{self._trace_prefix}{self._counter:024x}"

    def _wire(self, request: Request, trace_id: str) -> bytes:
        head = (
            f"{request.method} {request.path} HTTP/1.0\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"X-Repro-Trace-Id: {trace_id}\r\n"
        )
        if request.method == "POST":
            head += f"Content-Type: text/plain\r\nContent-Length: {len(request.body)}\r\n"
        return head.encode("ascii") + b"\r\n" + request.body

    async def _exchange(self, request: Request, trace_id: str) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(self._wire(request, trace_id))
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].split()
        return int(status_line[1]), body

    async def _send(self, outcome: Outcome, is_reference: bool = False) -> None:
        """Send one request and fill in *outcome*; never raises.

        With *is_reference* a 200 body becomes the request's reference;
        otherwise the reply is good only if it equals that reference.
        """
        request = self.requests[outcome.index]
        outcome.sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                self._exchange(request, outcome.trace_id), self.TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            return
        outcome.done = time.perf_counter()
        if status != 200:
            return
        if is_reference:
            self.reference[outcome.index] = body
            outcome.ok = True
        else:
            reference = self.reference[outcome.index]
            outcome.ok = reference is not None and body == reference

    async def warmup(self) -> Phase:
        """Every distinct request once, in order, over one connection."""
        phase = Phase()
        start = time.perf_counter()
        for index in range(len(self.requests)):
            outcome = Outcome(index, self._next_trace_id(), due=time.perf_counter())
            await self._send(outcome, is_reference=True)
            phase.outcomes.append(outcome)
        phase.duration_s = time.perf_counter() - start
        return phase

    async def open_loop(
        self, rate: float, duration_s: float, rng: random.Random, slots: int, drain_s: float
    ) -> Phase:
        """Poisson arrivals at *rate*/s for *duration_s*; at most *slots*
        requests in flight.  Requests still unsent or unanswered *drain_s*
        after the schedule ends are abandoned and count as failed."""
        phase = Phase()
        schedule = poisson_schedule(rate, duration_s, len(self.requests), rng)
        gate = asyncio.Semaphore(slots)

        async def one(outcome: Outcome) -> None:
            async with gate:
                await self._send(outcome)

        tasks = []
        start = time.perf_counter()
        for offset, index in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(index, self._next_trace_id(), due=due)
            phase.outcomes.append(outcome)
            tasks.append(asyncio.create_task(one(outcome)))
        end = start + duration_s
        if tasks:
            _, pending = await asyncio.wait(
                tasks, timeout=max(0.0, end + drain_s - time.perf_counter())
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        phase.duration_s = time.perf_counter() - start
        return phase

    async def closed_loop(self, connections: int, duration_s: float, rng: random.Random) -> Phase:
        """*connections* senders, each sending a seeded random request as
        soon as its previous reply arrives, until *duration_s* has passed."""
        phase = Phase()
        end = time.perf_counter() + duration_s

        async def sender() -> None:
            while time.perf_counter() < end:
                index = rng.randrange(len(self.requests))
                outcome = Outcome(index, self._next_trace_id(), due=time.perf_counter())
                phase.outcomes.append(outcome)
                await self._send(outcome)

        start = time.perf_counter()
        await asyncio.gather(*(sender() for _ in range(connections)))
        phase.duration_s = time.perf_counter() - start
        return phase
