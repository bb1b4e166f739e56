"""The ``service`` workload: one ``repro-serve`` node under open-loop load.

The node runs in its own process with one worker and a disk cache tier in
the run's scratch directory.  The load generator is one asyncio process with
``CONNECTIONS`` connections.  Requests arrive as a seeded Poisson process at
``RATE_PER_S`` and draw their problem from a seeded Zipf law over the pool
(see :func:`workloads.build_service_pool`).  A request that finds every
connection busy waits in a client-side FIFO for its turn; nothing is
dropped.  Latency is measured from the request's *due* time, so a stall
also charges the requests queued behind it, and the generator reports how
late it woke up for each request (its lag).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import PebblingProblem
from repro.core.dag import ComputationalDAG
from repro.obs.metrics import iter_histogram_series, summarise_buckets
from repro.service.client import ServiceClient

from speed import CADENCE_S, WINDOW, Speedometer
from workloads import Item

#: Offered load.  Two connections in a closed loop over first-touch
#: (all-miss) requests reached 22.7 requests/s at the seed commit on a 2-core
#: x86 container, so with a third of requests answered from the cache this
#: mix saturates near 30/s.  At 10/s the single worker is busy about a third
#: of the time: at 18/s (60%) queueing turned run-to-run machine-speed noise
#: of about 10% into a 50% spread of p90 across seeds.
RATE_PER_S = 10.0
#: Zipf exponent of the draw within a stratum.  With 49 problems per
#: heuristic stratum and 195 requests per 20 s run, about one request in
#: three repeats an earlier problem (a cache read), so p50 and p90 stay
#: inside the misses.
ZIPF_S = 1.0
#: Connections of the load generator (one per core of a 2-core box).
CONNECTIONS = 2
#: A calibration slice waits until no request is due for this long (five
#: slices at the reference speed), polling every ``QUIET_POLL_S``.
QUIET_S = 0.02
QUIET_POLL_S = 0.005
#: Seconds allowed for server start, and for draining after the last arrival.
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Request:
    index: int
    item: Item
    due: float
    lag: float = 0.0
    #: Latest calibration slice when the request was due (see :mod:`speed`).
    mark: int = 0
    latency: Optional[float] = None
    cache_hit: bool = False
    result: Any = None
    error: Optional[str] = None


def arrival_plan(pool: Sequence[Item], seed: int, seconds: float) -> List[Request]:
    """About ``RATE_PER_S * seconds`` Poisson arrivals with Zipf-drawn pool items.

    Given their count, the arrival times of a Poisson process are sorted
    uniform draws over the interval.  Requests take the pool's strata (DAG
    size, game, capacity; all trees form one stratum) in turns, in a seeded
    order within each turn, and draw an item of the stratum by a Zipf law
    over a seeded ranking.  So the traffic share of every stratum is the same
    for every seed, and only which problems are hot depends on it.
    """
    rng = np.random.default_rng([seed, 1])
    by_stratum: Dict[str, List[Item]] = {}
    for item in pool:
        by_stratum.setdefault("tree" if item.group.startswith("tree") else item.group, []).append(item)
    strata = [[items[int(i)] for i in rng.permutation(len(items))] for _, items in sorted(by_stratum.items())]
    # whole turns only, so every stratum gets exactly the same request count
    count = len(strata) * max(1, int(round(RATE_PER_S * seconds / len(strata))))
    times = np.sort(rng.uniform(0.0, seconds, size=count))
    plan: List[Request] = []
    turn: List[int] = []
    for i, t in enumerate(times):
        if not turn:
            turn = [int(j) for j in rng.permutation(len(strata))]
        items = strata[turn.pop()]
        weights = 1.0 / np.arange(1, len(items) + 1) ** ZIPF_S
        pick = int(rng.choice(len(items), p=weights / weights.sum()))
        plan.append(Request(i, items[pick], float(t)))
    return plan


@dataclass
class Server:
    proc: asyncio.subprocess.Process
    host: str
    port: int


async def start_server(workdir: str, env: Dict[str, str]) -> Server:
    """Start ``repro-serve`` with one worker and wait until a solve has run."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.service", "serve", "--host", "127.0.0.1", "--port", "0",
        "--workers", "1", "--max-pending", "4096", "--cache-dir", os.path.join(workdir, "cache"),
        stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT, env=env,
    )
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT_S)
        text = line.decode(errors="replace").strip()
        if "listening on" not in text:
            raise RuntimeError(f"repro-serve did not start: {text!r}")
        host, port = text.rsplit(" ", 1)[1].rsplit(":", 1)
        server = Server(proc, host, int(port))
        # one solve outside the pool, so the worker process is up before timing
        warm = PebblingProblem(ComputationalDAG(3, [(0, 1), (1, 2)], name="warm-up"), 2, "prbp")
        async with await ServiceClient.connect(server.host, server.port) as client:
            await asyncio.wait_for(client.solve(warm), START_TIMEOUT_S)
        return server
    except BaseException:
        await stop_server(Server(proc, "", 0), graceful=False)
        raise


async def stop_server(server: Server, graceful: bool = True) -> None:
    """Drain and stop the node; kill it if it does not exit in time."""
    proc = server.proc
    if graceful and proc.returncode is None:
        try:
            async with await ServiceClient.connect(server.host, server.port) as client:
                await asyncio.wait_for(client.shutdown_server(drain=True), 10.0)
        except (OSError, asyncio.TimeoutError, ConnectionError):
            pass
    try:
        await asyncio.wait_for(proc.communicate(), 15.0)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.communicate()
    if proc.returncode is None:
        await proc.wait()


def _tree_pids(pid: int) -> List[int]:
    pids = [pid]
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            for child in handle.read().split():
                pids.extend(_tree_pids(int(child)))
    except OSError:
        pass
    return pids


def peak_rss_mb(pid: int) -> float:
    """Summed peak resident set (VmHWM) of a process and its descendants."""
    total_kb = 0
    for p in _tree_pids(pid):
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


async def drive(server: Server, plan: List[Request], speed: Speedometer, span_hooks: Any = None) -> None:
    """Replay ``plan`` against the node, timing calibration slices alongside.

    A slice blocks the generator's event loop and competes with the node's
    processes for the CPU, so it is taken only when the node is idle: no
    request handed to the FIFO is still unanswered, and the next one is not
    due for ``QUIET_S``.  Server-side work then cannot slow the slices, and
    the slices add no lag or latency to the requests.
    """
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Request]]" = asyncio.Queue()
    clients = [await ServiceClient.connect(server.host, server.port) for _ in range(CONNECTIONS)]
    start = loop.time() + 0.05
    in_flight = 0
    next_due = start + (plan[0].due if plan else 0.0)

    async def produce() -> None:
        nonlocal in_flight, next_due
        for i, req in enumerate(plan):
            delay = start + req.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            req.lag = max(0.0, loop.time() - (start + req.due))
            req.mark = speed.mark()
            in_flight += 1
            next_due = start + plan[i + 1].due if i + 1 < len(plan) else float("inf")
            queue.put_nowait(req)
        for _ in clients:
            queue.put_nowait(None)

    async def consume(client: ServiceClient) -> None:
        nonlocal in_flight
        while True:
            req = await queue.get()
            if req is None:
                return
            token = span_hooks.begin(req) if span_hooks is not None else None
            try:
                req.result, meta = await client.solve_detailed(req.item.problem)
                req.cache_hit = bool(meta.get("cache_hit"))
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                req.error = f"{type(exc).__name__}: {exc}"
            finally:
                if token is not None:
                    span_hooks.end(token)
            req.latency = loop.time() - (start + req.due)
            in_flight -= 1

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(CADENCE_S)
            while in_flight or next_due - loop.time() < QUIET_S:
                await asyncio.sleep(QUIET_POLL_S)
            speed.sample()

    calibrator = asyncio.create_task(calibrate())
    try:
        tasks = [asyncio.create_task(produce())] + [
            asyncio.create_task(consume(c)) for c in clients
        ]
        budget = (plan[-1].due if plan else 0.0) + DRAIN_TIMEOUT_S
        done, pending = await asyncio.wait(tasks, timeout=budget)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        for req in plan:
            if req.latency is None:
                # charged its full wait, so a stall cannot shorten the latencies
                req.error = req.error or "not answered before the drain timeout"
                req.latency = loop.time() - (start + req.due)
    finally:
        calibrator.cancel()
        await asyncio.gather(calibrator, return_exceptions=True)
        for client in clients:
            await client.close()
    for _ in range(WINDOW):
        speed.sample()


async def node_snapshot(server: Server) -> Dict[str, Any]:
    """The node's metrics registry snapshot, from its public ``metrics`` op."""
    async with await ServiceClient.connect(server.host, server.port) as client:
        return (await client.metrics())["snapshot"]


def _histogram(snapshot: Dict[str, Any], name: str) -> Tuple[List[float], List[int], float]:
    """Bucket bounds, counts and sum of a histogram, merged over its label sets."""
    bounds: List[float] = []
    counts: List[int] = []
    total = 0.0
    for series in iter_histogram_series(snapshot, name):
        buckets = series["buckets"]
        if not bounds:
            bounds = [float(b) for b, _ in buckets[:-1]]
            counts = [0] * len(buckets)
        counts = [a + int(c) for a, (_, c) in zip(counts, buckets)]
        total += float(series["sum"])
    return bounds, counts, total


def node_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Queue wait, worker solve time and dedup joins between two snapshots.

    Taking the difference leaves out the warm-up solve that started the
    worker process during set-up.
    """
    out: Dict[str, float] = {}
    for name, key in (("repro_queue_wait_seconds", "queue_wait"),
                      ("repro_solve_seconds", "worker_solve")):
        bounds, counts, total = _histogram(after, name)
        _, base_counts, base_total = _histogram(before, name)
        if base_counts:
            counts = [a - b for a, b in zip(counts, base_counts)]
            total -= base_total
        summary = summarise_buckets(bounds, counts, total) if bounds else {}
        out[f"{key}_p50_ms"] = 1000.0 * summary.get("p50", 0.0)
        out[f"{key}_p90_ms"] = 1000.0 * summary.get("p90", 0.0)
        out[f"{key}_sum_s"] = total

    def dedup(snapshot: Dict[str, Any]) -> float:
        return sum(
            float(series["value"])
            for series in snapshot.get("repro_jobs_total", {}).get("series", [])
            if series.get("labels", {}).get("event") == "dedup_shared"
        )

    out["dedup_joins"] = dedup(after) - dedup(before)
    return out


def median_ms(values: Sequence[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0

