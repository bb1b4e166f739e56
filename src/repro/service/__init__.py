"""repro.service — the long-running solve daemon and its client.

The library's :func:`repro.api.solve` machinery behind a resident asyncio
TCP server: an admission queue (bounded, priority-ordered, deadline-aware,
with in-flight dedup by problem digest), a worker pool fanning solves over
processes behind one shared persistent :class:`~repro.api.cache.ResultCache`,
and streamed anytime progress — the refiner's improving schedules reach the
client while the solve is still running.

Quick start::

    # terminal 1
    python -m repro.service serve --port 7421 --workers 4

    # terminal 2 (or any client process)
    import asyncio
    from repro.api import PebblingProblem
    from repro.dags import kary_tree_dag
    from repro.service import ServiceClient

    async def main():
        async with await ServiceClient.connect("127.0.0.1", 7421) as client:
            result = await client.solve(PebblingProblem(kary_tree_dag(2, 5), r=3))
            print(result.describe())

    asyncio.run(main())

Everything on the wire is the length-prefixed JSON protocol of
:mod:`repro.service.protocol`; results are replay-validated on receipt, so
a remote solve returns the same bit-identical :class:`~repro.api.result.SolveResult`
a local one would.
"""

from .client import ProgressEvent, ServiceClient, ServiceError, solve_via_service
from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError
from .queue import (
    AdmissionQueue,
    ClientRateLimiter,
    DeadlineExceeded,
    JobState,
    QueueClosed,
    QueueFull,
    ServiceJob,
    TokenBucket,
)
from .router import BackendSpec, HashRing, RouterConfig, SolveRouter
from .server import ServiceConfig, SolveService
from .workers import WorkerPool

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ProgressEvent",
    "ServiceClient",
    "ServiceError",
    "solve_via_service",
    "AdmissionQueue",
    "ClientRateLimiter",
    "DeadlineExceeded",
    "JobState",
    "QueueClosed",
    "QueueFull",
    "ServiceJob",
    "TokenBucket",
    "BackendSpec",
    "HashRing",
    "RouterConfig",
    "SolveRouter",
    "ServiceConfig",
    "SolveService",
    "WorkerPool",
]
