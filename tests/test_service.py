"""Integration tests of the repro.service daemon over real TCP connections.

Every test starts a :class:`~repro.service.SolveService` on an ephemeral
port inside one ``asyncio.run`` and talks to it through the actual client
library — the frames on the wire are the production protocol, not mocks.
The pool runs in thread mode (``prefer_processes=False``) so tests stay
fast and sandbox-safe; the process path is exercised by
``test_a_bad_option_fails_one_job_without_degrading_the_pool`` and shares
all code above the executor.

Slow, uncacheable solves (a ``time_budget_s`` on the anytime refiner) are
the control knob for scheduling tests: they occupy a worker for a known
wall-clock window without touching the cache or the dedup table.
"""

import asyncio
import json
import struct
import threading

import pytest

from repro.api import PebblingProblem, solve
from repro.dags import chained_gadget_dag, figure1_gadget, kary_tree_dag
from repro.dags.random_dags import random_layered_dag
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SolveService,
    WorkerPool,
)
from repro.obs.metrics import parse_exposition
from repro.obs.tracing import Tracer
from repro.service.protocol import PROTOCOL_VERSION, encode_frame, make_request, read_frame


def _mixed_workload():
    """Mixed RBP/PRBP quick-tier problems across solver territories."""
    return [
        PebblingProblem(figure1_gadget(), r=4, game="prbp"),
        PebblingProblem(figure1_gadget(), r=4, game="rbp"),
        PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp"),
        PebblingProblem(kary_tree_dag(3, 3), r=4, game="rbp"),
        PebblingProblem(chained_gadget_dag(8), r=4, game="rbp"),
        PebblingProblem(random_layered_dag((4, 6, 4), 0.3, 3, 0), r=5, game="prbp"),
    ]


#: A solve that holds a worker for ~this many seconds and is never cached
#: (wall-clock budgets are uncacheable by policy), so it cannot interfere
#: with cache/dedup assertions made around it.
SLOW_BUDGET_S = 0.4


def _slow_problem():
    return PebblingProblem(chained_gadget_dag(16), r=4, game="rbp")


def _slow_options():
    return {"solver": "anytime", "time_budget_s": SLOW_BUDGET_S, "seed": 0}


def _run_with_service(fn, **config):
    """Start a service, run ``await fn(service, host, port)``, shut down."""
    config.setdefault("prefer_processes", False)

    async def run():
        service = SolveService(ServiceConfig(port=0, **config))
        await service.start()
        try:
            host, port = service.address
            return await fn(service, host, port)
        finally:
            await service.shutdown(drain=True)

    return asyncio.run(run())


class TestConcurrentClients:
    def test_four_concurrent_clients_match_serial_solves(self):
        """Acceptance: >= 4 clients, mixed quick-tier RBP/PRBP, bit-identical."""
        workload = _mixed_workload()
        serial = [solve(problem) for problem in workload]

        async def client_pass(host, port, offset):
            rotated = workload[offset:] + workload[:offset]
            wanted = serial[offset:] + serial[:offset]
            async with await ServiceClient.connect(host, port) as client:
                for problem, want in zip(rotated, wanted):
                    got = await client.solve(problem)
                    assert got.cost == want.cost
                    assert got.solver == want.solver
                    assert got.exact_solver == want.exact_solver
                    assert got.lower_bound == want.lower_bound
                    assert got.schedule.moves == want.schedule.moves
                    assert got.stats == want.stats

        async def scenario(service, host, port):
            await asyncio.gather(*(client_pass(host, port, i) for i in range(4)))
            stats = service.stats()
            assert stats["jobs"]["completed"] >= len(workload)
            # 4 clients x 6 problems but only 6 distinct solves were needed:
            # the rest were answered by the cache or shared in flight.
            assert stats["jobs"]["completed"] == len(workload)
            assert (
                stats["jobs"]["cache_answers"] + stats["jobs"]["dedup_shared"]
                == 4 * len(workload) - len(workload)
            )

        _run_with_service(scenario, workers=3)

    def test_repeat_requests_hit_the_shared_cache(self):
        workload = _mixed_workload()[:3]

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                for problem in workload:
                    _, meta = await client.solve_detailed(problem)
                    assert meta["cache_hit"] is False
                for problem in workload:
                    _, meta = await client.solve_detailed(problem)
                    assert meta["cache_hit"] is True
                stats = await client.stats()
                assert stats["jobs"]["cache_answers"] == len(workload)
                assert stats["jobs"]["admitted"] == len(workload)

        _run_with_service(scenario)

    def test_disk_cache_survives_a_service_restart(self, tmp_path):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")

        async def first(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                result, meta = await client.solve_detailed(problem)
                assert meta["cache_hit"] is False
                return result

        async def second(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                result, meta = await client.solve_detailed(problem)
                assert meta["cache_hit"] is True, "expected the disk tier to answer"
                assert service.stats()["jobs"]["admitted"] == 0
                return result

        cold = _run_with_service(first, cache_dir=tmp_path)
        warm = _run_with_service(second, cache_dir=tmp_path)
        assert warm.cost == cold.cost and warm.schedule.moves == cold.schedule.moves

    def test_identical_concurrent_requests_share_one_solve(self):
        shared_problem = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as occupier:
                # Pin the single worker so the shared problem stays queued
                # (and in the in-flight table) long enough to be joined.
                await occupier.submit(_slow_problem(), **_slow_options())

                async def one_solve():
                    async with await ServiceClient.connect(host, port) as client:
                        return await client.solve(shared_problem)

                first = asyncio.ensure_future(one_solve())
                await asyncio.sleep(0.05)  # let the first request get admitted
                second = asyncio.ensure_future(one_solve())
                results = await asyncio.gather(first, second)

            assert results[0].cost == results[1].cost
            assert results[0].schedule.moves == results[1].schedule.moves
            stats = service.stats()
            assert stats["jobs"]["dedup_shared"] == 1
            assert stats["jobs"]["cache_answers"] == 0

        _run_with_service(scenario, workers=1)


class TestWorkerPool:
    def test_thread_mode_solves_overlap_and_keep_their_own_telemetry(self):
        problems = {
            10: PebblingProblem(chained_gadget_dag(8), r=4, game="rbp"),
            11: PebblingProblem(kary_tree_dag(2, 4), r=3, game="rbp"),
        }
        started = {seed: threading.Event() for seed in problems}
        pool = WorkerPool(max_workers=2, prefer_processes=False)

        def progress(seed, other):
            def on_progress(cost, elapsed_s):
                if not started[seed].is_set():
                    started[seed].set()
                    # only a solve running side by side can set the other event
                    assert started[other].wait(timeout=10.0)

            return on_progress

        async def run():
            pool.start()
            try:
                return await asyncio.gather(*(
                    pool.run(
                        problem,
                        "anytime",
                        {"seed": seed, "refine_steps": 8},
                        on_progress=progress(seed, other),
                    )
                    for (seed, problem), other in zip(problems.items(), (11, 10))
                ))
            finally:
                pool.shutdown()

        results = asyncio.run(run())
        for seed, result in zip(problems, results):
            assert result.solve_stats.refinement.seed == seed
            assert result.solve_stats.states_expanded is None


class TestStreaming:
    def test_streamed_anytime_progress_is_monotone_and_improving(self):
        """Acceptance: >= 2 strictly improving cost events before the result."""
        problem = _slow_problem()
        options = {"refine_steps": 192, "seed": 0}
        local = solve(problem, **options)

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                seen_live = []
                result, events = await client.solve_stream(
                    problem, on_progress=lambda ev: seen_live.append(ev), **options
                )
            assert events == seen_live
            costs = [event.cost for event in events]
            assert len(costs) >= 3  # the seed event plus >= 2 improvements
            improvements = [c for prev, c in zip(costs, costs[1:]) if c < prev]
            assert len(improvements) >= 2
            assert costs == sorted(costs, reverse=True)
            assert costs[-1] == result.cost
            # The stream is the refinement trajectory of a local solve:
            # same seed cost first, same final cost last.
            trajectory = local.solve_stats.refinement
            assert costs[0] == trajectory.initial_cost
            assert result.cost == local.cost
            assert result.schedule.moves == local.schedule.moves
            assert service.stats()["streamed_events"] == len(events)

        _run_with_service(scenario)

    def test_cache_answered_stream_returns_no_events(self):
        problem = _slow_problem()
        options = {"refine_steps": 96, "seed": 0}

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                fresh, fresh_events = await client.solve_stream(problem, **options)
                assert len(fresh_events) >= 2
                # the repeat is a cache answer: no solve runs, so nothing
                # streams — the documented contract of solve_stream
                cached, cached_events = await client.solve_stream(problem, **options)
            assert cached_events == []
            assert cached.cost == fresh.cost
            assert cached.schedule.moves == fresh.schedule.moves
            assert service.stats()["jobs"]["cache_answers"] == 1

        _run_with_service(scenario)

    def test_two_streaming_clients_get_independent_feeds(self):
        problem = _slow_problem()
        options = {"refine_steps": 96, "seed": 3}

        async def one_stream(host, port):
            async with await ServiceClient.connect(host, port) as client:
                return await client.solve_stream(problem, **options)

        async def scenario(service, host, port):
            (res_a, ev_a), (res_b, ev_b) = await asyncio.gather(
                one_stream(host, port), one_stream(host, port)
            )
            # Streamed requests never dedup (each needs its own event feed),
            # and the refiner is deterministic, so the feeds are equal.
            assert res_a.cost == res_b.cost
            assert [e.cost for e in ev_a] == [e.cost for e in ev_b]
            assert service.stats()["jobs"]["dedup_shared"] == 0
            assert service.stats()["jobs"]["admitted"] == 2

        _run_with_service(scenario, workers=2)


class TestJobs:
    def test_submit_poll_wait_lifecycle(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        want = solve(problem)

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                job_id = await client.submit(problem)
                assert job_id.startswith("job-")
                result = await client.wait(job_id, problem)
                assert result.cost == want.cost
                assert result.schedule.moves == want.schedule.moves
                state, again = await client.poll(job_id, problem)
                assert state == "done" and again is not None

        _run_with_service(scenario)

    def test_submit_of_a_cached_problem_still_returns_a_pollable_job(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                want = await client.solve(problem)  # warms the shared cache
                job_id = await client.submit(problem)  # fast path: cache answer
                state, result = await client.poll(job_id, problem)
                assert state == "done" and result is not None
                assert result.cost == want.cost
                assert result.schedule.moves == want.schedule.moves
                stats = service.stats()
                assert stats["jobs"]["cache_answers"] == 1
                assert stats["jobs"]["admitted"] == 1  # the repeat never queued

        _run_with_service(scenario)

    def test_a_bad_option_fails_one_job_without_degrading_the_pool(self):
        # a non-optimal solve, so the refinement pass (which parses the bad
        # option) actually runs — an optimally solved problem would skip it
        problem = PebblingProblem(chained_gadget_dag(8), r=4, game="rbp")

        async def scenario(service, host, port):
            mode = service.stats()["pool"]["mode"]
            async with await ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as err:
                    # schema-valid (a JSON scalar) but rejected by the solver
                    # machinery: must fail this job only, not the pool
                    await client.solve(problem, refine_steps="not-a-number")
                assert err.value.code == "internal"
                good = await client.solve(problem)
                assert good.cost == solve(problem).cost
            stats = service.stats()
            assert stats["pool"]["mode"] == mode  # no thread-mode degradation
            assert stats["pool"]["fallback_reason"] is None or mode == "thread"

        # run with real worker processes: the regression this pins was the
        # process pool being torn down on a task's own exception
        _run_with_service(scenario, prefer_processes=True)

    def test_polling_an_unknown_job_is_an_error(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as err:
                    await client.poll("job-nope")
                assert err.value.code == "unknown-job"

        _run_with_service(scenario)

    def test_solver_failures_travel_as_solver_error(self):
        infeasible = PebblingProblem(kary_tree_dag(2, 3), r=1, game="prbp")

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as err:
                    await client.solve(infeasible)
                assert err.value.code == "solver-error"
                assert service.stats()["jobs"]["failed"] == 1
                # the connection survives an application-level failure
                assert (await client.ping())["op"] == "pong"

        _run_with_service(scenario)

    def test_queued_job_past_its_deadline_is_expired_unstarted(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.submit(_slow_problem(), **_slow_options())
                with pytest.raises(ServiceError) as err:
                    await client.solve(
                        PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp"),
                        deadline_s=0.05,
                    )
                assert err.value.code == "deadline"
                stats = service.stats()
                assert stats["jobs"]["expired"] == 1
                # the expired job never reached a worker
                assert stats["jobs"]["failed"] == 0

        _run_with_service(scenario, workers=1)

    def test_expired_job_does_not_poison_later_identical_requests(self):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")
        want = solve(problem)

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.submit(_slow_problem(), **_slow_options())
                with pytest.raises(ServiceError) as err:
                    await client.solve(problem, deadline_s=0.05)
                assert err.value.code == "deadline"
                # regression: the expired job must leave the in-flight dedup
                # table, or this identical (deadline-free) request would be
                # answered with the stale deadline error forever
                got = await client.solve(problem)
                assert got.cost == want.cost
                assert got.schedule.moves == want.schedule.moves

        _run_with_service(scenario, workers=1)

    def test_full_queue_turns_requests_away(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.submit(_slow_problem(), **_slow_options())
                await asyncio.sleep(0.1)  # the dispatcher takes it off the queue
                await client.submit(  # fills the single pending slot
                    PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")
                )
                with pytest.raises(ServiceError) as err:
                    await client.solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
                assert err.value.code == "queue-full"
                assert service.stats()["jobs"]["rejected_full"] == 1

        _run_with_service(scenario, workers=1, max_pending=1)

    def test_higher_priority_jobs_dequeue_first(self):
        fast_low = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        fast_high = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.submit(_slow_problem(), **_slow_options())  # pins the worker
                low_id = await client.submit(fast_low, priority=0)
                high_id = await client.submit(fast_high, priority=5)
                await client.wait(high_id, fast_high)
                high_done_order = service._jobs[high_id].finished_at
                await client.wait(low_id, fast_low)
                low_done_order = service._jobs[low_id].finished_at
                assert high_done_order < low_done_order

        _run_with_service(scenario, workers=1)


class TestShutdown:
    def test_graceful_shutdown_drains_queued_jobs(self):
        """Acceptance: shutdown with drain finishes everything admitted."""
        workload = _mixed_workload()[:4]
        serial = [solve(problem) for problem in workload]

        async def client_solve(host, port, problem, want):
            async with await ServiceClient.connect(host, port) as client:
                got = await client.solve(problem)
                assert got.cost == want.cost and got.schedule.moves == want.schedule.moves

        async def scenario(service, host, port):
            solvers = [
                asyncio.ensure_future(client_solve(host, port, problem, want))
                for problem, want in zip(workload, serial)
            ]
            # wait until every request is admitted — a shutdown racing the
            # admissions would (correctly) reject the stragglers, which is
            # not what this test is about
            while service.stats()["jobs"]["admitted"] < len(workload):
                await asyncio.sleep(0.01)
            async with await ServiceClient.connect(host, port) as admin:
                await admin.shutdown_server(drain=True)
            await asyncio.gather(*solvers)  # every in-flight request still answered
            await service.wait_closed()
            stats = service.stats()
            assert stats["jobs"]["completed"] == len(workload)
            assert stats["closing"] is True

        async def run():
            service = SolveService(ServiceConfig(port=0, prefer_processes=False, workers=1))
            await service.start()
            host, port = service.address
            await scenario(service, host, port)

        asyncio.run(run())

    def test_abort_shutdown_fails_queued_jobs(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.submit(_slow_problem(), **_slow_options())  # runs
                queued = asyncio.ensure_future(
                    client.__class__.connect(host, port)
                )
                queued_client = await queued
                waiter = asyncio.ensure_future(
                    queued_client.solve(PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp"))
                )
                await asyncio.sleep(0.05)
                await client.shutdown_server(drain=False)
                with pytest.raises(ServiceError) as err:
                    await waiter
                assert err.value.code == "shutting-down"
                await queued_client.close()
            await service.wait_closed()

        async def run():
            service = SolveService(ServiceConfig(port=0, prefer_processes=False, workers=1))
            await service.start()
            host, port = service.address
            await scenario(service, host, port)

        asyncio.run(run())

    def test_draining_service_refuses_new_work(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                service.request_shutdown(drain=True)
                await asyncio.sleep(0)  # let the shutdown task flip the flag
                with pytest.raises(ServiceError) as err:
                    await client.solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
                assert err.value.code == "shutting-down"
            await service.wait_closed()

        async def run():
            service = SolveService(ServiceConfig(port=0, prefer_processes=False))
            await service.start()
            host, port = service.address
            await scenario(service, host, port)

        asyncio.run(run())


class TestWireRobustness:
    def test_garbage_bytes_get_a_protocol_error_then_hangup(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 12) + b"not-json-at!")
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "error" and doc["code"] == "protocol"
            assert await reader.read() == b""  # server hung up after the error
            writer.close()
            assert service.stats()["protocol_errors"] == 1

        _run_with_service(scenario)

    def test_oversized_length_prefix_closes_the_connection(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 0xFFFFFFF0))
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "error" and doc["code"] == "protocol"
            assert await reader.read() == b""
            writer.close()

        _run_with_service(scenario)

    def test_bad_message_keeps_the_connection_alive(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"v": 1, "op": "warp", "id": "r1"}))
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "error" and doc["code"] == "bad-request"
            assert doc["id"] == "r1"
            # framing stayed synchronized: the next request works
            writer.write(encode_frame(make_request("ping", "r2")))
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "pong" and doc["id"] == "r2"
            writer.close()

        _run_with_service(scenario)

    def test_wrong_protocol_version_is_refused(self):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"v": 999, "op": "ping", "id": "r1"}))
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "error" and doc["code"] == "bad-request"
            assert "version" in doc["error"]
            writer.close()

        _run_with_service(scenario)

    def test_undecodable_problem_is_bad_request_not_a_crash(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                good = PebblingProblem(figure1_gadget(), r=4, game="prbp")
                from repro.service.protocol import problem_to_wire

                doc = problem_to_wire(good)
                doc["dag_digest"] = "f" * 64
                with pytest.raises(ServiceError) as err:
                    await client._roundtrip(
                        "solve", problem=doc, solver="auto", options={}, stream=False, wait=True
                    )
                assert err.value.code == "bad-request"
                assert (await client.ping())["op"] == "pong"

        _run_with_service(scenario)

    def test_client_rejects_mismatched_response_ids(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"v": 1, "op": "pong", "id": "stale"}))
            reader.feed_eof()

            class _NullWriter:
                def write(self, data):
                    pass

                async def drain(self):
                    pass

                def close(self):
                    pass

                async def wait_closed(self):
                    pass

            client = ServiceClient(reader, _NullWriter())
            with pytest.raises(ProtocolError, match="does not match"):
                await client.ping()

        asyncio.run(scenario())


class TestObservability:
    def test_stats_snapshot_shape(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
                stats = await client.stats()
            assert stats["protocol_version"] == PROTOCOL_VERSION
            assert stats["pool"]["mode"] == "thread"
            assert stats["queue"]["max_pending"] == 256
            assert stats["jobs"]["admitted"] == 1
            assert stats["requests"]["solve"] == 1
            assert stats["cache"]["memory_entries"] == 1
            assert stats["connections"]["total"] >= 1

        _run_with_service(scenario)

    def test_metrics_op_exposes_core_series(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
                doc = await client.metrics()
            families = parse_exposition(doc["exposition"])
            assert families["repro_request_latency_seconds"]["type"] == "histogram"
            assert families["repro_requests_total"]["type"] == "counter"
            assert families["repro_queue_depth"]["type"] == "gauge"
            # the solve went through the result cache, so its counter has samples
            assert families["repro_cache_ops_total"]["type"] == "counter"
            assert len(families["repro_cache_ops_total"]["samples"]) >= 1
            assert "repro_request_latency_seconds" in doc["snapshot"]
            # the stats() dict carries the same histograms, summarised
            latency = service.stats()["latency"]["repro_request_latency_seconds"]
            assert latency["count"] >= 1

        _run_with_service(scenario)

    def test_one_trace_id_spans_admission_queue_and_solver(self, tmp_path):
        """Acceptance: request, queue-wait and solver spans stitch under one id."""
        trace_file = tmp_path / "spans.jsonl"
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")

        async def scenario(service, host, port):
            tracer = Tracer(node="client")
            async with await ServiceClient.connect(host, port) as client:
                with tracer.span("client.solve") as span:
                    await client.solve(problem)
            return span.context.trace_id

        trace_id = _run_with_service(scenario, trace_file=trace_file)
        spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
        names = {span["name"] for span in spans if span["trace_id"] == trace_id}
        # the ambient client context crossed the wire: the request span,
        # the retroactive queue-wait span and the solver span all joined it
        assert {"server.solve_request", "queue_wait", "solve_exec"} <= names
        for span in spans:
            if span["trace_id"] == trace_id:
                assert span["node"].startswith("service:")

    def test_cache_can_be_disabled(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                _, first = await client.solve_detailed(problem)
                _, second = await client.solve_detailed(problem)
            assert first["cache_hit"] is False and second["cache_hit"] is False
            stats = service.stats()
            assert stats["cache"] is None
            assert stats["jobs"]["admitted"] == 2

        _run_with_service(scenario, enable_cache=False)


class TestCommandLine:
    """The ``python -m repro.service`` / service-bench entry points."""

    def test_client_subcommands_against_a_live_server(self, capsys):
        import os
        import re
        import subprocess
        import sys

        import repro

        from repro.service.__main__ import main

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--no-processes"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on .*:(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            port = match.group(1)

            assert main(["ping", "--port", port]) == 0
            assert "pong" in capsys.readouterr().out

            assert (
                main(
                    [
                        "solve",
                        "--port",
                        port,
                        "--scenario",
                        "chained-rbp-greedy",
                        "--stream",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "anytime cost" in out and "progress events" in out

            assert main(["stats", "--port", port]) == 0
            assert '"admitted": 1' in capsys.readouterr().out

            assert main(["shutdown", "--port", port]) == 0
            assert "shutdown requested" in capsys.readouterr().out
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_connecting_to_a_dead_port_reports_cleanly(self, capsys):
        from repro.service.__main__ import main

        # bind-and-release: the port exists but nothing listens on it
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["ping", "--port", str(port)]) == 1
        assert "no service is listening" in capsys.readouterr().err

    def test_service_bench_cli_runs_and_reports(self, capsys, tmp_path):
        import json

        from repro.bench.service_bench import main

        out_path = tmp_path / "SERVICE_SLO.json"
        assert (
            main(
                [
                    "--requests",
                    "20",
                    "--rate",
                    "100",
                    "--no-processes",
                    "--scenario",
                    "tree-prbp-critical",
                    "--scenario",
                    "chained-prbp-constant",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "open-loop SLO: 20 requests" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-prbp-service-slo"
        assert doc["accounting_exact"] is True
        assert doc["outcomes"]["failed"] == 0


class TestCacheProbe:
    """cache_only solves: answer from the shared cache or fail typed, never solve."""

    def test_probe_misses_then_hits_after_a_solve(self):
        problem = _mixed_workload()[0]

        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                assert await client.probe(problem) is None  # nothing solved yet
                solved = await client.solve(problem)
                probed = await client.probe(problem)
                assert probed is not None
                assert probed.cost == solved.cost
                assert probed.schedule.moves == solved.schedule.moves
                stats = await client.stats()
                assert stats["jobs"]["probe_misses"] == 1
                assert stats["jobs"]["probe_hits"] == 1
                # the miss did not enqueue a solve: only the real one ran
                assert stats["jobs"]["admitted"] == 1

        _run_with_service(scenario)

    def test_uncacheable_options_always_probe_miss(self):
        async def scenario(service, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(_slow_problem(), **_slow_options())
                # wall-clock budgets are uncacheable, so the probe cannot
                # serve what the solve just computed
                probed = await client.probe(_slow_problem(), "anytime", **{
                    k: v for k, v in _slow_options().items() if k != "solver"
                })
                assert probed is None

        _run_with_service(scenario, workers=1)
