"""Tests of the cluster front router: hashing, rate limits, tiered cache, failover.

The unit layer (hash ring, token buckets) runs with injected clocks and no
I/O.  The integration layer boots real backends and a real
:class:`~repro.service.SolveRouter` on ephemeral ports inside one
``asyncio.run`` and drives them through the production client — the same
wire frames a deployed cluster would carry.  Thread-mode workers keep the
tests fast and sandbox-safe (the process path shares everything above the
executor).
"""

import asyncio
import contextlib
import json
import struct

import pytest

from repro.api import PebblingProblem, solve
from repro.api.cache import problem_digest
from repro.obs.metrics import parse_exposition
from repro.dags import chained_gadget_dag, figure1_gadget, kary_tree_dag
from repro.service import (
    BackendSpec,
    ClientRateLimiter,
    HashRing,
    RouterConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SolveRouter,
    SolveService,
    TokenBucket,
)
from repro.service.protocol import encode_frame, make_request, read_frame

# --------------------------------------------------------------------------- #
# hash ring
# --------------------------------------------------------------------------- #

NAMES = ("10.0.0.1:7421", "10.0.0.2:7421", "10.0.0.3:7421")


def _digests(count):
    return [
        problem_digest(PebblingProblem(kary_tree_dag(2, 3), r=2 + (i % 4)), solver=f"s{i}")
        for i in range(count)
    ]


class TestHashRing:
    def test_preference_lists_every_backend_exactly_once(self):
        ring = HashRing(NAMES)
        for digest in _digests(20):
            preference = ring.preference(digest)
            assert sorted(preference) == sorted(NAMES)
            assert preference[0] == ring.route(digest)

    def test_routing_is_deterministic_across_instances(self):
        a, b = HashRing(NAMES), HashRing(tuple(NAMES))
        for digest in _digests(50):
            assert a.preference(digest) == b.preference(digest)

    def test_load_spreads_over_all_backends(self):
        ring = HashRing(NAMES, replicas=64)
        counts = {name: 0 for name in NAMES}
        for digest in _digests(300):
            counts[ring.route(digest)] += 1
        # 300 keys over 3 nodes: every node owns a real share, not a sliver
        assert all(count >= 30 for count in counts.values()), counts

    def test_removing_a_backend_only_remaps_its_own_keys(self):
        full = HashRing(NAMES)
        reduced = HashRing(NAMES[:2])
        for digest in _digests(200):
            primary = full.route(digest)
            if primary in NAMES[:2]:
                # keys NOT owned by the removed node must not move
                assert reduced.route(digest) == primary

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(())
        with pytest.raises(ValueError):
            HashRing(("a", "a"))
        with pytest.raises(ValueError):
            HashRing(("a",), replicas=0)


# --------------------------------------------------------------------------- #
# token bucket / client rate limiter (injected clocks, no I/O)
# --------------------------------------------------------------------------- #


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = _Clock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_continuous_refill_admits_rate_in_steady_state(self):
        clock = _Clock()
        # 0.125 is binary-exact, so each step refills exactly one token
        bucket = TokenBucket(rate=8.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        admitted = 0
        for _ in range(80):  # 10 seconds at 8 req/s offered every 125ms
            clock.now += 0.125
            admitted += bucket.try_acquire()
        assert admitted == 80  # rate matches exactly: fractions accumulate

    def test_refill_caps_at_burst(self):
        clock = _Clock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.now += 60.0
        assert bucket.tokens == pytest.approx(2.0)

    def test_denied_request_does_not_debit(self):
        clock = _Clock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        before = bucket.tokens
        assert not bucket.try_acquire()
        assert bucket.tokens == pytest.approx(before)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestClientRateLimiter:
    def test_disabled_limiter_always_allows_and_tracks_nothing(self):
        limiter = ClientRateLimiter(None)
        assert all(limiter.allow("x") for _ in range(1000))
        assert len(limiter) == 0
        assert limiter.rejected == 0

    def test_clients_get_independent_buckets(self):
        clock = _Clock()
        limiter = ClientRateLimiter(1.0, burst=1.0, clock=clock)
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")  # b's bucket is untouched by a's burn
        assert limiter.rejected == 1

    def test_lru_turnover_bounds_the_table(self):
        clock = _Clock()
        limiter = ClientRateLimiter(1.0, burst=1.0, max_clients=3, clock=clock)
        for name in ("a", "b", "c", "d"):
            limiter.allow(name)
        assert len(limiter) == 3
        # "a" was dropped; its next request mints a fresh (full) bucket
        assert limiter.allow("a")


# --------------------------------------------------------------------------- #
# integration: real router over real backends
# --------------------------------------------------------------------------- #


def _run_with_cluster(fn, backends=2, workers=1, router_kwargs=None, backend_kwargs=None):
    """Boot N backends + 1 router, run ``await fn(router, services, host, port)``."""

    async def run():
        services = []
        for _ in range(backends):
            service = SolveService(
                ServiceConfig(
                    port=0, workers=workers, prefer_processes=False, **(backend_kwargs or {})
                )
            )
            await service.start()
            services.append(service)
        router = SolveRouter(
            RouterConfig(
                backends=tuple(BackendSpec(*service.address) for service in services),
                **(router_kwargs or {}),
            )
        )
        await router.start()
        try:
            host, port = router.address
            return await fn(router, services, host, port)
        finally:
            await router.shutdown()
            for service in services:
                with contextlib.suppress(Exception):
                    await service.shutdown(drain=False)

    return asyncio.run(run())


def _workload():
    return [
        PebblingProblem(figure1_gadget(), r=4, game="prbp"),
        PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp"),
        PebblingProblem(kary_tree_dag(3, 3), r=4, game="rbp"),
        PebblingProblem(chained_gadget_dag(8), r=4, game="rbp"),
    ]


#: Occupies a worker for a known window; wall-clock budgets are uncacheable,
#: so these requests always dispatch (no cache tier can answer them).
SLOW_BUDGET_S = 0.4


def _slow_problem():
    return PebblingProblem(chained_gadget_dag(16), r=4, game="rbp")


def _slow_kwargs():
    return {"solver": "anytime", "time_budget_s": SLOW_BUDGET_S, "seed": 0}


def _problem_with_primary(ring, primary, exclude=(), solver="auto", options=None):
    """A problem whose ring primary is ``primary`` (deterministic scan)."""
    for arity in (2, 3):
        for depth in (3, 4, 5):
            for r in (2, 3, 4, 5):
                problem = PebblingProblem(kary_tree_dag(arity, depth), r=r)
                digest = problem_digest(problem, solver=solver, options=options or {})
                if digest not in exclude and ring.route(digest) == primary:
                    return problem, digest
    raise AssertionError(f"no scan candidate hashes to {primary}")


class TestRouting:
    def test_requests_land_on_ring_predicted_backends_bit_identically(self):
        workload = _workload()
        local = [solve(problem) for problem in workload]

        async def scenario(router, services, host, port):
            ring = HashRing(tuple(spec.name for spec in router.config.backends))
            async with await ServiceClient.connect(host, port) as client:
                for problem, want in zip(workload, local):
                    got, meta = await client.solve_detailed(problem)
                    assert got.cost == want.cost
                    assert got.schedule.moves == want.schedule.moves
                    digest = problem_digest(problem, solver="auto", options={})
                    assert meta["backend"] == ring.route(digest)
                # same digests again: backends must not change
                for problem in workload:
                    _, meta = await client.solve_detailed(problem)
                    digest = problem_digest(problem, solver="auto", options={})
                    assert meta["backend"] == ring.route(digest)

        _run_with_cluster(scenario, backends=3)

    def test_repeats_hit_hot_lru_without_new_dispatch(self):
        workload = _workload()[:2]

        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                for problem in workload:
                    _, meta = await client.solve_detailed(problem)
                    assert meta["cache_hit"] is False
                dispatched = router.stats()["routing"]["dispatched"]
                for problem in workload:
                    _, meta = await client.solve_detailed(problem)
                    assert meta["cache_hit"] is True
                stats = router.stats()
                assert stats["routing"]["hot_hits"] >= len(workload)
                assert stats["routing"]["dispatched"] == dispatched

        _run_with_cluster(scenario, backends=2)

    def test_peer_fetch_serves_from_non_primary_cache(self):
        async def scenario(router, services, host, port):
            names = tuple(spec.name for spec in router.config.backends)
            ring = HashRing(names)
            by_name = dict(zip(names, services))
            problem, digest = _problem_with_primary(ring, names[0])
            donor_name = ring.preference(digest)[1]
            async with await ServiceClient.connect(*by_name[donor_name].address) as direct:
                seeded = await direct.solve(problem)
            async with await ServiceClient.connect(host, port) as client:
                got, meta = await client.solve_detailed(problem)
            assert got.cost == seeded.cost
            assert meta["cache_hit"] is True
            assert meta["backend"] == donor_name
            stats = router.stats()
            assert stats["routing"]["peer_fetch_hits"] == 1
            assert stats["routing"]["dispatched"] == 0  # the recompute was avoided

        _run_with_cluster(scenario, backends=3)

    def test_streamed_solve_routes_with_progress_events(self):
        problem = _slow_problem()

        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                result, events = await client.solve_stream(
                    problem, "anytime", time_budget_s=SLOW_BUDGET_S, seed=0
                )
            assert events, "streamed solve through the router pushed no events"
            costs = [event.cost for event in events]
            assert costs == sorted(costs, reverse=True)
            assert result.cost == costs[-1]

        _run_with_cluster(scenario, backends=2)

    def test_submit_and_poll_roundtrip_through_router(self):
        problem = _workload()[0]
        want = solve(problem)

        async def scenario(router, services, host, port):
            names = {spec.name for spec in router.config.backends}
            async with await ServiceClient.connect(host, port) as client:
                job_id = await client.submit(problem)
                backend_name, _, inner = job_id.partition("/")
                assert backend_name in names and inner
                got = await client.wait(job_id, problem)
                assert got.cost == want.cost
                with pytest.raises(ServiceError) as err:
                    await client.poll("nonsense-job-id")
                assert err.value.code == "unknown-job"

        _run_with_cluster(scenario, backends=2)

    def test_probe_through_router_misses_then_hits(self):
        problem = _workload()[1]

        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                assert await client.probe(problem) is None
                solved = await client.solve(problem)
                probed = await client.probe(problem)
                assert probed is not None and probed.cost == solved.cost

        _run_with_cluster(scenario, backends=2)


class TestAdmissionDefence:
    def test_rate_limited_client_is_shed_with_typed_error(self):
        problem = _workload()[0]

        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(problem, client_id="hammer")
                with pytest.raises(ServiceError) as err:
                    await client.solve(problem, client_id="hammer")
                assert err.value.code == "rate-limited"
                stats = router.stats()
                assert stats["shed"]["rate_limited"] == 1
                assert stats["rate_limit"]["rejected"] == 1

        _run_with_cluster(
            scenario,
            backends=2,
            router_kwargs={"rate_limit_per_s": 0.001, "rate_limit_burst": 1},
        )

    def test_overload_is_shed_with_typed_error(self):
        async def scenario(router, services, host, port):
            async def slow():
                async with await ServiceClient.connect(host, port) as client:
                    return await client.solve(_slow_problem(), **_slow_kwargs())

            async def quick_after_delay():
                await asyncio.sleep(SLOW_BUDGET_S / 4)  # land while slow() is in flight
                async with await ServiceClient.connect(host, port) as client:
                    return await client.solve(_workload()[0])

            results = await asyncio.gather(slow(), quick_after_delay(), return_exceptions=True)
            codes = [r.code for r in results if isinstance(r, ServiceError)]
            assert codes == ["overloaded"]
            assert router.stats()["shed"]["overloaded"] == 1

        _run_with_cluster(scenario, backends=2, router_kwargs={"max_inflight": 1})

    def test_deadline_expiry_under_load_relays_typed_error(self):
        """A queued request whose deadline passes is expired, not solved late."""

        async def scenario(router, services, host, port):
            async def occupy():
                async with await ServiceClient.connect(host, port) as client:
                    return await client.solve(_slow_problem(), **_slow_kwargs())

            async def doomed():
                await asyncio.sleep(SLOW_BUDGET_S / 4)
                async with await ServiceClient.connect(host, port) as client:
                    # uncacheable (wall-clock budget) so no tier can answer it;
                    # the only worker is busy for longer than this deadline
                    return await client.solve(
                        _slow_problem(),
                        "anytime",
                        deadline_s=SLOW_BUDGET_S / 8,
                        time_budget_s=SLOW_BUDGET_S,
                        seed=1,
                    )

            occupied, expired = await asyncio.gather(occupy(), doomed(), return_exceptions=True)
            assert not isinstance(occupied, Exception)
            assert isinstance(expired, ServiceError) and expired.code == "deadline"

        # one backend, one worker: the slow solve saturates the cluster
        _run_with_cluster(scenario, backends=1, workers=1)

    def test_all_backends_down_is_a_typed_no_backend_error(self):
        async def run():
            # nothing listens on this port: every dial fails immediately
            router = SolveRouter(
                RouterConfig(
                    backends=(BackendSpec("127.0.0.1", 1),),
                    failure_threshold=1,
                    cooldown_s=60.0,
                )
            )
            await router.start()
            try:
                host, port = router.address
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceError) as err:
                        await asyncio.wait_for(client.solve(_workload()[0]), timeout=10.0)
                    assert err.value.code == "no-backend"
                assert router.stats()["routing"]["no_backend"] == 1
            finally:
                await router.shutdown()

        asyncio.run(run())


class TestFailover:
    def test_killed_backend_requests_redispatch_or_fail_typed_never_hang(self):
        """Kill one backend: the request that first meets it fails over, and
        its shard's later requests re-dispatch with bit-identical results."""

        async def scenario(router, services, host, port):
            names = tuple(spec.name for spec in router.config.backends)
            ring = HashRing(names)
            victim_name = names[0]
            victim = services[0]

            # fresh problems pinned to the victim's shard, plus mixed others
            exclude = set()
            pinned = []
            for _ in range(2):
                problem, digest = _problem_with_primary(ring, victim_name, exclude)
                exclude.add(digest)
                pinned.append(problem)
            workload = pinned + _workload()[:2]
            local = [solve(problem) for problem in workload]
            # anything solved pre-kill may sit in the router's hot LRU, which
            # (correctly) reports the recording backend even after it dies —
            # keep the post-kill scans away from those digests
            exclude.update(
                problem_digest(problem, solver="auto", options={}) for problem in workload
            )

            async def request(problem):
                async with await ServiceClient.connect(host, port) as client:
                    return await client.solve(problem)

            # phase 1: load over both backends, each shard served by its owner
            outcomes = await asyncio.wait_for(
                asyncio.gather(*(request(problem) for problem in workload)), timeout=30.0
            )
            for outcome, want in zip(outcomes, local):
                assert outcome.cost == want.cost
                assert outcome.schedule.moves == want.schedule.moves

            # phase 2: kill the victim and, while it drains, send one
            # uncacheable request it owns.  No cacheable request runs in this
            # phase, so no probe can find the victim first: this dispatch is
            # the router's first contact with it, and it must fail over to
            # the next ring node
            kill = asyncio.create_task(victim.shutdown(drain=False))
            await asyncio.sleep(0)  # the victim stops admitting before the dispatch
            slow_options = {"time_budget_s": SLOW_BUDGET_S / 4, "seed": 0}
            uncacheable, _ = _problem_with_primary(
                ring, victim_name, solver="anytime", options=slow_options
            )
            async with await ServiceClient.connect(host, port) as client:
                result, meta = await asyncio.wait_for(
                    client.solve_detailed(uncacheable, "anytime", **slow_options), timeout=30.0
                )
            assert result.cost >= 1
            survivors = {name for name in names if name != victim_name}
            assert meta["backend"] in survivors
            assert router.stats()["routing"]["failovers"] >= 1
            await asyncio.wait_for(kill, timeout=30.0)  # the acceptance bar: never hangs

            # phase 3: the victim's whole shard now fails over and cacheable
            # answers are still bit-identical to local solves
            problem, _ = _problem_with_primary(ring, victim_name, exclude)
            want = solve(problem)
            async with await ServiceClient.connect(host, port) as client:
                got, meta = await asyncio.wait_for(
                    client.solve_detailed(problem), timeout=30.0
                )
            assert got.cost == want.cost
            assert got.schedule.moves == want.schedule.moves
            assert meta["backend"] in survivors
            stats = router.stats()
            assert stats["routing"]["failovers"] >= 1
            assert any(not backend["alive"] for backend in stats["backends"])

        _run_with_cluster(
            scenario,
            backends=2,
            workers=2,
            router_kwargs={"failure_threshold": 1, "cooldown_s": 60.0},
        )

    def test_router_metrics_and_cluster_trace_stitch(self, tmp_path):
        """One request leaves one trace covering router tiering and the solve."""
        trace_file = tmp_path / "spans.jsonl"

        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(_workload()[0])
                doc = await client.metrics()
            families = parse_exposition(doc["exposition"])
            assert families["repro_router_requests_total"]["type"] == "counter"
            assert families["repro_router_tier_seconds"]["type"] == "histogram"
            assert router.stats()["latency"]["repro_router_tier_seconds"]["count"] >= 1

        _run_with_cluster(
            scenario,
            backends=2,
            router_kwargs={"trace_file": trace_file},
            backend_kwargs={"trace_file": trace_file},
        )
        traces = {}
        for line in trace_file.read_text().splitlines():
            span = json.loads(line)
            traces.setdefault(span["trace_id"], []).append(span)
        stitched = [
            spans
            for spans in traces.values()
            if {"router.route", "queue_wait", "solve_exec"} <= {s["name"] for s in spans}
        ]
        assert stitched, "no trace covered routing, queue wait and solver execution"
        nodes = {span["node"] for span in stitched[0]}
        assert any(node.startswith("router:") for node in nodes)
        assert any(node.startswith("service:") for node in nodes)

    def test_router_shutdown_refuses_new_work_with_typed_error(self):
        async def scenario(router, services, host, port):
            async with await ServiceClient.connect(host, port) as client:
                await client.solve(_workload()[0])
                router._closing = True  # drain begins: no new admissions
                with pytest.raises(ServiceError) as err:
                    await client.solve(_workload()[1])
                assert err.value.code == "shutting-down"
                router._closing = False  # let the fixture shut down normally

        _run_with_cluster(scenario, backends=2)


class TestWireRobustness:
    """The router serves the same frame loop as a node: same framing rules."""

    def test_garbage_bytes_get_a_protocol_error_then_hangup(self):
        async def scenario(router, services, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", 12) + b"not-json-at!")
            await writer.drain()
            doc = await read_frame(reader)
            assert doc["op"] == "error" and doc["code"] == "protocol"
            assert await reader.read() == b""  # router hung up after the error
            writer.close()
            assert router.stats()["protocol_errors"] == 1

        _run_with_cluster(scenario, backends=1)

    def test_bad_message_keeps_the_connection_alive(self):
        async def scenario(router, services, host, port):
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
            assert doc["role"] == "router"
            writer.close()

        _run_with_cluster(scenario, backends=1)
