"""Service load harness: open-loop throughput and tail latency of the solve daemon.

The scenario registry measures *solves*; this module measures the *service*
around them — what :mod:`repro.service` adds (framing, admission, worker
hand-off, shared-cache lookups, routing).  Requests arrive on a seeded
Poisson process at ``--rate`` req/s whether or not earlier ones finished
(an *open* loop: a closed loop of synchronised clients would slow its
offered rate whenever the service slows down, hiding exactly the overload
behaviour worth measuring).  Latency is measured from each request's
*scheduled* arrival, so scheduler lag counts against the service, not for
it (no coordinated omission).  The workload is sampled per-request from the
scenario mix or — with ``--corpus`` — from a corpus JSONL via the store's
deterministic sampler.

By default one in-process :class:`~repro.service.SolveService` is booted;
``--cluster N`` boots a full in-process cluster (one digest-routing
:class:`~repro.service.router.SolveRouter` over N backends) and the report
then carries the router's shard/cache/failover counters; ``--connect``
drives an already-running node.  The SLO document (p50/p99/p99.9 latency,
goodput, shed rate, exact outcome accounting) can be gated against a
committed baseline with ``--compare`` (exit 2 on regression), which is what
CI does with ``benchmarks/SERVICE_BASELINE.json``.  For in-process
topologies the report also carries an ``attribution`` section splitting
server-side time into queue wait vs. solve execution (merged from every
backend's metrics registry), so a latency regression can be blamed on
admission backlog or on the solves themselves.  Run it as
``python -m repro.bench.service_bench`` (see ``--help``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.problem import PebblingProblem
from .report import environment_metadata
from .scenario import materialize_scenario

__all__ = [
    "SERVICE_SLO_SCHEMA",
    "DEFAULT_WORKLOAD",
    "OpenLoopSample",
    "run_open_loop_benchmark",
    "compare_slo",
    "main",
]

#: Document identifier of the SLO report this module writes.
SERVICE_SLO_SCHEMA = "repro-prbp-service-slo"

#: Error codes that mean "deliberately turned away" rather than "broken".
SHED_CODES = frozenset({"rate-limited", "overloaded", "queue-full", "client-saturated"})

#: Mixed quick-tier workload: both games, both cheap and non-trivial solves,
#: auto-dispatch and specialised solvers — the traffic shape the admission
#: queue and the shared cache exist for.
DEFAULT_WORKLOAD: Tuple[str, ...] = (
    "tree-prbp-critical",
    "tree-rbp-critical",
    "chained-prbp-constant",
    "chained-rbp-greedy",
    "fft-blocked-prbp",
    "matvec-rbp-greedy",
)


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (empty -> 0.0)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _materialise_workload(
    names: Sequence[str], tier: str
) -> List[Tuple[str, PebblingProblem, str, Dict[str, Any]]]:
    return [(name, *materialize_scenario(name, tier)) for name in names]


@dataclass(frozen=True)
class OpenLoopSample:
    """One open-loop request: when it was due, how it ended, how long it took.

    ``latency_s`` is measured from the request's *scheduled* arrival time,
    so time lost to a lagging dispatcher or a saturated connection pool is
    charged to the system under test (the open-loop discipline).
    """

    label: str
    scheduled_s: float
    latency_s: float
    outcome: str  # "ok" | "shed" | "failed"
    code: Optional[str]
    cache_hit: bool
    backend: Optional[str]


def _corpus_workload(
    path: str, sample: int, must: Sequence[str], seed: int
) -> List[Tuple[str, PebblingProblem, str, Dict[str, Any]]]:
    """Deterministically sample ``sample`` corpus instances as workload items."""
    from ..corpus.store import CorpusStore

    with CorpusStore.from_file(path) as store:
        instances = store.sample(sample, seed=seed, must=list(must) or None)
        if not instances:
            raise ValueError(f"corpus {path!r} has no instances matching {list(must)!r}")
        return [
            (f"corpus:{instance.digest[:10]}", instance.problem(), "auto", {})
            for instance in instances
        ]


class _ConnectionPool:
    """Grow-on-demand client pool with a hard cap (the open-loop fuse).

    At the cap, a request is *not* queued — waiting would close the loop —
    it is counted as shed with ``client-saturated``.  Typed service errors
    leave a connection reusable; transport errors discard it.
    """

    def __init__(self, host: str, port: int, limit: int) -> None:
        self.host = host
        self.port = port
        self.limit = limit
        self.free: List[Any] = []
        self.open_count = 0

    async def acquire(self) -> Optional[Any]:
        from ..service.client import ServiceClient

        while self.free:
            client = self.free.pop()
            return client
        if self.open_count >= self.limit:
            return None
        self.open_count += 1
        try:
            return await ServiceClient.connect(self.host, self.port)
        except OSError:
            self.open_count -= 1
            raise

    def release(self, client: Any) -> None:
        self.free.append(client)

    async def discard(self, client: Any) -> None:
        self.open_count -= 1
        await client.close()

    async def close(self) -> None:
        while self.free:
            client = self.free.pop()
            self.open_count -= 1
            await client.close()


async def _fire_one(
    pool: _ConnectionPool,
    label: str,
    problem: PebblingProblem,
    solver: str,
    options: Dict[str, Any],
    scheduled_s: float,
    started_at: float,
    samples: List[OpenLoopSample],
    client_id: str,
) -> None:
    from ..service.client import ServiceError
    from ..service.protocol import ProtocolError

    loop = asyncio.get_running_loop()
    due = started_at + scheduled_s

    def record(outcome: str, code: Optional[str], cache_hit: bool, backend: Optional[str]) -> None:
        samples.append(
            OpenLoopSample(
                label=label,
                scheduled_s=scheduled_s,
                latency_s=loop.time() - due,
                outcome=outcome,
                code=code,
                cache_hit=cache_hit,
                backend=backend,
            )
        )

    try:
        client = await pool.acquire()
    except OSError:
        record("failed", "connect", False, None)
        return
    if client is None:
        record("shed", "client-saturated", False, None)
        return
    try:
        _result, meta = await client.solve_detailed(
            problem, solver, client_id=client_id, **options
        )
        record("ok", None, bool(meta["cache_hit"]), meta.get("backend"))
        pool.release(client)
    except ServiceError as exc:
        record("shed" if exc.code in SHED_CODES else "failed", exc.code, False, None)
        pool.release(client)  # typed errors leave the connection in sync
    except (ConnectionError, ProtocolError, OSError, asyncio.IncompleteReadError) as exc:
        record("failed", type(exc).__name__, False, None)
        await pool.discard(client)


async def _run_open_loop(
    host: str,
    port: int,
    workload: Sequence[Tuple[str, PebblingProblem, str, Dict[str, Any]]],
    requests: int,
    rate: float,
    seed: int,
    max_connections: int,
    client_id: str,
) -> Tuple[List[OpenLoopSample], float]:
    """Drive the open-loop schedule against ``host:port``; returns samples + wall."""
    import random

    rng = random.Random(seed)
    schedule: List[Tuple[float, int]] = []
    clock = 0.0
    for _ in range(requests):
        clock += rng.expovariate(rate)
        schedule.append((clock, rng.randrange(len(workload))))

    pool = _ConnectionPool(host, port, max_connections)
    samples: List[OpenLoopSample] = []
    loop = asyncio.get_running_loop()
    started_at = loop.time()
    tasks: List["asyncio.Task[None]"] = []
    for scheduled_s, pick in schedule:
        delay = started_at + scheduled_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        label, problem, solver, options = workload[pick]
        tasks.append(
            asyncio.create_task(
                _fire_one(
                    pool,
                    label,
                    problem,
                    solver,
                    options,
                    scheduled_s,
                    started_at,
                    samples,
                    client_id,
                )
            )
        )
    if tasks:
        await asyncio.gather(*tasks)
    wall_s = loop.time() - started_at
    await pool.close()
    return samples, wall_s


def _merged_histogram(
    snapshots: Sequence[Dict[str, Any]], name: str
) -> Optional[Dict[str, float]]:
    """Bucket-exact merge of one histogram family across backend registries.

    Every node uses the same default bucket layout; a series with a
    different layout is skipped rather than mis-merged.
    """
    from ..obs.metrics import iter_histogram_series, summarise_buckets

    bounds: Optional[Tuple[float, ...]] = None
    counts: List[int] = []
    total_sum = 0.0
    for snapshot in snapshots:
        for series in iter_histogram_series(snapshot, name):
            series_bounds = tuple(float(b) for b, _ in series["buckets"][:-1])
            series_counts = [int(c) for _, c in series["buckets"]]
            if bounds is None:
                bounds = series_bounds
                counts = [0] * len(series_counts)
            elif series_bounds != bounds:
                continue
            for i, c in enumerate(series_counts):
                counts[i] += c
            total_sum += float(series["sum"])
    if bounds is None or sum(counts) == 0:
        return None
    return summarise_buckets(bounds, counts, total_sum)


def _summarise_open_loop(
    samples: List[OpenLoopSample],
    wall_s: float,
    requests: int,
    rate: float,
    seed: int,
    workload_labels: Sequence[str],
    cluster: Dict[str, Any],
    router_stats: Optional[Dict[str, Any]],
    attribution: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    ok = [sample for sample in samples if sample.outcome == "ok"]
    shed = [sample for sample in samples if sample.outcome == "shed"]
    failed = [sample for sample in samples if sample.outcome == "failed"]
    latencies = sorted(sample.latency_s for sample in ok)
    by_code: Dict[str, int] = {}
    for sample in samples:
        if sample.code is not None:
            by_code[sample.code] = by_code.get(sample.code, 0) + 1
    doc: Dict[str, Any] = {
        "schema": SERVICE_SLO_SCHEMA,
        "schema_version": 1,
        "mode": "open-loop",
        "requests": requests,
        "rate_per_s": rate,
        "seed": seed,
        "workload": list(workload_labels),
        "cluster": cluster,
        "wall_s": wall_s,
        "offered_per_s": (len(samples) / wall_s) if wall_s > 0 else 0.0,
        "outcomes": {"ok": len(ok), "shed": len(shed), "failed": len(failed)},
        "accounting_exact": len(ok) + len(shed) + len(failed) == requests,
        "ok_fraction": (len(ok) / requests) if requests else 0.0,
        "shed_rate": (len(shed) / requests) if requests else 0.0,
        "goodput_per_s": (len(ok) / wall_s) if wall_s > 0 else 0.0,
        "cache_hits": sum(1 for sample in ok if sample.cache_hit),
        "latency_s": {
            "mean": statistics.fmean(latencies) if latencies else 0.0,
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "p999": _percentile(latencies, 0.999),
            "max": latencies[-1] if latencies else 0.0,
        },
        "by_code": by_code,
        "env": environment_metadata(),
    }
    if attribution is not None:
        doc["attribution"] = attribution
    if router_stats is not None:
        doc["router"] = {
            "routing": router_stats["routing"],
            "shed": router_stats["shed"],
            "hot_cache": router_stats["hot_cache"],
            "backends": [
                {key: backend[key] for key in ("name", "alive", "dispatched", "probe_hits")}
                for backend in router_stats["backends"]
            ],
        }
    return doc


async def _open_loop_session(
    workload: Sequence[Tuple[str, PebblingProblem, str, Dict[str, Any]]],
    requests: int,
    rate: float,
    seed: int,
    cluster: int,
    workers: int,
    prefer_processes: bool,
    max_connections: int,
    rate_limit: Optional[float],
    connect: Optional[Tuple[str, int]],
) -> Dict[str, Any]:
    """Boot the target topology (unless ``connect``), drive the load, report."""
    from ..service.router import BackendSpec, RouterConfig, SolveRouter
    from ..service.server import ServiceConfig, SolveService

    backends: List[SolveService] = []
    router: Optional[SolveRouter] = None
    try:
        if connect is not None:
            host, port = connect
            cluster_doc: Dict[str, Any] = {"mode": "external", "target": f"{host}:{port}"}
        elif cluster > 0:
            for _ in range(cluster):
                service = SolveService(
                    ServiceConfig(port=0, workers=workers, prefer_processes=prefer_processes)
                )
                await service.start()
                backends.append(service)
            router = SolveRouter(
                RouterConfig(
                    backends=tuple(BackendSpec(*service.address) for service in backends),
                    rate_limit_per_s=rate_limit,
                )
            )
            await router.start()
            host, port = router.address
            cluster_doc = {"mode": "router", "backends": cluster, "workers": workers}
        else:
            service = SolveService(
                ServiceConfig(port=0, workers=workers, prefer_processes=prefer_processes)
            )
            await service.start()
            backends.append(service)
            host, port = service.address
            cluster_doc = {"mode": "single", "backends": 1, "workers": workers}

        samples, wall_s = await _run_open_loop(
            host,
            port,
            workload,
            requests,
            rate,
            seed,
            max_connections,
            client_id=f"bench-{seed}",
        )
        router_stats = router.stats() if router is not None else None
        backend_snapshots = [service.metrics.snapshot() for service in backends]
    finally:
        if router is not None:
            await router.shutdown()
        for service in backends:
            await service.shutdown(drain=False)

    attribution: Optional[Dict[str, Any]] = None
    if backend_snapshots:
        attribution = {
            "queue_wait_s": _merged_histogram(backend_snapshots, "repro_queue_wait_seconds"),
            "solve_s": _merged_histogram(backend_snapshots, "repro_solve_seconds"),
            "request_s": _merged_histogram(
                backend_snapshots, "repro_request_latency_seconds"
            ),
        }
    return _summarise_open_loop(
        samples,
        wall_s,
        requests,
        rate,
        seed,
        [label for label, _, _, _ in workload],
        cluster_doc,
        router_stats,
        attribution,
    )


def run_open_loop_benchmark(
    requests: int = 1000,
    rate: float = 200.0,
    seed: int = 0,
    cluster: int = 0,
    tier: str = "quick",
    scenarios: Optional[Sequence[str]] = None,
    corpus: Optional[str] = None,
    corpus_sample: int = 8,
    corpus_must: Sequence[str] = (),
    workers: int = 2,
    prefer_processes: bool = True,
    max_connections: int = 256,
    rate_limit: Optional[float] = None,
    connect: Optional[Tuple[str, int]] = None,
) -> Dict[str, Any]:
    """Run the open-loop SLO benchmark and return its report document."""
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0 req/s, got {rate}")
    if corpus is not None:
        workload = _corpus_workload(corpus, corpus_sample, corpus_must, seed)
    else:
        workload = _materialise_workload(
            tuple(scenarios) if scenarios else DEFAULT_WORKLOAD, tier
        )
    return asyncio.run(
        _open_loop_session(
            workload,
            requests,
            rate,
            seed,
            cluster,
            workers,
            prefer_processes,
            max_connections,
            rate_limit,
            connect,
        )
    )


def compare_slo(doc: Dict[str, Any], baseline: Dict[str, Any], threshold: float) -> List[str]:
    """Regressions of ``doc`` against ``baseline``; empty list = pass.

    Sharp gates (no threshold): every request accounted for exactly once,
    and zero *failed* outcomes — shedding under load is policy, failures
    are bugs.  Thresholded gates: the served fraction may not fall below
    ``baseline/threshold`` and p99 latency may not exceed
    ``baseline*threshold`` (``threshold`` ≥ 1; larger = laxer, same
    convention as the scenario registry's ``--compare``).
    """
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    problems: List[str] = []
    if not doc.get("accounting_exact", False):
        outcomes = doc.get("outcomes", {})
        problems.append(
            f"accounting is not exact: {outcomes} does not partition {doc.get('requests')} requests"
        )
    failed = int(doc.get("outcomes", {}).get("failed", 0))
    if failed > 0:
        problems.append(f"{failed} request(s) failed outright (by_code={doc.get('by_code')})")
    ok_fraction = float(doc.get("ok_fraction", 0.0))
    base_ok = float(baseline.get("ok_fraction", 0.0))
    if ok_fraction * threshold < base_ok:
        problems.append(
            f"ok_fraction regressed: {ok_fraction:.4f} vs baseline {base_ok:.4f} "
            f"(threshold x{threshold})"
        )
    p99 = float(doc.get("latency_s", {}).get("p99", 0.0))
    base_p99 = float(baseline.get("latency_s", {}).get("p99", 0.0))
    if base_p99 > 0 and p99 > base_p99 * threshold:
        problems.append(
            f"p99 latency regressed: {p99 * 1000:.2f} ms vs baseline "
            f"{base_p99 * 1000:.2f} ms (threshold x{threshold})"
        )
    return problems


def _print_slo_report(doc: Dict[str, Any]) -> None:
    lat = doc["latency_s"]
    outcomes = doc["outcomes"]
    print(
        f"open-loop SLO: {doc['requests']} requests offered at {doc['rate_per_s']:.0f}/s "
        f"(seed {doc['seed']}, {doc['cluster']['mode']} topology)"
    )
    print(
        f"  outcomes: {outcomes['ok']} ok, {outcomes['shed']} shed, {outcomes['failed']} failed "
        f"(accounting {'exact' if doc['accounting_exact'] else 'BROKEN'})"
    )
    print(
        f"  goodput {doc['goodput_per_s']:.1f}/s  ok {100 * doc['ok_fraction']:.2f}%  "
        f"shed {100 * doc['shed_rate']:.2f}%  cache hits {doc['cache_hits']}"
    )
    print(
        f"  latency: p50 {lat['p50'] * 1000:7.2f} ms  p90 {lat['p90'] * 1000:7.2f} ms  "
        f"p99 {lat['p99'] * 1000:7.2f} ms  p99.9 {lat['p999'] * 1000:7.2f} ms  "
        f"max {lat['max'] * 1000:7.2f} ms"
    )
    if doc.get("by_code"):
        print(f"  by code: {doc['by_code']}")
    if doc.get("attribution"):
        parts = []
        for key, label in (
            ("queue_wait_s", "queue wait"),
            ("solve_s", "solve"),
            ("request_s", "request"),
        ):
            entry = doc["attribution"].get(key)
            if entry:
                parts.append(
                    f"{label} p50 {entry['p50'] * 1000:.2f} ms / "
                    f"p99 {entry['p99'] * 1000:.2f} ms (n={int(entry['count'])})"
                )
        if parts:
            print("  attribution: " + "; ".join(parts))
    if "router" in doc:
        routing = doc["router"]["routing"]
        print(
            f"  router: {routing['dispatched']} dispatched, {routing['hot_hits']} hot hits, "
            f"{routing['primary_probe_hits']} primary + {routing['peer_fetch_hits']} peer "
            f"cache hits, {routing['failovers']} failovers"
        )


def _parse_connect(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: --connect needs HOST:PORT, got {text!r}")
    return host, int(port)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.service_bench",
        description="Measure request throughput and tail latency of the solve service.",
    )
    parser.add_argument("--tier", choices=("quick", "full"), default="quick")
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help=f"override the workload (repeatable) [default: {', '.join(DEFAULT_WORKLOAD)}]",
    )
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument("--no-processes", action="store_true", help="force the thread worker path")
    parser.add_argument("--output", metavar="PATH", help="write the report json to PATH")
    parser.add_argument("--requests", type=int, default=1000, metavar="N")
    parser.add_argument(
        "--rate", type=float, default=200.0, metavar="R", help="offered load in requests/s"
    )
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="boot a router over N in-process backends (0 = single node)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drive an already-running service/router instead of booting one",
    )
    parser.add_argument("--corpus", metavar="PATH", help="sample the workload from a corpus JSONL")
    parser.add_argument("--corpus-sample", type=int, default=8, metavar="K")
    parser.add_argument(
        "--corpus-must", action="append", default=[], metavar="EXPR", help="corpus filter"
    )
    parser.add_argument("--max-connections", type=int, default=256, metavar="N")
    parser.add_argument(
        "--router-rate-limit",
        type=float,
        default=None,
        metavar="R",
        help="per-client token-bucket limit on the booted router",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE", help="gate the SLO report against a baseline json"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        metavar="X",
        help="laxness multiplier for --compare gates (>= 1.0)",
    )
    args = parser.parse_args(argv)

    doc = run_open_loop_benchmark(
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        cluster=args.cluster,
        tier=args.tier,
        scenarios=args.scenario,
        corpus=args.corpus,
        corpus_sample=args.corpus_sample,
        corpus_must=args.corpus_must,
        workers=args.workers,
        prefer_processes=not args.no_processes,
        max_connections=args.max_connections,
        rate_limit=args.router_rate_limit,
        connect=_parse_connect(args.connect) if args.connect else None,
    )
    _print_slo_report(doc)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")
    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = compare_slo(doc, baseline, args.threshold)
        if problems:
            for problem in problems:
                print(f"SLO REGRESSION: {problem}", file=sys.stderr)
            return 2
        print(f"SLO gates passed against {args.compare} (threshold x{args.threshold})")
    elif not doc["accounting_exact"] or doc["outcomes"]["failed"]:
        # even without a baseline, a run that lost or broke requests fails
        print("open-loop run had failed or unaccounted requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
