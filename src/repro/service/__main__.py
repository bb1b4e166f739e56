"""``python -m repro.service`` / ``repro-serve`` — run and talk to the daemon.

Subcommands:

* ``serve`` — run a service in the foreground (SIGINT/SIGTERM drain
  gracefully); prints ``listening on HOST:PORT`` once bound, so wrappers
  can scrape the ephemeral port when started with ``--port 0``.
* ``solve`` — pose one benchmark-registry scenario to a running server;
  ``--stream`` prints the anytime-progress events as they arrive.
* ``ping`` / ``stats`` / ``shutdown`` — client one-liners for operations;
  ``stats --watch N`` polls repeatedly.
* ``metrics`` — print a server's Prometheus-style text exposition (or
  the JSON snapshot with ``--json``).
* ``route`` — run a :class:`~repro.service.router.SolveRouter` in the
  foreground: consistent-hash routing by problem digest over ``--backend``
  solve nodes, with tiered caching, per-client rate limits and failover.

Exit codes: 0 on success; 1 on any failure.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from typing import List, Optional

from .client import ProgressEvent, ServiceClient
from .router import BackendSpec, RouterConfig, SolveRouter
from .server import ServiceConfig, SolveService

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the repro-prbp solve service, or talk to a running one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a solve service in the foreground")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421, help="0 binds an ephemeral port")
    serve.add_argument("--workers", type=int, default=2, metavar="N")
    serve.add_argument("--max-pending", type=int, default=256, metavar="N")
    serve.add_argument(
        "--cache-dir", metavar="PATH", help="disk tier of the shared result cache"
    )
    serve.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep the shared cache memory-only (ignores --cache-dir)",
    )
    serve.add_argument(
        "--max-disk-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="cap the cache's disk tier; least-recently-used entries are pruned first",
    )
    serve.add_argument(
        "--no-processes",
        action="store_true",
        help="solve in threads instead of worker processes",
    )
    serve.add_argument(
        "--trace-file",
        metavar="PATH",
        help="append finished trace spans to PATH as JSON lines",
    )

    for name, help_text in (
        ("ping", "round-trip liveness check"),
        ("stats", "print the server's counters as json"),
        ("shutdown", "ask the server to drain and stop"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--host", default="127.0.0.1")
        cmd.add_argument("--port", type=int, default=7421)
        if name == "shutdown":
            cmd.add_argument(
                "--no-drain", action="store_true", help="abort queued jobs instead of finishing them"
            )
        if name == "stats":
            cmd.add_argument(
                "--watch",
                type=float,
                default=None,
                metavar="SECONDS",
                help="poll repeatedly every SECONDS until interrupted",
            )
            cmd.add_argument(
                "--watch-count",
                type=int,
                default=None,
                metavar="N",
                help="with --watch: stop after N snapshots",
            )

    metrics_cmd = sub.add_parser(
        "metrics", help="print a server's metrics as Prometheus-style text"
    )
    metrics_cmd.add_argument("--host", default="127.0.0.1")
    metrics_cmd.add_argument("--port", type=int, default=7421)
    metrics_cmd.add_argument(
        "--json", action="store_true", help="print the JSON snapshot instead of text"
    )

    solve_cmd = sub.add_parser("solve", help="solve one bench-registry scenario remotely")
    solve_cmd.add_argument("--host", default="127.0.0.1")
    solve_cmd.add_argument("--port", type=int, default=7421)
    solve_cmd.add_argument("--scenario", required=True, metavar="NAME")
    solve_cmd.add_argument("--tier", choices=("quick", "full"), default="quick")
    solve_cmd.add_argument("--solver", default=None, help="override the scenario's solver")
    solve_cmd.add_argument(
        "--stream", action="store_true", help="print anytime-progress events as they arrive"
    )

    route = sub.add_parser("route", help="run a cluster front router in the foreground")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=7420, help="0 binds an ephemeral port")
    route.add_argument(
        "--backend",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a backend solve node (repeat for each node)",
    )
    route.add_argument(
        "--ring-replicas", type=int, default=64, metavar="N", help="virtual nodes per backend"
    )
    route.add_argument(
        "--hot-cache", type=int, default=2048, metavar="N", help="router hot-LRU entries"
    )
    route.add_argument(
        "--max-inflight", type=int, default=512, metavar="N", help="overload shed threshold"
    )
    route.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="R",
        help="per-client token-bucket refill (requests/s); omit for unlimited",
    )
    route.add_argument(
        "--burst", type=float, default=None, metavar="B", help="token-bucket capacity"
    )
    route.add_argument(
        "--no-peer-probe",
        action="store_true",
        help="skip peer cache probes (primary answers or recomputes)",
    )
    route.add_argument(
        "--trace-file",
        metavar="PATH",
        help="append finished trace spans to PATH as JSON lines",
    )
    return parser


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #


def _cmd_serve(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        cache_dir=None if args.no_disk_cache else args.cache_dir,
        max_disk_bytes=args.max_disk_bytes,
        prefer_processes=not args.no_processes,
        trace_file=args.trace_file,
    )

    async def run() -> None:
        service = SolveService(config)
        await service.start()
        host, port = service.address
        print(f"repro-serve listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # e.g. Windows event loops
                loop.add_signal_handler(sig, service.request_shutdown)
        await service.serve_forever()
        print("repro-serve: drained and stopped", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


# --------------------------------------------------------------------------- #
# client one-liners
# --------------------------------------------------------------------------- #


def _cmd_ping(args: argparse.Namespace) -> int:
    async def run() -> int:
        async with await ServiceClient.connect(args.host, args.port) as client:
            doc = await client.ping()
            print(f"pong (protocol v{doc.get('protocol_version')})")
        return 0

    return asyncio.run(run())


def _cmd_stats(args: argparse.Namespace) -> int:
    async def run() -> int:
        async with await ServiceClient.connect(args.host, args.port) as client:
            if args.watch is None:
                print(json.dumps(await client.stats(), indent=2, sort_keys=True))
                return 0
            polls = 0
            while True:
                print(json.dumps(await client.stats(), indent=2, sort_keys=True), flush=True)
                polls += 1
                if args.watch_count is not None and polls >= args.watch_count:
                    return 0
                await asyncio.sleep(max(0.0, args.watch))
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    async def run() -> int:
        async with await ServiceClient.connect(args.host, args.port) as client:
            doc = await client.metrics()
        if args.json:
            print(json.dumps(doc["snapshot"], indent=2, sort_keys=True))
        else:
            print(doc["exposition"], end="")
        return 0

    return asyncio.run(run())


def _cmd_shutdown(args: argparse.Namespace) -> int:
    async def run() -> int:
        async with await ServiceClient.connect(args.host, args.port) as client:
            await client.shutdown_server(drain=not args.no_drain)
            print("shutdown requested" + (" (drain)" if not args.no_drain else " (abort queued)"))
        return 0

    return asyncio.run(run())


def _cmd_solve(args: argparse.Namespace) -> int:
    from ..bench.scenario import materialize_scenario

    problem, solver, options = materialize_scenario(args.scenario, args.tier)
    if args.solver is not None:
        solver = args.solver

    async def run() -> int:
        async with await ServiceClient.connect(args.host, args.port) as client:
            if args.stream:

                def show(event: ProgressEvent) -> None:
                    print(f"  anytime cost {event.cost} at {event.elapsed_s * 1000:.1f} ms", flush=True)

                result, events = await client.solve_stream(
                    problem, solver, on_progress=show, **options
                )
                print(f"{len(events)} progress events")
            else:
                result, meta = await client.solve_detailed(problem, solver, **options)
                if meta["cache_hit"]:
                    print("(answered from the shared cache)")
            print(result.describe())
        return 0

    return asyncio.run(run())


# --------------------------------------------------------------------------- #
# route
# --------------------------------------------------------------------------- #


def _parse_backend(text: str) -> BackendSpec:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: --backend needs HOST:PORT, got {text!r}")
    return BackendSpec(host, int(port))


def _cmd_route(args: argparse.Namespace) -> int:
    config = RouterConfig(
        backends=tuple(_parse_backend(text) for text in args.backend),
        host=args.host,
        port=args.port,
        ring_replicas=args.ring_replicas,
        hot_cache_entries=args.hot_cache,
        max_inflight=args.max_inflight,
        rate_limit_per_s=args.rate_limit,
        rate_limit_burst=args.burst,
        peer_probe=not args.no_peer_probe,
        trace_file=args.trace_file,
    )

    async def run() -> None:
        router = SolveRouter(config)
        await router.start()
        host, port = router.address
        names = ", ".join(spec.name for spec in config.backends)
        print(f"repro-route listening on {host}:{port} over [{names}]", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, router.request_shutdown)
        await router.serve_forever()
        print("repro-route: drained and stopped", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "ping": _cmd_ping,
        "stats": _cmd_stats,
        "metrics": _cmd_metrics,
        "shutdown": _cmd_shutdown,
        "solve": _cmd_solve,
        "route": _cmd_route,
    }
    try:
        return handlers[args.command](args)
    except ConnectionRefusedError:
        print("error: no service is listening on the given host/port", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
