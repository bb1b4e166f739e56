"""One benchmark run, inside a fresh process started by ``run.py``.

Usage (``run.py`` does this; the script is not meant to be run by hand)::

    python3 perfbench/child.py --workload W --seed S --seconds T \\
        --mode {setup,measure,traced} --spawn-time EPOCH --workdir DIR --out FILE \\
        [--trace-file FILE]

``setup`` stops after set-up (imports, DAG generation and, for ``service``,
server and worker start) and reports how long that took from process spawn.
``measure`` also runs the timed workload and then the output check.
``traced`` is ``measure`` with the layer wrappers of :mod:`tracer` installed;
its spans are written to ``--trace-file``.  The run's summary is written as
JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional

import check
import tracer as tracing
import workloads
from speed import CADENCE_S, WINDOW, Speedometer
from workloads import Item


def _quantiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"p50": only, "p90": only}
    return {"p50": statistics.median(values), "p90": statistics.quantiles(values, n=10)[8]}


def _digest(items: List[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(workloads.instance_key(item.problem).encode())
    return h.hexdigest()


class _Totals:
    """Deterministic totals over the answers that passed the output check."""

    def __init__(self) -> None:
        self.good = self.io = self.lb = self.optimal = 0

    def add(self, result: Any) -> None:
        self.good += 1
        self.io += result.cost
        self.lb += result.lower_bound or 0
        self.optimal += bool(result.optimal)

    def metrics(self, attempted: int) -> Dict[str, float]:
        return {
            "io_cost_total": self.io,
            "lower_bound_total": self.lb,
            "optimal_fraction": self.optimal / attempted,
            "success_fraction": self.good / attempted,
        }


def _wall_info(throughput: float, raw: List[float], scale: float) -> Dict[str, float]:
    """Unscaled wall-time figures, printed for reference next to the metrics."""
    q = _quantiles(raw)
    return {
        "wall_throughput_per_s": throughput,
        "wall_latency_p50_ms": 1000.0 * q["p50"],
        "wall_latency_p90_ms": 1000.0 * q["p90"],
        "speed_scale": scale,
    }


def run_solves(
    args: argparse.Namespace, items: List[Item], tr: Optional[tracing.Tracer], speed: Speedometer
) -> Dict[str, Any]:
    """Solve every item in order; each answer is checked right after its timed call.

    Checking between calls (outside each call's timed interval) lets every
    schedule be dropped once checked, so memory holds one result at a time.
    Calibration slices run between calls as well (see :mod:`speed`).
    """
    from repro.api import solve

    options = {"budget": workloads.EXACT_BUDGET} if args.workload == "exact" else {}
    uninstall = tracing.install(tr) if tr is not None else None
    latencies: List[float] = []
    marks: List[int] = []
    errors: List[str] = []
    mismatches: List[str] = []
    solvers: Dict[str, int] = {}
    totals = _Totals()
    until_slice = 0.0
    try:
        for item in items:
            if until_slice <= 0.0:
                speed.sample()
                until_slice = CADENCE_S
            token = tracing.set_instance(item.iid) if tr is not None else None
            span = tr.begin("solve") if tr is not None else None
            t0 = time.perf_counter()
            try:
                result = solve(item.problem, **options)
            except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
                result = None
                errors.append(f"{item.iid}: {type(exc).__name__}: {exc}")
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    tr.end(*span)
                    tracing.reset_instance(token)
            until_slice -= elapsed
            # a call that raised still costs its time, so failing fast cannot look faster
            latencies.append(elapsed)
            marks.append(speed.mark())
            if result is None:
                continue
            solvers[result.solver] = solvers.get(result.solver, 0) + 1
            problem = check.check(item, result)
            if problem is None:
                totals.add(result)
            else:
                mismatches.append(problem)
    finally:
        if uninstall is not None:
            uninstall()

    for _ in range(WINDOW):
        speed.sample()
    scaled = [t * speed.factor(m) for t, m in zip(latencies, marks)]
    attempted = len(items)
    busy = sum(scaled)
    raw_busy = sum(latencies)
    q = _quantiles(scaled)
    out = {
        "attempted": attempted,
        "failed": attempted - totals.good,
        "errors": errors[:20],
        "mismatches": mismatches[:20],
        "busy_s": busy,
        "samples": len(latencies),
        "metrics": {
            "throughput_per_s": totals.good / busy if busy > 0 else 0.0,
            "latency_p50_ms": 1000.0 * q["p50"],
            "latency_p90_ms": 1000.0 * q["p90"],
            **totals.metrics(attempted),
        },
        "info": {
            "solvers": solvers,
            "repeat_share": sum(i.repeat for i in items) / attempted,
            **_wall_info(
                totals.good / raw_busy if raw_busy > 0 else 0.0,
                latencies,
                busy / raw_busy if raw_busy > 0 else 1.0,
            ),
        },
    }
    if tr is not None:
        out["layers"] = tracing.layer_metrics(tr, len(latencies))
    return out


def _stamp_setup(out: Dict[str, Any], spawn_time: float) -> Speedometer:
    """Record set-up time, raw and scaled by the slices timed right after it."""
    wall = time.time() - spawn_time
    speed = Speedometer()
    out["wall_setup_s"] = wall
    out["setup_s"] = wall * speed.factor(speed.mark())
    return speed


class _RequestSpans:
    """Root span per service request, carrying its pool item as instance id."""

    def __init__(self, tr: tracing.Tracer) -> None:
        self.tr = tr

    def begin(self, req: Any) -> tuple:
        instance = tracing.set_instance(req.item.iid)
        return self.tr.begin("service.request"), instance

    def end(self, token: tuple) -> None:
        (span, span_token), instance = token
        self.tr.end(span, span_token)
        tracing.reset_instance(instance)


async def run_service(args: argparse.Namespace, pool: List[Item], env: Dict[str, str],
                      tr: Optional[tracing.Tracer], spawn_time: float, out: Dict[str, Any]) -> None:
    import service_load as sl

    server = await sl.start_server(args.workdir, env)
    speed = _stamp_setup(out, spawn_time)
    try:
        if args.mode == "setup":
            return
        plan = sl.arrival_plan(pool, args.seed, args.seconds)
        before = await sl.node_snapshot(server)
        uninstall = tracing.install(tr, service_client=True) if tr is not None else None
        try:
            await sl.drive(server, plan, speed, _RequestSpans(tr) if tr is not None else None)
        finally:
            if uninstall is not None:
                uninstall()
        node = sl.node_metrics(before, await sl.node_snapshot(server))
        rss = sl.peak_rss_mb(server.proc.pid)
    finally:
        await sl.stop_server(server)

    # ---- untimed: independent output check, once per distinct pool item ----
    errors: List[str] = [f"request {r.index} ({r.item.iid}): {r.error}" for r in plan if r.error]
    mismatches: List[str] = []
    first: Dict[str, Any] = {}
    bad: set = set()
    for req in plan:
        if req.result is None:
            continue
        seen = first.get(req.item.iid)
        if seen is None:
            first[req.item.iid] = req.result
            problem = check.check(req.item, req.result)
            if problem is not None:
                mismatches.append(problem)
                bad.add(req.item.iid)
        elif seen.cost != req.result.cost or len(seen.schedule.moves) != len(req.result.schedule.moves):
            mismatches.append(f"request {req.index} ({req.item.iid}): answer differs from the first one")
            bad.add(f"#{req.index}")
    totals = _Totals()
    for r in plan:
        if r.result is not None and r.item.iid not in bad and f"#{r.index}" not in bad:
            totals.add(r.result)
    attempted = max(1, len(plan))
    # every request has a latency, also one that failed or timed out
    raw = [r.latency for r in plan]
    latencies = [r.latency * speed.factor(r.mark) for r in plan]
    answered = [r for r in plan if r.result is not None]
    hits = [r.latency * speed.factor(r.mark) for r in answered if r.cache_hit]
    misses = [r.latency * speed.factor(r.mark) for r in answered if not r.cache_hit]
    q = _quantiles(latencies)
    scale = sum(latencies) / sum(raw) if raw else 1.0
    worker_s = node["worker_solve_sum_s"] * scale
    wall_throughput = totals.good / node["worker_solve_sum_s"] if node["worker_solve_sum_s"] > 0 else 0.0
    out.update({
        "attempted": len(plan),
        "failed": len(plan) - totals.good,
        "errors": errors[:20],
        "mismatches": mismatches[:20],
        "busy_s": sum(latencies),
        "samples": len(latencies),
        "metrics": {
            "throughput_per_s": totals.good / worker_s if worker_s > 0 else 0.0,
            "latency_p50_ms": 1000.0 * q["p50"],
            "latency_p90_ms": 1000.0 * q["p90"],
            **totals.metrics(attempted),
            "peak_rss_mb": rss,
        },
        "info": {
            "requests": len(plan),
            "offered_rate_per_s": sl.RATE_PER_S,
            "hit_share": len(hits) / attempted,
            "distinct_problems": len(first),
            "pool_size": len(pool),
            "worker_busy_s": node["worker_solve_sum_s"],
            "calibration_slices": len(speed.samples),
            **_wall_info(wall_throughput, raw, scale),
        },
    })
    if tr is not None:
        c = tr.counters
        out["layers"] = {
            "service.hit_fraction": len(hits) / attempted,
            "service.hit_latency_p50_ms": sl.median_ms(hits),
            "service.miss_latency_p50_ms": sl.median_ms(misses),
            "service.queue_wait_p50_ms": node["queue_wait_p50_ms"],
            "service.queue_wait_p90_ms": node["queue_wait_p90_ms"],
            "service.worker_solve_p50_ms": node["worker_solve_p50_ms"],
            "service.worker_solve_p90_ms": node["worker_solve_p90_ms"],
            "service.dedup_joins": node["dedup_joins"],
            "protocol.request_bytes": c["protocol.request_bytes"] / max(1.0, c["protocol.request_frames"]),
            "protocol.response_bytes": c["protocol.response_bytes"] / max(1.0, c["protocol.response_frames"]),
            "protocol.client_codec_s": tr.self_times().get("protocol.codec", 0.0),
            "loadgen.lag_p90_ms": 1000.0 * _quantiles([r.lag for r in plan])["p90"],
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    out: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    tr = tracing.Tracer() if args.mode == "traced" else None
    t0 = time.perf_counter()
    if args.workload == "service":
        items = workloads.build_service_pool(args.seed)
    else:
        items = workloads.BUILDERS[args.workload](args.seed, args.seconds)
    out["dags_build_s"] = time.perf_counter() - t0
    try:
        if args.workload == "service":
            asyncio.run(run_service(args, items, dict(os.environ), tr, args.spawn_time, out))
        else:
            speed = _stamp_setup(out, args.spawn_time)
            if args.mode != "setup":
                out.update(run_solves(args, items, tr, speed))
                out["metrics"]["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
    except Exception:  # noqa: BLE001 - reported to run.py, which fails the run
        out["crash"] = traceback.format_exc()
    out["digest"] = _digest(items)
    out["groups"] = workloads.describe(items)
    if tr is not None and "layers" in out:
        out["layers"]["dags.build_s"] = out["dags_build_s"]
        tr.write(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 1 if "crash" in out else 0


if __name__ == "__main__":
    raise SystemExit(main())
