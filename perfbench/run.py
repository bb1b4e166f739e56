"""Repository benchmark: solve workloads and one service workload, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``exact``, ``structured``, ``heuristic``,
``service`` (or ``all``, which runs each in turn).  With ``--trace 0`` the
last line of standard output is one JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run
(plus the tracing overhead against an untraced run of the same inputs).  The
lines above it print every metric with its unit and sample count.

Every measurement runs in a fresh process (``child.py``) with the checkout's
``src`` on ``PYTHONPATH``, a private ``REPRO_CACHE_DIR`` under
``.perfbench/`` and no trace or telemetry file sink.  Set-up time is the
median over ``SETUP_SAMPLES`` process starts.  See ``perfbench/README.md``
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

WORKLOADS = ("exact", "structured", "heuristic", "service")

#: Process starts per run that set-up time is the median of.  With 3, ten
#: seeds of the shortest set-up (``exact``, about 0.4 s) spread by 0.24.
SETUP_SAMPLES = 5

#: Upper bound on one child process, so a run always ends well inside 180 s.
CHILD_TIMEOUT_S = 150.0


#: Environment variables that would make a child write outside its run
#: directory or read another run's state.
_SCRUBBED_ENV = ("REPRO_TRACE_FILE", "REPRO_TELEMETRY_FILE", "REPRO_CACHE_DIR")


class BenchmarkError(RuntimeError):
    pass


def load_spec(root: str) -> Dict[str, Dict[str, str]]:
    """Metric name -> unit for the ``end_to_end`` and ``per_layer`` sections."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


class Runner:
    def __init__(self, root: str, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        self.workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}-{workload}")
        self.trace_file = os.path.join(root, ".perfbench", "traces", f"{workload}-seed{seed}.jsonl")
        self.env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=os.path.join(self.workdir, "cache"),
        )
        self.spawned = 0
        self.wall_setups: List[float] = []

    def spawn(self, mode: str) -> Dict[str, Any]:
        """Run one child in its own process group and return its summary."""
        self.spawned += 1
        rundir = os.path.join(self.workdir, f"{self.spawned}-{mode}")
        os.makedirs(rundir)
        out = os.path.join(rundir, "summary.json")
        cmd = [
            sys.executable, self.child, "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--mode", mode, "--workdir", rundir, "--out", out,
        ]
        if mode == "traced":
            os.makedirs(os.path.dirname(self.trace_file), exist_ok=True)
            cmd += ["--trace-file", self.trace_file]
        spawn_time = time.time()
        proc = subprocess.Popen(
            cmd + ["--spawn-time", repr(spawn_time)], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise BenchmarkError(f"{mode} run exceeded {CHILD_TIMEOUT_S:.0f} s")
        finally:
            _kill_group(proc.pid)
        if not os.path.exists(out):
            raise BenchmarkError(f"{mode} run wrote no summary:\n{log.decode(errors='replace')}")
        with open(out, encoding="utf-8") as handle:
            summary = json.load(handle)
        if "crash" in summary:
            raise BenchmarkError(f"{mode} run crashed:\n{summary['crash']}")
        return summary

    def setup_seconds(self, first: Dict[str, Any]) -> List[float]:
        samples = [first["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            summary = self.spawn("setup")
            samples.append(summary["setup_s"])
            self.wall_setups.append(summary["wall_setup_s"])
        return samples

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    """Stop anything the child left behind in its process group (e.g. a server)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    spec = load_spec(root)
    runner = Runner(root, workload, seed, seconds)
    try:
        plain = runner.spawn("measure")
        setups = runner.setup_seconds(plain)
        wall_setups = [plain["wall_setup_s"]] + runner.wall_setups
        traced = runner.spawn("traced") if trace else None
    finally:
        runner.close()

    report = {
        "workload": workload,
        "samples": plain["samples"],
        "instances": plain["attempted"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "errors": plain["errors"],
        "mismatches": plain["mismatches"],
        "info": {**plain.get("info", {}), "instances": plain["groups"], "digest": plain["digest"],
                 "wall_setup_s": statistics.median(wall_setups)},
        "setup_samples": setups,
    }
    measured = dict(plain["metrics"], setup_s=statistics.median(setups))
    report["end_to_end"] = {name: measured[name] for name in spec["end_to_end"]}
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"] if plain["busy_s"] else 0.0
        # layers a workload does not reach report 0
        report["per_layer"] = {name: layers.get(name, 0.0) for name in spec["per_layer"]}
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["errors"] += traced["errors"]
        report["mismatches"] += traced["mismatches"]
        report["trace_file"] = os.path.relpath(runner.trace_file, root)
    return report


def _print_report(report: Dict[str, Any], units: Dict[str, Dict[str, str]]) -> None:
    w = report["workload"]
    n = report["samples"]
    print(f"# workload {w}: {report['attempted']} attempted, {report['failed']} failed")
    counts = {"latency_p50_ms": n, "latency_p90_ms": n, "throughput_per_s": n,
              "setup_s": len(report["setup_samples"]), "peak_rss_mb": 1}
    for name, value in report["end_to_end"].items():
        unit = units["end_to_end"][name]
        print(f"{w:>10}  {name:<34} {value:>14.4f} {unit:<6} n={counts.get(name, report['instances'])}")
    for name, value in report.get("per_layer", {}).items():
        print(f"{w:>10}  {name:<34} {value:>14.4f} {units['per_layer'][name]}")
    print(f"# {w} info: {json.dumps(report['info'], sort_keys=True)}")
    if "trace_file" in report:
        print(f"# {w} spans: {report['trace_file']}")
    for line in report["errors"]:
        print(f"# {w} FAILED: {line}")
    for line in report["mismatches"]:
        print(f"# {w} INCORRECT: {line}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout (src/repro not found)", file=sys.stderr)
        return 2
    units = load_spec(root)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
            _print_report(reports[-1], units)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        for name, value in report[section].items():
            metrics[prefix + name] = {"value": value, "unit": units[section][name]}
    print(json.dumps({
        # a solve or request that raised, was refused or timed out fails the run too
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
