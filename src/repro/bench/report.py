"""Machine-readable BENCH reports: schema-versioned json with env metadata.

The report format is the contract between a benchmark run and everything
downstream of it — the CI artifact, the regression comparator, and any
plotting/tracking tooling.  Layout changes bump :data:`SCHEMA_VERSION`;
:func:`load_report` refuses documents of any other version rather than
mis-reading them, so a baseline is re-recorded whenever the version moves.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Union

from .runner import ScenarioRecord

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "build_report",
    "environment_metadata",
    "write_report",
    "load_report",
    "report_records",
]

#: Identifies the document family (grep-able in artifact stores).
SCHEMA_NAME = "repro-prbp-bench"

#: Bumped on changes to the record or envelope layout.  Version 2 adds the
#: anytime-refinement trajectory fields (``refine_initial_cost``,
#: ``refine_steps``, ``refine_accepted``, ``refine_time_to_best_s``) to every
#: scenario record.  Version 3 adds the replay-throughput microbenchmark
#: fields (``replay_speedup``, ``replay_schedules_per_s``,
#: ``replay_engine_schedules_per_s``).  Version 4 adds ``states_per_s``, the
#: A* states expanded per second of an exhaustive scenario's solve.
SCHEMA_VERSION = 4


def environment_metadata() -> Dict[str, object]:
    """Where the numbers came from: interpreter, platform, cpu count, numpy."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:  # pragma: no cover — numpy is a hard dependency today
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "argv": _portable_argv(sys.argv),
    }


def _portable_argv(argv: Sequence[str]) -> List[str]:
    """``argv`` with ``argv[0]`` relative to the working directory if under it."""
    argv, cwd = list(argv), os.getcwd()
    if argv and os.path.isabs(argv[0]) and os.path.commonpath([cwd, argv[0]]) == cwd:
        argv[0] = os.path.relpath(argv[0], cwd)
    return argv


def build_report(
    records: Sequence[ScenarioRecord],
    tier: str,
    repeats: int = 1,
    jobs: int = 1,
    cache: Optional[object] = None,
) -> Dict[str, object]:
    """Assemble the full report document for a finished suite run.

    ``jobs`` and ``cache`` (a :class:`~repro.api.ResultCache`, or ``None``)
    document *how* the numbers were produced.
    """
    failures = [rec.scenario for rec in records if not rec.ok]
    total_time = sum(rec.wall_time_s or 0.0 for rec in records)
    cache_hits = sum(1 for rec in records if rec.cache_hit)
    now = time.time()
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "created_unix": now,
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        "tier": tier,
        "repeats": repeats,
        "jobs": jobs,
        "cache": None if cache is None else dict(cache.stats.as_dict(), enabled=True),
        "env": environment_metadata(),
        "summary": {
            "scenarios": len(records),
            "failures": len(failures),
            "failed_scenarios": failures,
            "optimal": sum(1 for rec in records if rec.optimal),
            "cache_hits": cache_hits,
            "total_wall_time_s": total_time,
        },
        "scenarios": [rec.to_dict() for rec in records],
    }


def write_report(report: Dict[str, object], path: Union[str, "os.PathLike[str]"]) -> None:
    """Write a report document as pretty-printed json (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_report(path: Union[str, "os.PathLike[str]"]) -> Dict[str, object]:
    """Load and validate a BENCH json document.

    Raises
    ------
    ValueError
        If the file is not a BENCH report (wrong ``schema``), comes from an
        other ``schema_version``, or lacks the ``scenarios`` list.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_NAME:
        raise ValueError(
            f"{path}: not a {SCHEMA_NAME} report "
            f"(schema = {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r})"
        )
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list):
        raise ValueError(f"{path}: malformed report — 'scenarios' must be a list")
    return doc


def report_records(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """The scenario record dicts of a loaded report (empty list if absent)."""
    scenarios = doc.get("scenarios", [])
    return [rec for rec in scenarios if isinstance(rec, dict)]
