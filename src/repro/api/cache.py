"""Content-addressed result cache for solved pebbling problems.

:class:`ResultCache` stores validated :class:`~repro.api.result.SolveResult`
objects keyed by :func:`problem_digest` — a SHA-256 over everything that can
influence a ``solve()`` call: the DAG's exact content (numbering, edge
order, labels — which determines its canonical form, see
:mod:`repro.core.canonical`), the family tag, capacity, game, variant, the
requested solver and its options, and a cache format version.  Two calls
with equal digests are therefore guaranteed to produce identical results,
which is what lets :func:`repro.api.solve_many` return cached entries in
place of fresh solves without weakening its serial-equivalence contract.

Entries live in a bounded in-memory LRU and, when a directory is configured,
on disk as ``<dir>/<digest[:2]>/<digest>.pkl``.  Since format version 3 the
schedule inside a disk entry is stored in the columnar interchange form of
:mod:`repro.core.schedule_ir` (packed ``op``/``node``/``arg`` arrays) rather
than as a pickled list of Move objects.  Disk entries are written atomically
and carry a payload checksum; on read the checksum is verified, the pickle
is loaded defensively, the stored problem is compared against the requested
one, the columns are decoded, and (by default) the schedule is replayed
through the scalar replay kernel.  Anything that fails — truncation,
bit flips, stale pickles from another library version, old-format entries,
digest collisions — counts as *corrupt*: the entry is deleted and the
caller falls back to recomputation.  A cache can slow a run down, but it
can never change an answer.

Invalidation: digests include :data:`CACHE_FORMAT_VERSION` and the installed
``repro-prbp`` version, so upgrading either abandons old entries in place
(delete the directory to reclaim the space).  Point ``REPRO_CACHE_DIR`` at a
different location to redirect :func:`default_cache_dir`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Optional, Union

from ..core.canonical import dag_digest
from ..core.schedule_ir import (
    ir_digest,
    ir_from_arrays,
    kernel_stats,
    packed_with_digest,
    unpack_arrays,
)
from ..core.strategy import ScheduleStats
from ..obs.metrics import CounterFamily, MetricsRegistry
from .problem import PebblingProblem
from .result import SolveResult

__all__ = [
    "CACHE_FORMAT_VERSION",
    "EPHEMERAL_OPTIONS",
    "WALL_CLOCK_OPTIONS",
    "CacheStats",
    "ResultCache",
    "cacheable_options",
    "default_cache_dir",
    "problem_digest",
]

#: Bumped whenever the digest inputs or the on-disk layout change shape.
#: v3: disk entries carry the schedule as packed schedule-IR columns and are
#: re-verified through the replay kernel on read.
CACHE_FORMAT_VERSION = 3

#: Solver options that are wall-clock budgets.  They never enter the content
#: digest — a digest must identify the *deterministic* inputs of a solve,
#: and a wall-clock budget is not one: the same budget yields different
#: schedules on different machines (or under different load), so including
#: it would let two runs share a digest while disagreeing on cost-bearing
#: fields.  For the same reason a solve carrying an active wall-clock budget
#: is excluded from caching altogether (see :func:`cacheable_options`).
WALL_CLOCK_OPTIONS = frozenset({"time_budget_s"})

#: Observer-only options that cannot influence the *result* of a solve.
#: ``on_progress`` is a callback receiving anytime-progress events; two
#: solves differing only in it return identical results, so it enters
#: neither the digest nor the cacheability decision (its ``repr`` is also a
#: memory address, which would make every digest spuriously unique).
EPHEMERAL_OPTIONS = frozenset({"on_progress"})


def cacheable_options(options: Optional[Mapping[str, object]]) -> bool:
    """True iff a solve with these options has a deterministic, cacheable result.

    A solve driven by an active wall-clock budget (``time_budget_s``) can
    legitimately return different schedules run to run, so neither serving
    it from a cache nor storing it is sound.  Step budgets and RNG seeds are
    deterministic and stay cacheable (and digested).
    """
    if not options:
        return True
    return not any(options.get(key) is not None for key in WALL_CLOCK_OPTIONS)

#: Environment variable overriding :func:`default_cache_dir`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@lru_cache(maxsize=1)
def _library_version() -> str:
    # memoized: importlib.metadata scans installed distributions on disk,
    # and problem_digest calls this once per problem per batch
    try:
        from importlib.metadata import version

        return version("repro-prbp")
    except Exception:
        return "unknown"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-prbp``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-prbp"


def problem_digest(
    problem: PebblingProblem,
    solver: str = "auto",
    options: Optional[Mapping[str, object]] = None,
) -> str:
    """Hex SHA-256 identifying one ``solve(problem, solver, **options)`` call.

    Everything observable by a solver goes in: the exact DAG digest (via
    :func:`repro.core.canonical.dag_digest`), the family tag, the
    capacity/game/variant triple, the requested solver name, the options with
    keys sorted, and the cache format + library versions.  Option values are
    hashed through ``repr`` — solver options are plain scalars today, and a
    custom option type only risks a spurious miss, never a false hit, as long
    as its ``repr`` reflects its value.

    Wall-clock budget options (:data:`WALL_CLOCK_OPTIONS`) are deliberately
    *excluded*: they do not deterministically identify a result, so the
    digest covers budget-insensitive identity only and the batch layer
    additionally refuses to cache wall-clock-budgeted solves at all.
    """
    fam = problem.dag.family
    digested = {
        key: value
        for key, value in (options or {}).items()
        if key not in WALL_CLOCK_OPTIONS and key not in EPHEMERAL_OPTIONS
    }
    h = hashlib.sha256()
    h.update(
        repr(
            (
                CACHE_FORMAT_VERSION,
                _library_version(),
                dag_digest(problem.dag),
                None if fam is None else (fam.name, fam.params),
                problem.r,
                problem.game,
                problem.variant,
                solver,
                tuple(sorted(digested.items(), key=lambda kv: kv[0])),
            )
        ).encode()
    )
    return h.hexdigest()


@dataclass
class CacheStats:
    """Mutable counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    io_errors: int = 0
    evicted: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "evicted": self.evicted,
        }


@dataclass
class ResultCache:
    """Two-level (memory LRU + optional disk) cache of solve results.

    Parameters
    ----------
    directory:
        Root of the on-disk store; ``None`` keeps the cache memory-only.
        Created on first write.
    max_memory_entries:
        Bound on the in-memory LRU (oldest entries are evicted first).
    max_disk_bytes:
        Optional cap on the total size of the on-disk tier.  After every
        disk write the store is pruned *least-recently-used-first* until it
        fits under the cap — the policy a long-running daemon needs, since
        the disk tier otherwise grows one pickle per distinct problem
        forever.  Recency is tracked in the entry's mtime: every successful
        disk read touches the file, so a constantly-hit hot entry survives
        prunes that evict never-read colder ones (without the touch,
        eviction would silently degrade to FIFO by write time).
        ``None`` (the default) keeps the historical unbounded behaviour.
        A cap smaller than a single entry prunes that entry too: the cache
        degrades to memory-only rather than overshooting its budget.
        Several processes (e.g. the solve nodes of a cluster) may share one
        directory: a file another process pruned between this process's
        scan and its own delete is treated as already pruned, never as an
        error.

    Every disk entry's decoded schedule is replayed through the scalar
    replay kernel before it is served, and its statistics are compared
    against the stored ones — the same "never trust, always replay" policy
    the rest of the library follows.  Memory entries are served as stored;
    they never left the process.
    """

    directory: Optional[Union[str, Path]] = None
    max_memory_entries: int = 1024
    max_disk_bytes: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        self._ops: Optional[CounterFamily] = None
        if self.metrics is not None:
            self._ops = self.metrics.counter(
                "repro_cache_ops_total",
                "Result-cache events by kind (hits are tier-qualified).",
                labels=("event",),
            )
        if self.directory is not None:
            # expanduser so the documented ResultCache(directory="~/.cache/...")
            # reaches the home cache instead of creating a literal "~" dir
            self.directory = Path(self.directory).expanduser()
        self._memory: "OrderedDict[str, SolveResult]" = OrderedDict()
        #: Running size of the disk tier, maintained incrementally so a
        #: capped put() does not rescan the whole store; ``None`` = not yet
        #: measured (first capped write pays one full scan).
        self._disk_total: Optional[int] = None

    def _count(self, event: str) -> None:
        """Mirror a CacheStats increment into the metrics registry."""
        if self._ops is not None:
            self._ops.inc(event=event)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def get(self, problem: PebblingProblem, digest: str) -> Optional[SolveResult]:
        """The cached result for ``digest``, or ``None`` (counted as a miss).

        ``problem`` is the instance the caller is about to solve; it is
        compared against the stored entry's problem so that even a SHA-256
        collision (or a forged file) cannot smuggle in a result for a
        different instance.
        """
        cached = self._memory.get(digest)
        if cached is not None:
            self._memory.move_to_end(digest)
            self.stats.hits += 1
            self._count("hit_memory")
            return cached
        if self.directory is not None:
            cached = self._read_disk(problem, digest)
            if cached is not None:
                self._remember(digest, cached)
                self.stats.hits += 1
                self._count("hit_disk")
                return cached
        self.stats.misses += 1
        self._count("miss")
        return None

    def put(self, digest: str, result: SolveResult) -> None:
        """Store a result under its digest (memory always, disk if configured)."""
        self._remember(digest, result)
        self.stats.stores += 1
        self._count("store")
        if self.directory is None:
            return
        try:
            path = self._path(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            doc = self._encode_entry(digest, result)
            payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
            checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
            replaced_size = 0
            if self.max_disk_bytes is not None:
                try:
                    replaced_size = path.stat().st_size  # overwriting an entry
                except OSError:
                    replaced_size = 0
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".pkl")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(checksum + b"\n" + payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if self.max_disk_bytes is not None:
                # keep a running total so the common under-cap put() costs
                # two stat() calls, not a scan of the whole store
                written = len(checksum) + 1 + len(payload)
                if self._disk_total is None:
                    self._disk_total = self.disk_bytes()
                else:
                    self._disk_total += written - replaced_size
                if self._disk_total > int(self.max_disk_bytes):
                    self._prune_disk(int(self.max_disk_bytes))
        except (OSError, pickle.PicklingError):
            self.stats.io_errors += 1  # a cache that cannot write is still a cache
            self._count("io_error")

    def clear(self) -> None:
        """Drop every memory entry and delete every disk entry."""
        self._memory.clear()
        self._disk_total = None  # remeasure lazily after the deletions
        if self.directory is None:
            return
        root = Path(self.directory)
        if not root.exists():
            return
        for sub in root.iterdir():
            if sub.is_dir() and len(sub.name) == 2:
                for entry in sub.glob("*.pkl"):
                    try:
                        entry.unlink()
                    except OSError:
                        self.stats.io_errors += 1
                        self._count("io_error")

    def __len__(self) -> int:
        return len(self._memory)

    def disk_bytes(self) -> int:
        """Total size of the on-disk tier in bytes (0 for a memory-only cache)."""
        return sum(size for _, size, _ in self._disk_entries())

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _path(self, digest: str) -> Path:
        return Path(self.directory) / digest[:2] / f"{digest}.pkl"

    def _remember(self, digest: str, result: SolveResult) -> None:
        self._memory[digest] = result
        self._memory.move_to_end(digest)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def _disk_entries(self) -> "list[tuple[float, int, Path]]":
        """Every on-disk entry as ``(mtime, size, path)``; missing dir -> empty.

        Only ``<2-hex-chars>/<digest>.pkl`` files count — in-flight ``.tmp-*``
        writes and foreign files sharing the directory are never touched.
        """
        if self.directory is None:
            return []
        root = Path(self.directory)
        entries: "list[tuple[float, int, Path]]" = []
        try:
            subdirs = [sub for sub in root.iterdir() if sub.is_dir() and len(sub.name) == 2]
        except OSError:
            return []
        for sub in subdirs:
            try:
                for entry in sub.glob("*.pkl"):
                    if entry.name.startswith(".tmp-"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue  # raced with a concurrent prune/clear
                    entries.append((stat.st_mtime, stat.st_size, entry))
            except OSError:
                continue
        return entries

    def _prune_disk(self, max_disk_bytes: int) -> None:
        """Delete least-recently-used-first until the disk tier fits the cap.

        Reads refresh an entry's mtime (see :meth:`_read_disk`), so mtime
        ascending is recency order, not just write order; path breaks
        same-second ties deterministically.  Scans the store once (the scan
        is also the authoritative recount — the incremental total in
        :meth:`put` can drift if another process shares the directory) and
        leaves ``_disk_total`` exact.

        A file that vanishes between the scan and our unlink was pruned by
        a peer process sharing the directory; its bytes are gone either
        way, so it is accounted as already pruned and the pass continues.
        """
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        # mtime ascending = least recently used; path breaks same-second ties
        for _, size, path in sorted(entries, key=lambda e: (e[0], str(e[2]))):
            if total <= max_disk_bytes:
                break
            try:
                path.unlink()
                self.stats.evicted += 1
                self._count("evicted")
                total -= size
            except FileNotFoundError:
                total -= size  # a peer pruned it first; same outcome
            except OSError:
                self.stats.io_errors += 1
                self._count("io_error")
        self._disk_total = total

    def _discard_corrupt(self, path: Path) -> None:
        self.stats.corrupt += 1
        self._count("corrupt")
        try:
            if self._disk_total is not None:
                try:
                    self._disk_total -= path.stat().st_size
                except OSError:
                    pass
            path.unlink()
        except FileNotFoundError:
            pass  # a peer process already dropped it; nothing left to discard
        except OSError:
            self.stats.io_errors += 1
            self._count("io_error")

    def _encode_entry(self, digest: str, result: SolveResult) -> dict:
        """The v3 on-disk document: the schedule's rows as packed columns."""
        schedule = result.schedule
        arrays, schedule_digest = packed_with_digest(schedule)
        return {
            "format": CACHE_FORMAT_VERSION,
            "digest": digest,
            "problem": result.problem,
            "arrays": arrays,
            "ir_digest": schedule_digest,
            "description": schedule.description,
            "stats": result.stats,
            "solver": result.solver,
            "exact_solver": bool(result.exact_solver),
            "lower_bound": result.lower_bound,
            "lower_bound_source": result.lower_bound_source,
            "solve_stats": result.solve_stats,
        }

    def _decode_entry(self, problem: PebblingProblem, digest: str, doc: object) -> SolveResult:
        """Rebuild a :class:`SolveResult` from a v3 document, verifying as we go.

        Raises on *anything* suspicious — wrong format version (including
        pre-v3 documents that pickled the whole result), digest or problem
        mismatch, malformed columns, and a kernel replay whose statistics
        disagree with the stored ones.  The caller
        converts any raise into corrupt-entry handling.
        """
        if not isinstance(doc, dict):
            raise ValueError("entry payload is not a document")
        if doc.get("format") != CACHE_FORMAT_VERSION or doc.get("digest") != digest:
            raise ValueError("entry does not describe this digest/format")
        stored_problem = doc["problem"]
        if not isinstance(stored_problem, PebblingProblem) or stored_problem != problem:
            raise ValueError("stored problem differs from the requested one")
        op, node, arg = unpack_arrays(doc["arrays"])
        schedule = ir_from_arrays(
            problem.game,
            problem.dag,
            problem.r,
            problem.variant,
            op,
            node,
            arg,
            description=str(doc.get("description", "")),
        )
        if ir_digest(schedule) != doc.get("ir_digest"):
            raise ValueError("schedule columns do not match the stored digest")
        stats = doc["stats"]
        if not isinstance(stats, ScheduleStats):
            raise ValueError("entry carries no replay statistics")
        replayed = kernel_stats(schedule)  # raises on an illegal/incomplete schedule
        if replayed != stats:
            raise ValueError("replayed statistics differ from the stored ones")
        return SolveResult(
            problem=problem,
            schedule=schedule,
            stats=stats,
            solver=str(doc["solver"]),
            exact_solver=bool(doc["exact_solver"]),
            lower_bound=doc["lower_bound"],
            lower_bound_source=str(doc["lower_bound_source"]),
            solve_stats=doc["solve_stats"],
        )

    def _read_disk(self, problem: PebblingProblem, digest: str) -> Optional[SolveResult]:
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # plain miss: the entry does not exist (or is unreadable)
        try:
            checksum, payload = blob.split(b"\n", 1)
            if hashlib.sha256(payload).hexdigest().encode("ascii") != checksum:
                raise ValueError("payload checksum mismatch")
            doc = pickle.loads(payload)
            result = self._decode_entry(problem, digest, doc)
            try:
                # Touch-on-read: the LRU prune orders by mtime, so a served
                # entry must register as recently used or capped eviction
                # degrades to FIFO by write time and hot entries die first.
                os.utime(path)
            except OSError:
                pass  # read-only store / vanished file: serving still works
            return result
        except Exception:
            # Truncation, bit flips, stale pickles from an incompatible
            # version (including pre-v3 whole-result pickles), forged
            # entries: all treated identically — drop the entry and let the
            # caller recompute.
            self._discard_corrupt(path)
            return None
