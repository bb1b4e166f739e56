"""Schedule IR + replay kernel: engine-equivalent, without Move objects.

A schedule *is* its ``(op, node, arg)`` int rows: ``RBPSchedule`` /
``PRBPSchedule`` hold them together with a small header (DAG, capacity,
game, variant, description).  The row encoding, lossless for both games,
is tabled in :mod:`repro.core.moves`; this module re-exports its op codes
and its Move codec (:func:`encode_moves` / :func:`decode_moves`).

The replay kernel reproduces every legality rule of the engines —
capacity, predecessor availability, one-shot / no-deletion / sliding
variant toggles — and is differentially tested against them move-for-move
(``tests/test_schedule_ir.py``): for any move sequence, legal or not, the
kernel's verdict (first illegal index, I/O at failure, final-state masks,
peak red usage, terminality) is identical to what ``RBPGame`` /
``PRBPGame`` produce.  The semantics stay *defined* by the engines; the
kernel is a proven-equivalent fast path.

Each game has exactly one replay loop over plain int rows (no Move-object
dispatch, no set churn): :func:`replay` runs it over a schedule's rows and
wraps the result into a full :class:`ReplayOutcome`, and
:func:`replay_io_cost` — what the anytime refiner scores every mutation
with — reads only the verdict and the I/O.  A loop can also resume from a
:class:`ReplayState` (made by :func:`start_state`, moved forward by
:func:`advance`), so a mutation that leaves a prefix untouched is scored on
its suffix alone.

The rows, as three ``int32`` columns, are also the interchange format of
the cache and the wire protocol: :func:`pack_arrays` / :func:`unpack_arrays`
implement the shared base64 ``int32`` little-endian codec,
:func:`ir_from_arrays` checks untrusted columns back into a schedule, and
:func:`ir_digest` fingerprints header + columns for round-trip tests
(:func:`packed_with_digest` makes the payload and the fingerprint from one
column build, for the cache's disk store).
"""

from __future__ import annotations

import base64
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from operator import not_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .dag import ComputationalDAG
from .exceptions import IllegalMoveError, IncompletePebblingError
from .moves import (
    OP_CLEAR,
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_NAMES,
    OP_SAVE,
    MoveRow,
    decode_moves,
    encode_moves,
)
from .strategy import PRBPSchedule, RBPSchedule, ScheduleStats
from .variants import GameVariant

__all__ = [
    "OP_LOAD",
    "OP_SAVE",
    "OP_COMPUTE",
    "OP_DELETE",
    "OP_CLEAR",
    "OP_NAMES",
    "MoveRow",
    "ReplayOutcome",
    "encode_moves",
    "decode_moves",
    "replay",
    "replay_io_cost",
    "ReplayState",
    "start_state",
    "advance",
    "kernel_stats",
    "ir_digest",
    "pack_arrays",
    "packed_with_digest",
    "unpack_arrays",
    "ir_from_arrays",
]

Schedule = Union[RBPSchedule, PRBPSchedule]

_SCHEDULE_OF_GAME: Dict[str, Union[Type[RBPSchedule], Type[PRBPSchedule]]] = {
    "rbp": RBPSchedule,
    "prbp": PRBPSchedule,
}


# --------------------------------------------------------------------------- #
# per-DAG derived structures (cached: the refiner replays one DAG thousands
# of times, and rebuilding predecessor tables per replay would dominate)
# --------------------------------------------------------------------------- #


class _DagData:
    """Flat, index-friendly projections of one DAG, shared by both replay loops."""

    __slots__ = (
        "n",
        "m",
        "preds",
        "_in_edges",
        "indeg",
        "outdeg",
        "is_source",
        "is_sink",
        "sinks",
        "edge_index",
        "has_isolated",
    )

    def __init__(self, dag: ComputationalDAG) -> None:
        n = dag.n
        self.n = n
        self.m = dag.m
        # the DAG's own predecessor tuples and (u, v) -> edge id dict, shared
        # rather than copied
        self.preds: Tuple[Tuple[int, ...], ...] = dag._preds
        self.edge_index: Dict[Tuple[int, int], int] = dag._edge_index
        # (u, edge id) of each node's in-edges: _prbp_scalar builds it on the
        # first clear row, which no one-shot schedule has
        self._in_edges: Optional[Tuple[Tuple[Tuple[int, int], ...], ...]] = None
        self.indeg: List[int] = list(map(len, dag._preds))
        self.outdeg: List[int] = list(map(len, dag._succs))
        self.is_source = bytearray(map(not_, dag._preds))
        self.is_sink = bytearray(map(not_, dag._succs))
        self.sinks: Tuple[int, ...] = dag.sinks
        # an isolated node is a source and a sink; a game cannot start on such a
        # DAG, and DAG.validate_no_isolated() (which waives single-node graphs)
        # raises the message when this is set
        self.has_isolated = n > 1 and not set(dag.sources).isdisjoint(dag.sinks)


_DAG_DATA_CACHE: "OrderedDict[int, Tuple[ComputationalDAG, _DagData]]" = OrderedDict()
# Each entry pins its DAG and tables (fft-256: a 1.3 MB DAG, 0.3 MB of
# tables), and every solve's validation replay lands here.  The refiner,
# which is why the cache exists, replays one DAG per solve, so two entries
# keep its hits; at 32, perfbench's structured workload (>2000-node DAGs)
# grew its peak RSS by about a quarter.
_DAG_DATA_CACHE_SIZE = 2
# Guards the LRU: concurrent solves in one process share it, and an eviction
# between another thread's lookup and move_to_end would raise KeyError.
_DAG_DATA_LOCK = threading.Lock()
# The LRU's newest (dag, data) entry, set under the lock on every hit and
# build: a repeat lookup of one DAG (the refiner's thousands) takes no lock
# and pins nothing the LRU does not.
_last_dag_data: Tuple[Optional[ComputationalDAG], Optional[_DagData]] = (None, None)


def _dag_data(dag: ComputationalDAG) -> _DagData:
    global _last_dag_data
    last_dag, last_data = _last_dag_data
    if last_dag is dag:
        return last_data  # type: ignore[return-value]
    key = id(dag)
    with _DAG_DATA_LOCK:
        hit = _DAG_DATA_CACHE.get(key)
        if hit is not None and hit[0] is dag:
            _DAG_DATA_CACHE.move_to_end(key)
            _last_dag_data = hit
            return hit[1]
    data = _DagData(dag)
    with _DAG_DATA_LOCK:
        _DAG_DATA_CACHE[key] = _last_dag_data = (dag, data)
        _DAG_DATA_CACHE.move_to_end(key)
        while len(_DAG_DATA_CACHE) > _DAG_DATA_CACHE_SIZE:
            _DAG_DATA_CACHE.popitem(last=False)
    return data


# --------------------------------------------------------------------------- #
# row checks, digest and the wire / cache codec of the columns
# --------------------------------------------------------------------------- #


def _validate_rows(game: str, n: int, rows: Sequence[MoveRow]) -> List[int]:
    """Check that every row encodes a move, and count the rows per op code.

    A row needs a known op code and an in-range node; ``arg`` is ``-1``
    except on a compute, where it is an in-range edge head (PRBP) or ``-1``
    / a slide source (RBP).  The loops index flat per-node tables, so they
    only ever see checked rows.  A non-edge ``(u, v)`` stays representable:
    it is an *illegal move*, which the replay refuses like the engine does.
    Raises ``ValueError`` naming the first row that is not a move.
    """
    arg_lo = -1 if game == "rbp" else 0
    compute, last_op = OP_COMPUTE, len(OP_NAMES) - 1
    counts = [0] * len(OP_NAMES)
    # one fused test per row for the all-valid case; the scan below only
    # runs to name the first offending row
    for op, x, y in rows:
        if not (
            0 <= op <= last_op
            and 0 <= x < n
            and (arg_lo <= y < n if op == compute else y == -1)
        ):
            break
        counts[op] += 1
    else:
        return counts
    for i, (op, x, y) in enumerate(rows):
        if not 0 <= op <= last_op:
            raise ValueError(f"move {i}: unknown op code {op}")
        if not 0 <= x < n:
            raise ValueError(f"move {i}: node {x} out of range (n = {n})")
        if op != compute:
            if y != -1:
                raise ValueError(f"move {i}: {OP_NAMES[op]} rows must carry arg=-1, got {y}")
        elif not arg_lo <= y < n:
            what = "slide_from" if game == "rbp" else "edge head"
            raise ValueError(f"move {i}: {what} {y} out of range (n = {n})")


def _columns(schedule: Schedule) -> np.ndarray:
    """The rows as a ``(3, len)`` int32 array: the op, node and arg columns."""
    rows = schedule.rows
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=3 * len(rows))
    return flat.reshape(-1, 3).T


def ir_digest(schedule: Schedule) -> str:
    """Hex SHA-256 of the schedule's header + columns (byte-exact identity)."""
    return _digest(schedule, _columns(schedule))


def _digest(s: Schedule, columns: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr((s.game, s.dag.n, int(s.r), s.variant, s.description, len(s))).encode())
    for column in columns:
        h.update(np.ascontiguousarray(column, dtype="<i4").tobytes())
    return h.hexdigest()


def _b64_encode(column: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(column, dtype="<i4").tobytes()
    ).decode("ascii")


def _b64_decode(text: object, count: int, field: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"schedule column {field!r} must be a base64 string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"schedule column {field!r} is not valid base64: {exc}") from exc
    if len(raw) != 4 * count:
        raise ValueError(
            f"schedule column {field!r} holds {len(raw)} bytes, expected {4 * count}"
        )
    return np.frombuffer(raw, dtype="<i4").astype(np.int32)


def pack_arrays(schedule: Schedule) -> Dict[str, object]:
    """The schedule's columns as the compact JSON-safe payload used on disk and wire."""
    return _pack(schedule, _columns(schedule))


def packed_with_digest(schedule: Schedule) -> Tuple[Dict[str, object], str]:
    """``(pack_arrays(schedule), ir_digest(schedule))`` from one column build."""
    columns = _columns(schedule)
    return _pack(schedule, columns), _digest(schedule, columns)


def _pack(schedule: Schedule, columns: np.ndarray) -> Dict[str, object]:
    op, node, arg = columns
    return {
        "count": len(schedule),
        "ops": _b64_encode(op),
        "nodes": _b64_encode(node),
        "args": _b64_encode(arg),
    }


def unpack_arrays(doc: object) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a :func:`pack_arrays` payload; raises ``ValueError`` when malformed."""
    if not isinstance(doc, dict):
        raise ValueError("packed schedule columns must be an object")
    count = doc.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError("packed schedule 'count' must be a non-negative integer")
    op = _b64_decode(doc.get("ops"), count, "ops")
    node = _b64_decode(doc.get("nodes"), count, "nodes")
    arg = _b64_decode(doc.get("args"), count, "args")
    return op, node, arg


def ir_from_arrays(
    game: str,
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    op: Sequence[int],
    node: Sequence[int],
    arg: Sequence[int],
    description: str = "",
) -> Schedule:
    """Assemble and *check* a schedule from untrusted columns (cache / wire).

    The columns get the row check of :func:`_validate_rows` as one
    vectorized pass; only a schedule that fails it is scanned row by row,
    to raise the message naming the first bad row.  The schedule comes
    back with its per-op counts set, so its replay does not check it again.
    """
    if game not in _SCHEDULE_OF_GAME:
        raise ValueError(f"game must be one of {tuple(_SCHEDULE_OF_GAME)}, got {game!r}")
    op, node, arg = (np.asarray(c, dtype=np.int32) for c in (op, node, arg))
    rows = list(zip(op.tolist(), node.tolist(), arg.tolist(), strict=True))
    arg_lo = -1 if game == "rbp" else 0
    bad = (
        (op < 0)
        | (op >= len(OP_NAMES))
        | (node < 0)
        | (node >= dag.n)
        | np.where(op == OP_COMPUTE, (arg < arg_lo) | (arg >= dag.n), arg != -1)
    )
    if bad.any():
        _validate_rows(game, dag.n, rows)
    schedule = _SCHEDULE_OF_GAME[game].from_rows(dag, int(r), rows, variant, description)
    schedule._op_counts = np.bincount(op, minlength=len(OP_NAMES)).tolist()
    return schedule


# --------------------------------------------------------------------------- #
# replay outcome
# --------------------------------------------------------------------------- #


@dataclass
class ReplayOutcome:
    """What one replay established — verdict, cost, and final-state masks.

    ``failed_at`` is the index of the first illegal move (``None`` when
    every move applied); ``io_cost`` counts the I/O performed *before* that
    index, exactly like the engine's ``io_cost`` at raise time.  The masks
    describe the configuration after the last successfully applied move.
    An RBP outcome always carries ``red``/``blue``/``computed`` and leaves
    ``state``/``marked`` at ``None``; a PRBP outcome the other way round.
    """

    legal: bool
    terminal: bool
    failed_at: Optional[int]
    io_cost: int
    compute_cost_total: float
    peak_red: int
    red: Optional[np.ndarray] = None
    blue: Optional[np.ndarray] = None
    computed: Optional[np.ndarray] = None
    state: Optional[np.ndarray] = None
    marked: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        """True iff the schedule replays legally *and* finishes the pebbling."""
        return self.legal and self.terminal

    @property
    def total_cost(self) -> float:
        return self.io_cost + self.compute_cost_total


# --------------------------------------------------------------------------- #
# the replay loops, one per game
# --------------------------------------------------------------------------- #

# What a replay loop returns: ``(failed_at, io_cost, compute_cost_total,
# peak_red, terminal, final-state bytearrays)``.  Only :func:`replay` turns
# the bytearrays into numpy masks, so mutation scoring never pays for them.
_Run = Tuple[Optional[int], int, float, int, bool, Tuple[bytearray, ...]]


@dataclass(slots=True)
class ReplayState:
    """Where one game's replay loop stands: its per-node arrays and counters.

    ``arrays`` is ``(red, blue, computed)`` for RBP and ``(state, marked,
    edge_computes, marked_in, marked_out)`` for PRBP; ``compute`` is the
    compute count (RBP) or the compute cost so far (PRBP).  A loop given a
    state resumes from it, updates the arrays in place and writes the
    counters back, so a state only moves forward; :meth:`copy` forks one.
    """

    arrays: Tuple
    io: int = 0
    rc: int = 0
    peak: int = 0
    compute: float = 0

    def copy(self) -> "ReplayState":
        return ReplayState(
            tuple(a[:] for a in self.arrays), self.io, self.rc, self.peak, self.compute
        )


def _fresh_state(data: _DagData, game: str) -> ReplayState:
    n, m = data.n, data.m
    if game == "rbp":
        return ReplayState((bytearray(n), bytearray(data.is_source), bytearray(n)))
    # states mirror PRBPState: 0 NONE, 1 BLUE, 2 BLUE_LIGHT_RED, 3 DARK_RED;
    # sources start BLUE (1), every other node NONE (0)
    arrays = (bytearray(data.is_source), bytearray(m), [0] * m, [0] * n, [0] * n)
    return ReplayState(arrays, compute=0.0)


def _rbp_scalar(
    data: _DagData,
    r: int,
    variant: GameVariant,
    rows: Iterable[MoveRow],
    start: Optional[ReplayState] = None,
) -> _Run:
    at = start if start is not None else _fresh_state(data, "rbp")
    red, blue, computed = at.arrays
    is_source = data.is_source
    preds = data.preds
    allow_delete = variant.allow_delete
    allow_sliding = variant.allow_sliding
    one_shot = variant.one_shot
    io, rc, peak, computes = at.io, at.rc, at.peak, at.compute
    failed: Optional[int] = None
    for i, (op, x, y) in enumerate(rows):
        if op == 0:  # load
            if not blue[x]:
                failed = i
                break
            if not red[x]:
                if rc >= r:
                    failed = i
                    break
                red[x] = 1
                rc += 1
                if rc > peak:
                    peak = rc
            io += 1
        elif op == 1:  # save
            if not red[x]:
                failed = i
                break
            blue[x] = 1
            if not allow_delete:
                red[x] = 0
                rc -= 1
            io += 1
        elif op == 2:  # compute
            if is_source[x]:
                failed = i
                break
            if one_shot and computed[x]:
                failed = i
                break
            ok = True
            for u in preds[x]:
                if not red[u]:
                    ok = False
                    break
            if not ok:
                failed = i
                break
            if y >= 0:  # sliding compute
                if not allow_sliding or y not in preds[x]:
                    failed = i
                    break
                if red[y]:
                    red[y] = 0
                    rc -= 1
                if not red[x]:
                    red[x] = 1
                    rc += 1
                    if rc > peak:
                        peak = rc
            else:
                if not red[x]:
                    if rc >= r:
                        failed = i
                        break
                    red[x] = 1
                    rc += 1
                    if rc > peak:
                        peak = rc
            computed[x] = 1
            computes += 1
        elif op == 3:  # delete
            if not allow_delete or not red[x]:
                failed = i
                break
            red[x] = 0
            rc -= 1
        else:  # clear (and any other op) is not part of RBP
            failed = i
            break
    at.io, at.rc, at.peak, at.compute = io, rc, peak, computes
    terminal = failed is None and all(blue[v] for v in data.sinks)
    cost = computes * variant.compute_cost
    return failed, io, cost, peak, terminal, (red, blue, computed)


def _prbp_scalar(
    data: _DagData,
    r: int,
    variant: GameVariant,
    rows: Iterable[MoveRow],
    start: Optional[ReplayState] = None,
) -> _Run:
    at = start if start is not None else _fresh_state(data, "prbp")
    state, marked, edge_computes, marked_in, marked_out = at.arrays
    is_source = data.is_source
    indeg = data.indeg
    outdeg = data.outdeg
    is_sink = data.is_sink
    edge_index = data.edge_index
    allow_delete = variant.allow_delete
    one_shot = variant.one_shot
    base_compute_cost = variant.compute_cost
    split = variant.split_compute_cost
    io, rc, peak, compute_cost_total = at.io, at.rc, at.peak, at.compute
    failed: Optional[int] = None
    for i, (op, x, y) in enumerate(rows):
        if op == 0:  # load
            st = state[x]
            if st != 1 and st != 2:
                failed = i
                break
            if st == 1:
                if rc >= r:
                    failed = i
                    break
                state[x] = 2
                rc += 1
                if rc > peak:
                    peak = rc
            io += 1
        elif op == 1:  # save
            if state[x] != 3:
                failed = i
                break
            state[x] = 2
            io += 1
        elif op == 2:  # partial compute on edge (x, y)
            eid = edge_index.get((x, y), -1)
            if eid < 0 or marked[eid]:
                failed = i
                break
            if one_shot and edge_computes[eid] >= 1:
                failed = i
                break
            if marked_in[x] != indeg[x]:
                failed = i
                break
            stu = state[x]
            if stu != 2 and stu != 3:
                failed = i
                break
            stv = state[y]
            if stv == 1:
                failed = i
                break
            if stv == 0:
                if rc >= r:
                    failed = i
                    break
                rc += 1
                if rc > peak:
                    peak = rc
            state[y] = 3
            marked[eid] = 1
            edge_computes[eid] += 1
            marked_in[y] += 1
            marked_out[x] += 1
            if base_compute_cost:
                cost = base_compute_cost
                if split:
                    cost /= indeg[y]
                compute_cost_total += cost
        elif op == 3:  # delete
            st = state[x]
            if st == 2:
                state[x] = 1
                rc -= 1
            elif st == 3:
                if (
                    not allow_delete
                    or marked_out[x] != outdeg[x]
                    or marked_in[x] != indeg[x]
                ):
                    failed = i
                    break
                state[x] = 0
                rc -= 1
            else:
                failed = i
                break
        elif op == 4:  # clear
            if one_shot or is_source[x] or is_sink[x]:
                failed = i
                break
            st = state[x]
            if st == 2 or st == 3:
                rc -= 1
            state[x] = 0
            if data._in_edges is None:
                data._in_edges = tuple(
                    tuple((u, edge_index[(u, v)]) for u in p) for v, p in enumerate(data.preds)
                )
            for u, eid in data._in_edges[x]:
                if marked[eid]:
                    marked[eid] = 0
                    marked_in[x] -= 1
                    marked_out[u] -= 1
        else:  # pragma: no cover — op codes are exhaustive after validation
            failed = i
            break
    at.io, at.rc, at.peak, at.compute = io, rc, peak, compute_cost_total
    terminal = (
        failed is None
        and all(marked)
        and all(state[v] == 1 or state[v] == 2 for v in data.sinks)
    )
    return failed, io, compute_cost_total, peak, terminal, (state, marked)


# --------------------------------------------------------------------------- #
# public replay entry points
# --------------------------------------------------------------------------- #


def _check_game(schedule: Schedule, data: _DagData) -> None:
    # mirror RBPGame/PRBPGame.__init__, in their order: such a game cannot start
    if schedule.r < 1:
        raise ValueError(f"fast memory capacity must be >= 1, got {schedule.r}")
    if schedule.game == "prbp" and schedule.variant.allow_sliding:
        raise ValueError(
            "the sliding variant only applies to RBP; PRBP partial computes are already in-place"
        )
    if data.has_isolated:
        schedule.dag.validate_no_isolated()


def _bool_mask(raw: bytearray) -> np.ndarray:
    return np.frombuffer(bytes(raw), dtype=np.uint8).astype(bool)


def replay(schedule: Schedule) -> ReplayOutcome:
    """Replay a schedule's rows through its game's loop (engine-equivalent verdicts).

    Node ids are range-checked first: the loops index flat per-node tables,
    so an out-of-range id is unrepresentable (the engines treat it as an
    illegal move; here it is a ``ValueError``).  Illegal-but-representable
    rows replay to a verdict, like any other.
    """
    data = _dag_data(schedule.dag)
    rows = schedule.rows
    if schedule._op_counts is None:
        schedule._op_counts = _validate_rows(schedule.game, data.n, rows)
    _check_game(schedule, data)
    if schedule.game == "rbp":
        failed, io, cost, peak, terminal, (red, blue, computed) = _rbp_scalar(
            data, schedule.r, schedule.variant, rows
        )
        return ReplayOutcome(
            failed is None,
            terminal,
            failed,
            io,
            cost,
            peak,
            red=_bool_mask(red),
            blue=_bool_mask(blue),
            computed=_bool_mask(computed),
        )
    failed, io, cost, peak, terminal, (state, marked) = _prbp_scalar(
        data, schedule.r, schedule.variant, rows
    )
    return ReplayOutcome(
        failed is None,
        terminal,
        failed,
        io,
        cost,
        peak,
        state=np.frombuffer(bytes(state), dtype=np.uint8),
        marked=_bool_mask(marked),
    )


def replay_io_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    game: str,
    rows: Iterable[MoveRow],
    start: Optional[ReplayState] = None,
) -> Optional[int]:
    """I/O cost of a candidate row list, or ``None`` unless it replays legally
    *and* terminally — the kernel twin of ``Schedule.cost()``.

    This is the mutation-scoring hot path: the same loop as :func:`replay`,
    without building the outcome's masks or checking the rows.  Rows must
    use in-range node ids (the refiner's rows come from a schedule that
    replayed legally, which guarantees it).
    With ``start``, ``rows`` is scored as the continuation of the prefix that
    brought ``start`` where it is (the cost counts that prefix's I/O too),
    and ``start`` is advanced in place; pass a :meth:`ReplayState.copy` to
    keep it.
    """
    loop = _rbp_scalar if game == "rbp" else _prbp_scalar
    _, io, _, _, terminal, _ = loop(_dag_data(dag), r, variant, rows, start)
    return io if terminal else None


def start_state(dag: ComputationalDAG, game: str) -> ReplayState:
    """The replay state before move 0 (sources blue, nothing red)."""
    return _fresh_state(_dag_data(dag), game)


def advance(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    game: str,
    rows: Sequence[MoveRow],
    state: ReplayState,
) -> Optional[int]:
    """Move ``state`` forward over ``rows`` in place.

    Returns the index into ``rows`` of the first illegal move (the state
    then stands just before it), or ``None`` when every row applied.
    """
    loop = _rbp_scalar if game == "rbp" else _prbp_scalar
    return loop(_dag_data(dag), r, variant, rows, state)[0]


def kernel_stats(schedule: Schedule) -> ScheduleStats:
    """Replay a schedule's rows and return engine-identical :class:`ScheduleStats`.

    Raises the engines' exception classes: :class:`IllegalMoveError` at an
    illegal move, :class:`IncompletePebblingError` when the final
    configuration is not terminal, and the constructors' ``ValueError`` /
    :class:`~repro.core.exceptions.DAGError` for a game that cannot start;
    a row with an out-of-range node id is a ``ValueError``.
    It is the validation replay of ``Schedule.stats()`` (once per solve),
    the cache and the wire protocol.
    """
    outcome = replay(schedule)
    if not outcome.legal:
        assert outcome.failed_at is not None
        op, node, _ = schedule.rows[outcome.failed_at]
        raise IllegalMoveError(
            f"schedule replay failed at move {outcome.failed_at} ({OP_NAMES[op]} {node})"
        )
    if not outcome.terminal:
        raise IncompletePebblingError(
            f"{schedule.game.upper()} pebbling incomplete: the schedule replays legally "
            "but does not finish the pebbling"
        )
    kinds = schedule._op_counts  # set by the replay's row check
    assert kinds is not None
    return ScheduleStats(
        io_cost=outcome.io_cost,
        loads=kinds[OP_LOAD],
        saves=kinds[OP_SAVE],
        computes=kinds[OP_COMPUTE],
        deletes=kinds[OP_DELETE],
        clears=kinds[OP_CLEAR],
        total_cost=outcome.total_cost,
        peak_red=outcome.peak_red,
    )
