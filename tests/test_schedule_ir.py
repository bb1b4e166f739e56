"""Differential replay harness: the columnar kernel vs the game engines.

This file is the merge gate for ``repro.core.schedule_ir``.  The paper's
legality and cost semantics stay *defined* by ``RBPGame``/``PRBPGame``;
the kernel is only trusted because every verdict it produces — first
illegal move, I/O cost, compute cost, peak red, terminality, final-state
masks — is asserted bit-identical to stepping the engine move-by-move,
on Hypothesis-generated legal *and* illegal sequences, for both games and
all variant bundles.

Run ``pytest tests/test_schedule_ir.py --hypothesis-profile=thorough`` for
the deep sweep (1500 examples per property, 4500 engine-differential cases);
CI's test job runs it on one Python version.
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import schedule_ir as sir
from repro.core.dag import ComputationalDAG
from repro.core.exceptions import (
    DAGError,
    IllegalMoveError,
    IncompletePebblingError,
    PebblingError,
)
from repro.core.moves import MoveKind, PRBPMove, RBPMove
from repro.core.prbp import PRBPGame
from repro.core.rbp import RBPGame
from repro.core.strategy import PRBPSchedule, RBPSchedule, ScheduleStats
from repro.core.variants import NO_DELETE, ONE_SHOT, RECOMPUTE, SLIDING, GameVariant
from repro.dags.gadgets import figure1_gadget
from repro.dags.linalg import matvec_dag
from repro.dags.random_dags import random_layered_dag
from repro.dags.trees import kary_tree_dag
from repro.solvers.greedy import greedy_rbp_schedule, topological_prbp_schedule

BUNDLES = [ONE_SHOT, RECOMPUTE, SLIDING, NO_DELETE]
PRBP_BUNDLES = [v for v in BUNDLES if not v.allow_sliding]

DAGS = [
    figure1_gadget(),
    kary_tree_dag(2, 2),
    matvec_dag(3),
    random_layered_dag((3, 4, 4, 3), edge_probability=0.5, seed=7),
]

_KINDS = [MoveKind.LOAD, MoveKind.SAVE, MoveKind.COMPUTE, MoveKind.DELETE, MoveKind.CLEAR]


# --------------------------------------------------------------------------- #
# the reference: step the engine move-by-move
# --------------------------------------------------------------------------- #


def engine_reference(schedule):
    """Replay through the engine, returning the kernel-comparable verdict."""
    game_cls = RBPGame if isinstance(schedule, RBPSchedule) else PRBPGame
    game = game_cls(schedule.dag, schedule.r, variant=schedule.variant)
    failed = None
    peak = 0
    for i, mv in enumerate(schedule.moves):
        try:
            game.apply(mv)
        except PebblingError:
            failed = i
            break
        peak = max(peak, game.red_count())
    verdict = {
        "failed_at": failed,
        "io_cost": game.io_cost,
        "compute_cost_total": game.compute_cost_total,
        "peak_red": peak,
        "ok": failed is None and game.is_terminal(),
    }
    n = schedule.dag.n
    if isinstance(schedule, RBPSchedule):
        verdict["red"] = np.array([v in game.red for v in range(n)])
        verdict["blue"] = np.array([v in game.blue for v in range(n)])
        verdict["computed"] = np.array([v in game.computed for v in range(n)])
    else:
        verdict["state"] = np.array([int(s) for s in game.state], dtype=np.uint8)
        verdict["marked"] = np.array(list(game.marked))
    return verdict


def assert_outcome_matches(outcome, verdict, schedule):
    ctx = (schedule.moves, verdict, outcome)
    assert outcome.failed_at == verdict["failed_at"], ctx
    assert outcome.io_cost == verdict["io_cost"], ctx
    assert outcome.compute_cost_total == pytest.approx(verdict["compute_cost_total"]), ctx
    assert outcome.peak_red == verdict["peak_red"], ctx
    assert outcome.ok == verdict["ok"], ctx
    if isinstance(schedule, RBPSchedule):
        np.testing.assert_array_equal(outcome.red, verdict["red"], err_msg=str(ctx))
        np.testing.assert_array_equal(outcome.blue, verdict["blue"], err_msg=str(ctx))
        np.testing.assert_array_equal(outcome.computed, verdict["computed"], err_msg=str(ctx))
    else:
        np.testing.assert_array_equal(outcome.state, verdict["state"], err_msg=str(ctx))
        np.testing.assert_array_equal(outcome.marked, verdict["marked"], err_msg=str(ctx))


# --------------------------------------------------------------------------- #
# move-sequence strategies: arbitrary junk, legal walks, and walks with
# junk spliced in (long legal prefix ending in a violation)
# --------------------------------------------------------------------------- #


@st.composite
def rbp_case(draw):
    dag = draw(st.sampled_from(DAGS))
    variant = draw(st.sampled_from(BUNDLES))
    r = draw(st.sampled_from([1, 2, 3, dag.n]))
    mode = draw(st.integers(min_value=0, max_value=2))
    moves = []
    if mode > 0:
        game = RBPGame(dag, r, variant=variant)
        steps = draw(st.integers(min_value=0, max_value=40))
        for _ in range(steps):
            legal = game.legal_moves(include_useless=True)
            if not legal:
                break
            mv = legal[draw(st.integers(min_value=0, max_value=len(legal) - 1))]
            game.apply(mv)
            moves.append(mv)
    if mode != 1:
        junk_len = draw(st.integers(min_value=0, max_value=12))
        junk = []
        for _ in range(junk_len):
            kind = draw(st.sampled_from(_KINDS))
            v = draw(st.integers(min_value=0, max_value=dag.n - 1))
            slide = None
            if kind is MoveKind.COMPUTE and draw(st.booleans()):
                slide = draw(st.integers(min_value=0, max_value=dag.n - 1))
            junk.append(RBPMove(kind, v, slide))
        pos = draw(st.integers(min_value=0, max_value=len(moves)))
        moves = moves[:pos] + junk + moves[pos:]
    return RBPSchedule(dag, r, moves, variant=variant)


@st.composite
def prbp_case(draw):
    dag = draw(st.sampled_from(DAGS))
    variant = draw(st.sampled_from(PRBP_BUNDLES))
    r = draw(st.sampled_from([1, 2, 3, dag.n]))
    mode = draw(st.integers(min_value=0, max_value=2))
    moves = []
    if mode > 0:
        game = PRBPGame(dag, r, variant=variant)
        steps = draw(st.integers(min_value=0, max_value=50))
        for _ in range(steps):
            legal = game.legal_moves(include_useless=True)
            if not legal:
                break
            mv = legal[draw(st.integers(min_value=0, max_value=len(legal) - 1))]
            game.apply(mv)
            moves.append(mv)
    if mode != 1:
        junk_len = draw(st.integers(min_value=0, max_value=12))
        junk = []
        for _ in range(junk_len):
            kind = draw(st.sampled_from(_KINDS))
            if kind is MoveKind.COMPUTE:
                if dag.edges and draw(st.booleans()):
                    edge = draw(st.sampled_from(dag.edges))
                else:
                    edge = (
                        draw(st.integers(min_value=0, max_value=dag.n - 1)),
                        draw(st.integers(min_value=0, max_value=dag.n - 1)),
                    )
                junk.append(PRBPMove(kind, edge=edge))
            else:
                junk.append(
                    PRBPMove(kind, node=draw(st.integers(min_value=0, max_value=dag.n - 1)))
                )
        pos = draw(st.integers(min_value=0, max_value=len(moves)))
        moves = moves[:pos] + junk + moves[pos:]
    return PRBPSchedule(dag, r, moves, variant=variant)


# --------------------------------------------------------------------------- #
# the differential properties (the PR's merge gate)
# --------------------------------------------------------------------------- #


def _io_cost(schedule, rows, start=None):
    """``replay_io_cost`` of ``rows`` under ``schedule``'s header."""
    s = schedule
    return sir.replay_io_cost(s.dag, s.r, s.variant, s.game, rows, start)


@given(rbp_case())
def test_rbp_kernel_matches_engine(schedule):
    verdict = engine_reference(schedule)
    outcome = sir.replay(schedule)
    assert_outcome_matches(outcome, verdict, schedule)
    # the lean scoring path agrees with the full outcome
    cost = _io_cost(schedule, schedule.rows)
    assert cost == (outcome.io_cost if outcome.ok else None)


@given(prbp_case())
def test_prbp_kernel_matches_engine(schedule):
    verdict = engine_reference(schedule)
    outcome = sir.replay(schedule)
    assert_outcome_matches(outcome, verdict, schedule)
    cost = _io_cost(schedule, schedule.rows)
    assert cost == (outcome.io_cost if outcome.ok else None)


@given(rbp_case() | prbp_case())
def test_kernel_stats_matches_schedule_stats(schedule):
    # Schedule.stats() is kernel_stats, so the oracle is the engine walk
    # plus move-kind counts read off the moves
    verdict = engine_reference(schedule)
    if verdict["failed_at"] is not None:
        with pytest.raises(IllegalMoveError):
            sir.kernel_stats(schedule)
        return
    if not verdict["ok"]:
        with pytest.raises(IncompletePebblingError):
            sir.kernel_stats(schedule)
        return
    kinds = Counter(mv.kind for mv in schedule.moves)
    assert sir.kernel_stats(schedule) == ScheduleStats(
        io_cost=verdict["io_cost"],
        loads=kinds[MoveKind.LOAD],
        saves=kinds[MoveKind.SAVE],
        computes=kinds[MoveKind.COMPUTE],
        deletes=kinds[MoveKind.DELETE],
        clears=kinds[MoveKind.CLEAR],
        total_cost=verdict["io_cost"] + verdict["compute_cost_total"],
        peak_red=verdict["peak_red"],
    )


@given(rbp_case() | prbp_case())
def test_stats_refuses_with_the_engine_error(schedule):
    try:
        schedule.validate()
    except PebblingError as exc:
        with pytest.raises(PebblingError) as refused:
            schedule.stats()
        assert type(refused.value) is type(exc)
        assert str(refused.value) == str(exc)
        return
    assert schedule.stats().io_cost == schedule.cost()


def test_stats_refuses_unrepresentable_nodes_with_the_engine_error():
    dag = figure1_gadget()
    for schedule in (
        RBPSchedule(dag, 3, [RBPMove(MoveKind.LOAD, dag.n)]),
        PRBPSchedule(dag, 3, [PRBPMove(MoveKind.COMPUTE, edge=(0, dag.n + 4))]),
    ):
        with pytest.raises(PebblingError) as engine:
            schedule.validate()
        with pytest.raises(PebblingError) as refused:
            schedule.stats()
        assert type(refused.value) is type(engine.value)
        assert str(refused.value) == str(engine.value)


def test_isolated_node_refused_like_engine():
    dag = ComputationalDAG(4, [(0, 1), (1, 2)])  # node 3 is isolated
    for make, game_cls in ((RBPSchedule, RBPGame), (PRBPSchedule, PRBPGame)):
        with pytest.raises(DAGError) as engine:
            game_cls(dag, 3)
        with pytest.raises(DAGError) as kernel:
            sir.kernel_stats(make(dag, 3, []))
        assert str(kernel.value) == str(engine.value) == "node 3 (v3) is isolated"


# --------------------------------------------------------------------------- #
# resumed replay: a state advanced over a prefix, then the suffix, is the
# full replay (what the refiner's suffix-only scoring relies on)
# --------------------------------------------------------------------------- #


@st.composite
def legal_case(draw):
    """A legal schedule: a random legal walk or a complete greedy pebbling."""
    game = draw(st.sampled_from(["rbp", "prbp"]))
    dag = draw(st.sampled_from(DAGS))
    variant = draw(st.sampled_from(BUNDLES if game == "rbp" else PRBP_BUNDLES))
    if variant.allow_delete and draw(st.booleans()):
        # complete, so the resumed replay also has a cost to agree on
        if game == "rbp":
            r = dag.max_in_degree + 1 + draw(st.integers(min_value=0, max_value=2))
            return greedy_rbp_schedule(dag, r, variant=variant)
        return topological_prbp_schedule(
            dag, draw(st.integers(min_value=2, max_value=4)), variant=variant
        )
    r = draw(st.sampled_from([1, 2, 3, dag.n]))
    game_state = (RBPGame if game == "rbp" else PRBPGame)(dag, r, variant=variant)
    for _ in range(draw(st.integers(min_value=0, max_value=50))):
        legal = game_state.legal_moves(include_useless=True)
        if not legal:
            break
        game_state.apply(legal[draw(st.integers(min_value=0, max_value=len(legal) - 1))])
    assert game_state.history is not None
    schedule_cls = RBPSchedule if game == "rbp" else PRBPSchedule
    return schedule_cls(dag, r, list(game_state.history), variant=variant)


def _replay_rows(schedule, rows):
    s = schedule
    return sir.replay(type(s).from_rows(s.dag, s.r, rows, s.variant))


@given(legal_case(), st.data())
def test_resumed_replay_matches_full_replay(schedule, data):
    s = schedule
    rows = s.rows
    k = data.draw(st.integers(min_value=0, max_value=len(rows)), label="k")
    suffixes = [rows[k:]]
    if k < len(rows):
        # dropping one suffix row usually makes the rest illegal
        drop = data.draw(st.integers(min_value=k, max_value=len(rows) - 1), label="drop")
        suffixes.append(rows[k:drop] + rows[drop + 1 :])
    for suffix in suffixes:
        start = sir.start_state(s.dag, s.game)
        assert sir.advance(s.dag, s.r, s.variant, s.game, rows[:k], start) is None
        full = _replay_rows(s, rows[:k] + suffix)
        cost = _io_cost(s, suffix, start)
        assert cost == (full.io_cost if full.ok else None)
        assert (start.io, start.peak) == (full.io_cost, full.peak_red)
        assert _io_cost(s, rows[:k] + suffix) == cost


# --------------------------------------------------------------------------- #
# round-trips: Moves -> rows -> Moves, and rows -> wire -> rows, are exact
# --------------------------------------------------------------------------- #


@given(rbp_case() | prbp_case())
def test_round_trip_bit_identical(schedule):
    # the Move-list constructor and the .moves view are a bijection
    moves = list(schedule.moves)
    made = type(schedule)(
        schedule.dag,
        schedule.r,
        moves,
        variant=schedule.variant,
        description=schedule.description,
    )
    assert made.moves == moves
    assert made.rows == sir.encode_moves(schedule.game, moves)
    assert sir.decode_moves(schedule.game, made.rows) == moves
    assert made == schedule
    assert sir.ir_digest(made) == sir.ir_digest(schedule)


@given(rbp_case() | prbp_case())
def test_wire_codec_round_trip(schedule):
    doc = sir.pack_arrays(schedule)
    assert doc["count"] == len(schedule)
    op, node, arg = sir.unpack_arrays(doc)
    for column in (op, node, arg):
        assert column.dtype == np.int32
    rebuilt = sir.ir_from_arrays(
        schedule.game,
        schedule.dag,
        schedule.r,
        schedule.variant,
        op,
        node,
        arg,
        description=schedule.description,
    )
    assert sir.ir_digest(rebuilt) == sir.ir_digest(schedule)
    assert rebuilt.rows == schedule.rows
    assert rebuilt.moves == schedule.moves
    # the per-op counts the wire check reads off the columns are the row check's
    counts = sir._validate_rows(schedule.game, schedule.dag.n, schedule.rows)
    assert rebuilt._op_counts == counts


def test_digest_changes_with_content():
    dag = figure1_gadget()
    moves = [RBPMove(MoveKind.LOAD, 0), RBPMove(MoveKind.DELETE, 0)]
    base = RBPSchedule(dag, 3, moves)
    assert sir.ir_digest(base) != sir.ir_digest(RBPSchedule(dag, 4, moves))
    assert sir.ir_digest(base) != sir.ir_digest(RBPSchedule(dag, 3, moves[:1]))
    assert sir.ir_digest(base) != sir.ir_digest(RBPSchedule(dag, 3, moves, variant=NO_DELETE))


# --------------------------------------------------------------------------- #
# tamper rejection: malformed wire docs and columns refuse, never crash
# --------------------------------------------------------------------------- #


def _sample_doc():
    schedule = greedy_rbp_schedule(kary_tree_dag(2, 2), 3)
    return schedule, sir.pack_arrays(schedule)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda d: d.pop("ops"),
        lambda d: d.pop("count"),
        lambda d: d.__setitem__("count", -1),
        lambda d: d.__setitem__("count", d["count"] + 1),
        lambda d: d.__setitem__("count", True),
        lambda d: d.__setitem__("ops", "!!! not base64 !!!"),
        lambda d: d.__setitem__("nodes", 123),
        lambda d: d.__setitem__("args", d["args"][:-8]),
    ],
    ids=[
        "missing-ops",
        "missing-count",
        "negative-count",
        "count-mismatch",
        "bool-count",
        "bad-base64",
        "non-string-column",
        "truncated-column",
    ],
)
def test_tampered_wire_doc_rejected(tamper):
    _, doc = _sample_doc()
    tamper(doc)
    with pytest.raises(ValueError):
        sir.unpack_arrays(doc)


def test_unpack_rejects_non_dict():
    with pytest.raises(ValueError):
        sir.unpack_arrays(["not", "a", "dict"])


@pytest.mark.parametrize(
    "game, op, node, arg, fragment",
    [
        ("rbp", 9, 0, -1, "unknown op code"),
        ("rbp", 0, 99, -1, "out of range"),
        ("rbp", 2, 0, 99, "slide_from 99"),
        ("rbp", 0, 0, 5, "arg=-1"),
        ("prbp", 2, 0, -1, "edge head -1"),
        ("prbp", 2, 0, 99, "edge head 99"),
        ("prbp", 1, 0, 3, "arg=-1"),
    ],
)
def test_tampered_columns_rejected(game, op, node, arg, fragment):
    dag = figure1_gadget()
    with pytest.raises(ValueError, match=fragment):
        sir.ir_from_arrays(
            game,
            dag,
            3,
            RECOMPUTE,
            np.array([op], dtype=np.int32),
            np.array([node], dtype=np.int32),
            np.array([arg], dtype=np.int32),
        )


def test_tampered_column_changes_digest_and_fails_replay():
    # flipping one stored byte must be *detected* — either the columns no
    # longer validate, or the digest moves and the kernel verdict changes
    schedule, doc = _sample_doc()
    op, node, arg = sir.unpack_arrays(doc)
    node = node.copy()
    node[0] = (node[0] + 1) % schedule.dag.n
    s = schedule
    tampered = sir.ir_from_arrays("rbp", s.dag, s.r, s.variant, op, node, arg)
    assert sir.ir_digest(tampered) != sir.ir_digest(schedule)
    assert sir.replay(tampered).ok is False or sir.kernel_stats(
        tampered
    ) != sir.kernel_stats(schedule)


# --------------------------------------------------------------------------- #
# encode/decode contracts and guard rails
# --------------------------------------------------------------------------- #


def test_empty_schedule_round_trips_and_replays():
    dag = figure1_gadget()
    for make, game in ((RBPSchedule, "rbp"), (PRBPSchedule, "prbp")):
        schedule = make(dag, 2, [])
        assert len(schedule) == 0 and schedule.game == game
        outcome = sir.replay(schedule)
        assert outcome.legal and not outcome.terminal
        assert outcome.io_cost == 0 and outcome.peak_red == 0
        assert schedule.rows == [] and schedule.moves == []
        assert sir.pack_arrays(schedule)["count"] == 0


def test_prbp_sliding_ir_rejected_like_engine():
    dag = figure1_gadget()
    with pytest.raises(ValueError):
        PRBPGame(dag, 3, variant=SLIDING)
    with pytest.raises(ValueError):
        sir.replay(PRBPSchedule.from_rows(dag, 3, [], variant=SLIDING))


def test_out_of_range_nodes_unrepresentable_at_encode():
    # the kernel indexes flat per-node tables, so it refuses such rows
    dag = figure1_gadget()
    with pytest.raises(ValueError, match="out of range"):
        sir.kernel_stats(RBPSchedule(dag, 3, [RBPMove(MoveKind.LOAD, dag.n)]))
    with pytest.raises(ValueError, match="out of range"):
        sir.kernel_stats(
            PRBPSchedule(dag, 3, [PRBPMove(MoveKind.COMPUTE, edge=(0, dag.n + 4))])
        )


def test_compute_cost_variants_match_engine():
    dag = matvec_dag(3)
    for variant in (
        GameVariant(one_shot=False, compute_cost=1.0),
        GameVariant(one_shot=False, compute_cost=1.0, split_compute_cost=True),
    ):
        schedule = topological_prbp_schedule(dag, 4, variant=variant)
        verdict = engine_reference(schedule)
        outcome = sir.replay(schedule)
        assert_outcome_matches(outcome, verdict, schedule)
        assert outcome.compute_cost_total > 0


def test_dag_data_cache_survives_concurrent_eviction(monkeypatch):
    # one slot and four threads, each with its own DAG: every call evicts
    # another thread's entry, so an unlocked LRU raises KeyError in
    # move_to_end between a lookup and its reorder
    monkeypatch.setattr(sir, "_DAG_DATA_CACHE_SIZE", 1)
    dags = [kary_tree_dag(2, 2) for _ in range(4)]
    errors = []
    start = threading.Barrier(len(dags))

    def hammer(dag):
        start.wait()
        try:
            for _ in range(5_000):
                sir._dag_data(dag)
        except Exception as exc:  # noqa: BLE001 - collected and asserted below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(dag,)) for dag in dags]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
