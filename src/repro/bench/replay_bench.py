"""Replay-throughput microbenchmark: engine validation vs the columnar kernel.

The workload is the validation step every untrusting consumer performs on a
schedule it did not compute itself — the service client on a result frame,
the cache on a disk entry, the corpus on an ingested record: decode the wire
payload, rebuild the schedule, replay it, read off the statistics.  Two
implementations race over the *same* deterministic batch of schedules:

* **engine** — the Move-object path: a per-move JSON list is turned back
  into ``RBPMove``/``PRBPMove`` objects and replayed move by move through a
  fresh ``RBPGame``/``PRBPGame`` (per-move Python dispatch), counting move
  kinds and peak red as it goes;
* **kernel** — the columnar path: the packed base64 columns of
  :mod:`repro.core.schedule_ir` are decoded with :func:`unpack_arrays`,
  validated by :func:`ir_from_arrays`, and replayed one schedule at a time
  through :func:`replay` (the scalar loop of the schedule's game), with
  per-schedule move-kind counts read off via ``np.bincount``.

Both sides accumulate the replayed I/O costs; the accumulators must agree,
so the benchmark is also a differential check.  The batch is the greedy/
topological base schedule of the tier's DAG plus seeded adjacent-transposition
variants, pre-filtered (untimed) to the legal-and-terminal ones — every timed
replay does full work, none short-circuits on an early illegal move.

The scenarios are registered with a ``custom_runner`` (see
:class:`~repro.bench.scenario.BenchScenario`), so they travel through the
normal runner, BENCH json reports and the ``--compare`` gate; the kernel-
over-engine ``replay_speedup`` is gated through ``expected_ok`` against the
scenario's ``min_speedup`` option.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..core.dag import ComputationalDAG
from ..core.moves import MoveKind, PRBPMove, RBPMove
from ..core.prbp import PRBPGame
from ..core.rbp import RBPGame
from ..core.schedule_ir import (
    ScheduleIR,
    from_schedule,
    ir_from_arrays,
    pack_arrays,
    replay,
    to_schedule,
    unpack_arrays,
)
from ..core.strategy import ScheduleStats
from ..core.variants import GameVariant
from ..dags.fft import fft_dag
from ..dags.linalg import matvec_dag
from ..solvers.greedy import greedy_rbp_schedule, topological_prbp_schedule
from .runner import ScenarioRecord
from .scenario import BenchScenario, ScenarioTier, register_scenario

__all__ = ["register_replay_scenarios", "run_replay_throughput"]


def _legal_swap_variants(base: ScheduleIR, count: int, seed: int) -> List[ScheduleIR]:
    """``base`` plus seeded adjacent-swap variants, filtered to legal+terminal.

    Roughly a quarter of random adjacent transpositions of a greedy schedule
    stay legal, so the mutation loop over-generates and the kernel (the
    already-differentially-tested one) keeps the survivors.  Deterministic
    for a fixed (base, count, seed).
    """
    rng = random.Random(seed)
    rows = list(zip(base.op.tolist(), base.node.tolist(), base.arg.tolist()))
    keep = [base]
    tries = 0
    while len(keep) < count and tries < count * 30:
        batch = []
        for _ in range(min(4 * (count - len(keep)), 256)):
            tries += 1
            k = rng.randrange(len(rows) - 1)
            mutated = list(rows)
            mutated[k], mutated[k + 1] = mutated[k + 1], mutated[k]
            op, node, arg = (np.array(col, dtype=np.int32) for col in zip(*mutated))
            batch.append(
                ir_from_arrays(base.game, base.dag, base.r, base.variant, op, node, arg)
            )
        keep.extend(ir for ir in batch if replay(ir).ok)
    return keep[:count]


def _engine_wire_doc(ir: ScheduleIR) -> List[List[object]]:
    """A per-move JSON list of a schedule (the engine input)."""
    schedule = to_schedule(ir)
    items: List[List[object]] = []
    if ir.game == "rbp":
        for mv in schedule.moves:
            if mv.kind is MoveKind.COMPUTE and mv.slide_from is not None:
                items.append([mv.kind.value, mv.node, mv.slide_from])
            else:
                items.append([mv.kind.value, mv.node])
    else:
        for mv in schedule.moves:
            if mv.kind is MoveKind.COMPUTE:
                assert mv.edge is not None
                items.append([mv.kind.value, mv.edge[0], mv.edge[1]])
            else:
                items.append([mv.kind.value, mv.node])
    return items


def _replay_stats(game: Union[RBPGame, PRBPGame], moves: Sequence) -> ScheduleStats:
    """Apply ``moves`` to a fresh engine ``game`` and summarise the completed pebbling."""
    peak = loads = saves = computes = deletes = clears = 0
    for mv in moves:
        game.apply(mv)
        peak = max(peak, game.red_count())
        if mv.kind is MoveKind.LOAD:
            loads += 1
        elif mv.kind is MoveKind.SAVE:
            saves += 1
        elif mv.kind is MoveKind.COMPUTE:
            computes += 1
        elif mv.kind is MoveKind.DELETE:
            deletes += 1
        elif mv.kind is MoveKind.CLEAR:
            clears += 1
    game.assert_terminal()
    return ScheduleStats(
        io_cost=game.io_cost,
        loads=loads,
        saves=saves,
        computes=computes,
        deletes=deletes,
        clears=clears,
        total_cost=game.total_cost,
        peak_red=peak,
    )


def _engine_validate(
    game: str,
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    docs: List[List[List[object]]],
) -> int:
    """Decode + engine-replay every wire move list; returns the summed I/O."""
    total = 0
    for items in docs:
        if game == "rbp":
            rbp_moves = [
                RBPMove(MoveKind(item[0]), int(item[1]), int(item[2]) if len(item) == 3 else None)
                for item in items
            ]
            rbp_game = RBPGame(dag, r, variant, record_history=False)
            total += _replay_stats(rbp_game, rbp_moves).io_cost
        else:
            prbp_moves = [
                PRBPMove(MoveKind(item[0]), edge=(int(item[1]), int(item[2])))
                if item[0] == MoveKind.COMPUTE.value
                else PRBPMove(MoveKind(item[0]), node=int(item[1]))
                for item in items
            ]
            prbp_game = PRBPGame(dag, r, variant, record_history=False)
            total += _replay_stats(prbp_game, prbp_moves).io_cost
    return total


def _kernel_validate(
    game: str,
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    docs: List[Dict[str, object]],
) -> int:
    """Decode + kernel-replay every packed-column doc; returns the summed I/O."""
    total = 0
    for doc in docs:
        op, node, arg = unpack_arrays(doc)
        ir = ir_from_arrays(game, dag, r, variant, op, node, arg)
        out = replay(ir)
        if not out.ok:
            raise RuntimeError("a pre-filtered replay-bench schedule failed to replay")
        np.bincount(ir.op, minlength=5)  # the per-kind counts stats() reports
        total += out.io_cost
    return total


def _timed(fn, *args) -> Tuple[float, int]:
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def run_replay_throughput(
    scenario: BenchScenario, tier: str, repeats: int
) -> ScenarioRecord:
    """The ``custom_runner`` behind the replay-throughput scenarios.

    Builds the tier's schedule batch, races the engine and kernel validation
    paths over it (``repeats`` interleaved pairs, floored at 5; the reported
    speedup is the ratio of best-of times, taken from adjacent windows so
    co-tenant load cannot skew one side), and reports the speedup.  The run
    fails its expectation (``expected_ok=False``, which the ``--compare``
    gate turns into a regression) when the speedup drops below the
    scenario's ``min_speedup`` option.
    """
    spec = scenario.tier(tier)
    options = dict(scenario.solve_options)
    schedule_count = int(options.get("schedule_count", 40))  # type: ignore[arg-type]
    min_speedup = float(options.get("min_speedup", 1.0))  # type: ignore[arg-type]
    seed = int(options.get("seed", 0))  # type: ignore[arg-type]

    dag = scenario.dag_factory(*spec.dag_args, **dict(spec.dag_kwargs))
    r = spec.capacity(dag)
    if scenario.game == "rbp":
        base = from_schedule(greedy_rbp_schedule(dag, r, variant=scenario.variant))
    else:
        base = from_schedule(topological_prbp_schedule(dag, r, variant=scenario.variant))
    irs = _legal_swap_variants(base, schedule_count, seed=seed)

    # both wire forms are produced untimed: the race starts at "bytes in hand"
    kernel_docs = [pack_arrays(ir) for ir in irs]
    engine_docs = [_engine_wire_doc(ir) for ir in irs]

    # The two sides are timed back-to-back inside each repeat (so their best
    # observations come from adjacent time windows) and the speedup is the
    # ratio of the best times — the classic timeit doctrine: the minimum is
    # the measurement, everything above it is the OS and co-tenants.
    inner_repeats = max(5, repeats)
    engine_s = kernel_s = float("inf")
    for _ in range(inner_repeats):
        pair_engine_s, engine_total = _timed(
            _engine_validate, scenario.game, dag, r, scenario.variant, engine_docs
        )
        pair_kernel_s, kernel_total = _timed(
            _kernel_validate, scenario.game, dag, r, scenario.variant, kernel_docs
        )
        if engine_total != kernel_total:
            raise RuntimeError(
                f"engine and kernel disagree on the batch I/O total "
                f"({engine_total} vs {kernel_total})"
            )
        engine_s = min(engine_s, pair_engine_s)
        kernel_s = min(kernel_s, pair_kernel_s)

    speedup = engine_s / kernel_s if kernel_s > 0 else float("inf")
    return ScenarioRecord(
        scenario=scenario.name,
        group=scenario.group,
        tier=tier,
        game=scenario.game,
        variant=scenario.variant.describe(),
        solver_requested=scenario.solver,
        solver_used="replay-kernel",
        reference=scenario.reference,
        n=dag.n,
        m=dag.m,
        r=r,
        wall_time_s=kernel_s,
        io_cost=int(kernel_total),  # deterministic batch => sharply comparable
        moves=sum(len(ir) for ir in irs),
        expected_ok=speedup >= min_speedup,
        replay_speedup=speedup,
        replay_schedules_per_s=len(irs) / kernel_s if kernel_s > 0 else None,
        replay_engine_schedules_per_s=len(irs) / engine_s if engine_s > 0 else None,
    )


def register_replay_scenarios() -> None:
    """Register the replay-throughput scenarios (called with the built-ins)."""
    register_scenario(
        BenchScenario(
            name="replay-throughput",
            group="schedule-ir",
            title="columnar kernel vs engine replay on RBP wire schedules",
            dag_factory=matvec_dag,
            game="rbp",
            solver="replay-kernel",
            # the scalar kernel records a median of ~10x on a 2-CPU box; the
            # gate floor sits at 8x so that co-tenant timer noise cannot fail
            # CI while a real regression in the RBP loop still does
            solve_options={"schedule_count": 40, "min_speedup": 8.0, "seed": 0},
            tiers={
                "quick": ScenarioTier(dag_args=(18,), r=21),
                "full": ScenarioTier(dag_args=(24,), r=27),
            },
            reference="schedule-IR replay kernel: >= 10x validation throughput recorded",
            custom_runner=run_replay_throughput,
        )
    )
    register_scenario(
        BenchScenario(
            name="replay-throughput-prbp-scalar",
            group="schedule-ir",
            title="scalar columnar kernel vs engine replay on PRBP wire schedules",
            dag_factory=fft_dag,
            game="prbp",
            solver="replay-kernel",
            solve_options={"schedule_count": 32, "min_speedup": 1.5, "seed": 0},
            tiers={
                "quick": ScenarioTier(dag_args=(32,), r=6),
                "full": ScenarioTier(dag_args=(128,), r=12),
            },
            reference="schedule-IR replay kernel: scalar PRBP path stays ahead of the engine",
            custom_runner=run_replay_throughput,
        )
    )
