"""Hypothesis differential suite for the anytime refinement engine.

Three contracts, checked on random small DAGs:

* **legality** — every refined schedule replays legally and terminally
  through the game engine, under each of the four
  :class:`~repro.core.variants.GameVariant` bundles (one-shot,
  re-computation, sliding, no-deletion) the input was posed in;
* **cost monotonicity** — refinement never returns a schedule costlier than
  the one it started from (the engine's central promise — the auto
  portfolio's improvement pass relies on it);
* **elision oracle** — the one-sweep elision pass makes exactly the trials
  and removals of the restarting pass it replaced (``tests/elision_oracle.py``);
* **quality** — on exhaustive-solvable instances (n ≤ 10), refinement
  started from the greedy baseline lands within a pinned factor of the true
  optimum.  The factor below was measured over a ~600-instance sweep of
  random DAGs that deliberately included dense adversarial shapes (high
  in-degree, tiny optimum): the worst observed case was refined 7 vs
  optimum 2 — local search cannot always escape the greedy basin on dense
  PRBP instances whose optima exploit radically different aggregation
  orders.  Pinning the envelope keeps future operator changes from
  silently degrading refinement quality without promising more than the
  engine delivers.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from elision_oracle import MAX_SWEEPS, oracle_elision_pass  # noqa: E402

from repro.api import PebblingProblem, solve  # noqa: E402
from repro.core.dag import ComputationalDAG  # noqa: E402
from repro.core.exceptions import SolverError  # noqa: E402
from repro.core.schedule_ir import (  # noqa: E402
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_SAVE,
    replay_io_cost,
)
from repro.core.variants import NO_DELETE, ONE_SHOT, RECOMPUTE, SLIDING  # noqa: E402
from repro.dags.random_dags import random_dag, random_layered_dag  # noqa: E402
from repro.solvers.anytime import _Budget, _elision_pass, refine_schedule  # noqa: E402
from repro.solvers.greedy import greedy_rbp_rows, topological_prbp_rows  # noqa: E402

SETTINGS = settings(max_examples=15, deadline=None)

#: Pinned quality bound: refined greedy cost <= PIN_FACTOR * optimum +
#: PIN_SLACK.  The factor tracks the measured worst case (3.5x, on a dense
#: instance with optimum 2); the additive slack absorbs the noise of
#: single-digit optima, where one extra I/O already moves the ratio by half.
PIN_FACTOR = 3.5
PIN_SLACK = 2

#: The four rule bundles of Appendix B; sliding is RBP-only by definition.
VARIANT_BUNDLES = [
    ("one-shot", ONE_SHOT, ("rbp", "prbp")),
    ("recompute", RECOMPUTE, ("rbp", "prbp")),
    ("sliding", SLIDING, ("rbp",)),
    ("no-delete", NO_DELETE, ("rbp", "prbp")),
]


@st.composite
def small_dags(draw, max_n=7):
    n = draw(st.integers(min_value=3, max_value=max_n))
    prob = draw(st.floats(min_value=0.15, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=50_000))
    return random_dag(n, edge_probability=prob, seed=seed)


def _input_schedule(dag, r, game, variant):
    """An input schedule valid under ``variant``.

    The exhaustive solver plays every bundle except PRBP re-computation
    (clear moves blow up its state space, so it is one-shot only there);
    that combination seeds from greedy instead — a one-shot-shaped schedule
    is legal under the strictly more permissive re-computation rules.
    """
    problem = PebblingProblem(dag, r, game=game, variant=variant)
    if game == "prbp" and variant.allow_recompute:
        return solve(problem, solver="greedy").schedule
    return solve(problem, solver="exhaustive", budget=200_000).schedule


class TestRefinedSchedulesReplayUnderEveryVariant:
    @pytest.mark.parametrize(
        "variant_name, variant, games", VARIANT_BUNDLES, ids=[b[0] for b in VARIANT_BUNDLES]
    )
    @SETTINGS
    @given(
        dag=small_dags(),
        extra=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_refined_replay_is_legal_and_no_costlier(
        self, dag, extra, seed, variant_name, variant, games
    ):
        for game in games:
            r = dag.max_in_degree + 1 + extra if game == "rbp" else 2 + extra
            try:
                schedule = _input_schedule(dag, r, game, variant)
            except SolverError:
                assume(False)  # instance infeasible / over budget for this bundle
            initial_cost = schedule.cost()
            refined, trajectory = refine_schedule(schedule, steps=32, seed=seed)
            replayed = refined.validate()  # raises on any illegal move
            assert replayed.is_terminal()
            assert replayed.io_cost == trajectory.refined_cost
            assert trajectory.refined_cost <= initial_cost == trajectory.initial_cost

    @SETTINGS
    @given(dag=small_dags(), seed=st.integers(min_value=0, max_value=1_000))
    def test_refined_greedy_schedules_replay(self, dag, seed):
        # the production path: greedy seeds (one-shot only) through refinement
        for game, r in (("prbp", 3), ("rbp", dag.max_in_degree + 2)):
            greedy = solve(PebblingProblem(dag, r, game=game), solver="greedy")
            refined, trajectory = refine_schedule(greedy.schedule, steps=48, seed=seed)
            replayed = refined.validate()
            assert replayed.is_terminal()
            assert replayed.io_cost <= greedy.cost
            assert trajectory.steps <= 48


class TestRefinementQuality:
    @SETTINGS
    @given(
        dag=small_dags(max_n=9),
        r=st.integers(min_value=2, max_value=4),
    )
    def test_refined_greedy_within_pinned_factor_of_optimum_prbp(self, dag, r):
        problem = PebblingProblem(dag, r, game="prbp")
        try:
            optimum = solve(problem, solver="exhaustive", budget=300_000)
        except SolverError:
            assume(False)  # search over budget on this instance
        greedy = solve(problem, solver="greedy")
        refined, trajectory = refine_schedule(greedy.schedule, steps=128, seed=0)
        assert trajectory.refined_cost >= optimum.cost  # sanity: bound is a bound
        assert trajectory.refined_cost <= PIN_FACTOR * optimum.cost + PIN_SLACK

    @SETTINGS
    @given(
        dag=small_dags(max_n=9),
        extra=st.integers(min_value=0, max_value=1),
    )
    def test_refined_greedy_within_pinned_factor_of_optimum_rbp(self, dag, extra):
        r = dag.max_in_degree + 1 + extra
        problem = PebblingProblem(dag, r, game="rbp")
        try:
            optimum = solve(problem, solver="exhaustive", budget=300_000)
        except SolverError:
            assume(False)
        greedy = solve(problem, solver="greedy")
        refined, trajectory = refine_schedule(greedy.schedule, steps=128, seed=0)
        assert trajectory.refined_cost >= optimum.cost
        assert trajectory.refined_cost <= PIN_FACTOR * optimum.cost + PIN_SLACK


class TestRefinementContracts:
    def test_zero_step_budget_returns_input_unchanged(self):
        dag = random_dag(6, edge_probability=0.4, seed=7)
        greedy = solve(PebblingProblem(dag, 3, game="prbp"), solver="greedy")
        refined, trajectory = refine_schedule(greedy.schedule, steps=0, seed=0)
        assert refined.moves == greedy.schedule.moves
        assert trajectory.steps == 0 and trajectory.accepted == 0
        assert trajectory.initial_cost == trajectory.refined_cost == greedy.cost

    def test_unimproved_refinement_returns_the_input_itself(self):
        # rows change only on a strictly cheaper accept, so a run that
        # accepts nothing hands back its input rather than a decoded copy
        dag = random_dag(8, edge_probability=0.35, seed=0)
        greedy = solve(PebblingProblem(dag, 3, game="prbp"), solver="greedy")
        refined, trajectory = refine_schedule(greedy.schedule, steps=0, seed=0)
        assert refined is greedy.schedule
        refined, trajectory = refine_schedule(greedy.schedule, steps=32, seed=0)
        assert trajectory.steps == 32 and trajectory.accepted == 0
        assert refined is greedy.schedule

    def test_illegal_input_schedule_is_rejected(self):
        dag = random_dag(6, edge_probability=0.4, seed=7)
        greedy = solve(PebblingProblem(dag, 3, game="prbp"), solver="greedy")
        truncated = type(greedy.schedule)(
            dag, 3, list(greedy.schedule.moves[:-2]), variant=greedy.schedule.variant
        )
        with pytest.raises(SolverError, match="does not replay"):
            refine_schedule(truncated, steps=8)

    def test_wall_clock_budget_alone_bounds_the_search(self):
        dag = random_dag(7, edge_probability=0.4, seed=11)
        greedy = solve(PebblingProblem(dag, 3, game="prbp"), solver="greedy")
        refined, trajectory = refine_schedule(
            greedy.schedule, time_budget_s=0.05, seed=0
        )
        assert refined.validate().is_terminal()
        assert trajectory.refined_cost <= greedy.cost
        # generous ceiling: the clock is only checked between attempts
        assert trajectory.wall_time_s < 5.0

    def test_trajectory_improvement_accounting(self):
        dag = random_dag(8, edge_probability=0.35, seed=3)
        greedy = solve(PebblingProblem(dag, dag.max_in_degree + 1, game="rbp"), solver="greedy")
        refined, trajectory = refine_schedule(greedy.schedule, steps=128, seed=0)
        assert trajectory.improvement == trajectory.initial_cost - trajectory.refined_cost
        assert trajectory.improvement >= 0
        if trajectory.improvement > 0:
            assert trajectory.accepted > 0
            assert trajectory.time_to_best_s <= trajectory.wall_time_s


def _inject(dag, r, variant, game, rows, seed, edits):
    """``rows`` plus up to ``edits`` redundant I/O rows (extra saves, extra
    loads, ``delete ... load`` round trips); an edit that would make the rows
    illegal or incomplete is skipped."""
    rng = random.Random(seed)
    for _ in range(edits):
        p = rng.randint(1, len(rows))
        v = rows[p - 1][1] if rng.random() < 0.7 else rng.randrange(dag.n)
        kind = rng.randrange(3)
        if kind == 0:
            trial = rows[:p] + [(OP_SAVE, v, -1)] + rows[p:]
        elif kind == 1:
            trial = rows[:p] + [(OP_LOAD, v, -1)] + rows[p:]
        else:
            q = rng.randint(p, min(len(rows), p + 15))
            trial = rows[:p] + [(OP_DELETE, v, -1)] + rows[p:q] + [(OP_LOAD, v, -1)] + rows[q:]
        if replay_io_cost(dag, r, variant, game, trial) is not None:
            rows = trial
    return rows


@st.composite
def elision_inputs(draw):
    """A legal, complete greedy schedule with injected redundant I/O."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=12))
    while sum(sizes) > 60:
        sizes.pop()
    dag = random_layered_dag(
        sizes,
        edge_probability=draw(st.floats(min_value=0.15, max_value=0.5)),
        seed=draw(st.integers(min_value=0, max_value=50_000)),
    )
    game = draw(st.sampled_from(["rbp", "prbp"]))
    variant = draw(st.sampled_from([v for _, v, games in VARIANT_BUNDLES if game in games]))
    if not variant.allow_delete:
        r = dag.n  # the greedy builders evict by deleting
    else:
        r = (dag.max_in_degree + 1 if game == "rbp" else 2) + draw(st.integers(0, 3))
    build = greedy_rbp_rows if game == "rbp" else topological_prbp_rows
    rows = build(dag, r, list(dag.topological_order), variant)
    seed, edits = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 40))
    return dag, r, variant, game, _inject(dag, r, variant, game, rows, seed, edits)


def _run_both(dag, r, variant, game, rows, steps=None):
    """``(rows, cost, accepts, budget steps)`` of the pass and of its oracle."""
    cost = replay_io_cost(dag, r, variant, game, rows)
    assert cost is not None
    outcomes = []
    for elide in (_elision_pass, oracle_elision_pass):
        budget, accepts = _Budget(steps, None), []
        out_rows, out_cost = elide(
            dag, r, list(rows), cost, variant, game, budget,
            lambda m, c: accepts.append((list(m), c)),
        )
        outcomes.append((out_rows, out_cost, accepts, budget.steps))
    return outcomes


class TestElisionOracle:
    """The one-sweep pass against the restarting pass it replaced."""

    @settings(deadline=None)
    @given(
        case=elision_inputs(),
        steps=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    )
    def test_same_trials_and_removals_as_the_oracle(self, case, steps):
        dag, r, variant, game, rows = case
        mine, oracle = _run_both(dag, r, variant, game, rows, steps)
        assert mine == oracle

    def test_a_dropped_last_load_makes_an_earlier_save_removable(self):
        # s -> v -> t: the load of v is redundant (v is still red) and is
        # v's last load; removing it makes the earlier save of v a
        # candidate *before* the accept point, which is taken next
        dag = ComputationalDAG(3, [(0, 1), (1, 2)])
        rows = [
            (OP_LOAD, 0, -1),
            (OP_COMPUTE, 1, -1),
            (OP_SAVE, 1, -1),
            (OP_LOAD, 1, -1),
            (OP_COMPUTE, 2, -1),
            (OP_SAVE, 2, -1),
        ]
        mine, oracle = _run_both(dag, 3, ONE_SHOT, "rbp", rows)
        assert mine == oracle
        out_rows, cost, accepts, steps = mine
        assert [len(m) for m, _ in accepts] == [5, 4] and steps == 2
        assert out_rows == [rows[0], rows[1], rows[4], rows[5]] and cost == 2

    def test_the_pass_stops_after_the_capped_number_of_accepts(self):
        dag = random_layered_dag([8, 10, 10, 10, 8], edge_probability=0.3, seed=5)
        r = dag.max_in_degree + 1
        rows = greedy_rbp_rows(dag, r, list(dag.topological_order), ONE_SHOT)
        # a second save of a saved value (still red: deletes are allowed) is free I/O
        padded = []
        for row in rows:
            padded.append(row)
            if row[0] == OP_SAVE:
                padded.append(row)
        assert padded.count((OP_SAVE, dag.sinks[0], -1)) == 2
        assert len(padded) - len(rows) > MAX_SWEEPS
        mine, oracle = _run_both(dag, r, ONE_SHOT, "rbp", padded)
        assert mine == oracle
        out_rows, _, accepts, _ = mine
        assert len(accepts) == MAX_SWEEPS
        # the cap, not a fixed point, ended the pass: another pass removes more
        _, _, more, _ = _run_both(dag, r, ONE_SHOT, "rbp", out_rows)[0]
        assert more
