"""Tests for the exact solvers, reproducing the paper's small-instance claims."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from exhaustive_oracle import _astar as oracle_astar
from exhaustive_oracle import _PRBPSearch as OraclePRBPSearch
from exhaustive_oracle import _RBPSearch as OracleRBPSearch
from exhaustive_oracle import _reconstruct as oracle_reconstruct
from repro.core.dag import ComputationalDAG
from repro.core.exceptions import SolverError
from repro.core.moves import encode_moves
from repro.core.pebbles import PRBPState
from repro.core.variants import ONE_SHOT, GameVariant, NO_DELETE, RECOMPUTE, SLIDING
from repro.dags import (
    binary_tree_instance,
    chained_gadget_instance,
    figure1_instance,
    kary_tree_instance,
    pebble_collection_instance,
    random_dag,
    random_layered_dag,
)
from repro.dags.trees import optimal_prbp_tree_cost, optimal_rbp_tree_cost
from repro.obs.recorder import recording
from repro.solvers.exhaustive import (
    _astar,
    _PRBPSearch,
    _RBPSearch,
    _reconstruct,
    optimal_prbp_cost,
    optimal_prbp_schedule,
    optimal_rbp_cost,
    optimal_rbp_schedule,
    root_lower_bound,
)


class TestProposition42:
    """Figure 1 at r = 4: OPT_RBP = 3, OPT_PRBP = 2."""

    def test_rbp_optimum(self):
        dag = figure1_instance().dag
        assert optimal_rbp_cost(dag, 4) == 3

    def test_prbp_optimum(self):
        dag = figure1_instance().dag
        assert optimal_prbp_cost(dag, 4) == 2

    def test_schedules_are_valid_and_match_cost(self):
        dag = figure1_instance().dag
        rbp_schedule = optimal_rbp_schedule(dag, 4)
        prbp_schedule = optimal_prbp_schedule(dag, 4)
        assert rbp_schedule.cost() == 3
        assert prbp_schedule.cost() == 2
        assert rbp_schedule.stats().peak_red <= 4
        assert prbp_schedule.stats().peak_red <= 4

    def test_larger_cache_removes_the_gap(self):
        # with r = 5 the RBP strategy can keep u1 and u2 alive simultaneously
        dag = figure1_instance().dag
        assert optimal_rbp_cost(dag, 5) == 2
        assert optimal_prbp_cost(dag, 5) == 2


class TestTreesSmall:
    def test_binary_depth2(self):
        inst = binary_tree_instance(2)
        assert optimal_rbp_cost(inst.dag, 3) == optimal_rbp_tree_cost(2, 2)
        assert optimal_prbp_cost(inst.dag, 3) == optimal_prbp_tree_cost(2, 2)

    def test_binary_depth3_prbp_beats_rbp(self):
        inst = binary_tree_instance(3)
        rbp = optimal_rbp_cost(inst.dag, 3)
        prbp = optimal_prbp_cost(inst.dag, 3)
        assert rbp == optimal_rbp_tree_cost(2, 3) == 15
        assert prbp == optimal_prbp_tree_cost(2, 3) == 11
        assert prbp < rbp

    def test_ternary_depth2(self):
        inst = kary_tree_instance(3, 2)
        assert optimal_rbp_cost(inst.dag, 4) == optimal_rbp_tree_cost(3, 2)
        # depth < k: PRBP only pays the trivial cost
        assert optimal_prbp_cost(inst.dag, 4) == optimal_prbp_tree_cost(3, 2) == 10


class TestSmallGadgets:
    def test_collection_gadget_trivial_with_full_pebbles(self):
        inst = pebble_collection_instance(d=2, length=6)
        assert optimal_rbp_cost(inst.dag, 4) == inst.dag.trivial_cost()
        assert optimal_prbp_cost(inst.dag, 4) == inst.dag.trivial_cost()

    def test_collection_gadget_costs_more_with_fewer_pebbles(self):
        inst = pebble_collection_instance(d=2, length=6)
        assert optimal_prbp_cost(inst.dag, 3) > inst.dag.trivial_cost()

    def test_single_chained_copy_matches_figure1_behaviour(self):
        inst = chained_gadget_instance(1)
        assert optimal_prbp_cost(inst.dag, 4) == 2
        assert optimal_rbp_cost(inst.dag, 4) >= 3

    def test_proposition41_on_random_small_dags(self):
        # OPT_PRBP <= OPT_RBP whenever both are defined
        for seed in range(4):
            dag = random_layered_dag([2, 3, 2], edge_probability=0.4, max_in_degree=2, seed=seed)
            r = dag.max_in_degree + 1
            assert optimal_prbp_cost(dag, r) <= optimal_rbp_cost(dag, r)


class TestInfeasibilityAndLimits:
    def test_rbp_infeasible_when_r_too_small(self):
        dag = figure1_instance().dag
        with pytest.raises(SolverError):
            optimal_rbp_cost(dag, 2)

    def test_prbp_needs_two_pebbles(self):
        dag = figure1_instance().dag
        with pytest.raises(SolverError):
            optimal_prbp_cost(dag, 1)

    def test_state_budget_is_enforced(self):
        inst = binary_tree_instance(3)
        with pytest.raises(SolverError):
            optimal_rbp_cost(inst.dag, 3, max_states=5)

    def test_prbp_solver_rejects_recompute_variant(self):
        dag = figure1_instance().dag
        with pytest.raises(SolverError):
            optimal_prbp_cost(dag, 4, variant=RECOMPUTE)


class TestVariantOptimality:
    """Appendix B: behaviour of the model variants on the Figure 1 family."""

    def test_recomputation_helps_rbp_on_figure1(self):
        dag = figure1_instance().dag
        assert optimal_rbp_cost(dag, 4, variant=RECOMPUTE) == 2

    def test_z_layer_restores_the_gap_under_recomputation(self):
        inst = figure1_instance(with_z_layer=True)
        assert optimal_rbp_cost(inst.dag, 4, variant=RECOMPUTE) == 3
        assert optimal_prbp_cost(inst.dag, 4) == 2

    def test_sliding_helps_rbp_on_figure1(self):
        dag = figure1_instance().dag
        assert optimal_rbp_cost(dag, 4, variant=SLIDING) == 2

    def test_w0_node_restores_the_gap_under_sliding(self):
        inst = figure1_instance(with_w0=True)
        assert optimal_rbp_cost(inst.dag, 4, variant=SLIDING) == 3
        assert optimal_prbp_cost(inst.dag, 4) == 2

    def test_no_delete_lower_bound(self):
        # Appendix B.4: without deletion, OPT_PRBP >= n - r
        inst = binary_tree_instance(2)
        dag = inst.dag
        r = 3
        cost = optimal_prbp_cost(dag, r, variant=NO_DELETE)
        assert cost >= dag.n - r
        assert cost >= optimal_prbp_cost(dag, r)

    def test_compute_costs_added_to_total(self):
        dag = figure1_instance().dag
        schedule = optimal_rbp_schedule(dag, 4, variant=GameVariant(compute_cost=0.125))
        stats = schedule.stats()
        assert stats.io_cost == 3
        assert stats.total_cost == pytest.approx(3 + 0.125 * stats.computes)


class TestBitHelpers:
    def test_popcount_matches_reference_on_wide_masks(self):
        from repro.solvers.exhaustive import _popcount

        cases = [0, 1, 2, 3, (1 << 63) - 1, 1 << 63, (1 << 200) | (1 << 7) | 1]
        rng_like = 0x9E3779B97F4A7C15
        for k in range(64):
            cases.append((rng_like * (k + 1)) & ((1 << 128) - 1))
        for x in cases:
            assert _popcount(x) == bin(x).count("1")


VARIANTS = [ONE_SHOT, RECOMPUTE, SLIDING, NO_DELETE]

#: Each game's variants the searches accept.
GAME_VARIANTS = {
    "rbp": VARIANTS + [GameVariant(compute_cost=0.125)],
    "prbp": [ONE_SHOT, NO_DELETE, GameVariant(compute_cost=0.125, split_compute_cost=True)],
}

#: Each game's library search and its oracle (``tests/exhaustive_oracle.py``).
SEARCHES = {"rbp": (_RBPSearch, OracleRBPSearch), "prbp": (_PRBPSearch, OraclePRBPSearch)}


def _min_r(dag, game, variant):
    """The smallest ``r`` the search accepts."""
    if game == "prbp":
        return 2
    return dag.max_in_degree + (0 if variant.allow_sliding else 1)


@st.composite
def tiny_dags(draw):
    """A random DAG or random layered DAG of 3–9 nodes."""
    seed = draw(st.integers(min_value=0, max_value=50_000))
    prob = draw(st.floats(min_value=0.1, max_value=0.6))
    if draw(st.booleans()):
        return random_dag(draw(st.integers(min_value=3, max_value=9)), prob, seed=seed)
    layers = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
    while sum(layers) > 9:
        layers.pop()
    if len(layers) < 2:
        layers = [2, 2]
    return random_layered_dag(layers, prob, max_in_degree=3, seed=seed)


def _oracle_outcome(search):
    """The optimum (or the failure) of one oracle A* run, and its counters."""
    with recording() as recorder:
        try:
            outcome = oracle_astar(search, search.max_states)[0]
        except SolverError as exc:
            outcome = str(exc)
    telemetry = recorder.search
    return (
        outcome,
        telemetry.expanded,
        telemetry.frontier_peak,
        telemetry.dominated_pruned,
        telemetry.completed,
    )


class TestRootFloor:
    """A* floors every f-value at the trivial cost, and never needs to."""

    def test_floor_is_the_trivial_cost_in_every_game_and_variant(self):
        for dag in (figure1_instance().dag, binary_tree_instance(3).dag):
            for game in ("rbp", "prbp"):
                for variant in VARIANTS:
                    assert root_lower_bound(dag, 4, game, variant) == dag.trivial_cost()

    def test_floor_is_zero_with_an_isolated_node(self):
        dag = ComputationalDAG(4, [(0, 1), (1, 2)])  # node 3 is isolated
        assert dag.trivial_cost() > 0
        for game in ("rbp", "prbp"):
            assert root_lower_bound(dag, 3, game, ONE_SHOT) == 0


class TestTheFloorNeverBinds:
    """``g + h`` never falls below the trivial cost: every source not yet
    loaded and every sink not yet saved is counted by the heuristic.  The
    oracle's A* floors each f-value at :func:`root_lower_bound`; it runs the
    same with that floor dropped to 0, so the floor never binds, and the
    library's A*, which applies none, matches the oracle
    (:class:`TestOracleDifferential`).  A heuristic that stops counting
    either term lets the floor raise f-values and fails here."""

    @settings(deadline=None)
    @given(
        dag=tiny_dags(),
        game=st.sampled_from(sorted(SEARCHES)),
        variant_draw=st.integers(min_value=0, max_value=3),
        extra_r=st.integers(min_value=0, max_value=3),
    )
    # the depth-3 binary tree at the smallest r catches a dropped source or
    # sink term in either heuristic even when the draws miss it
    @example(dag=binary_tree_instance(3).dag, game="rbp", variant_draw=0, extra_r=0)
    @example(dag=binary_tree_instance(3).dag, game="prbp", variant_draw=0, extra_r=0)
    def test_a_zero_floor_changes_nothing(self, dag, game, variant_draw, extra_r):
        search_cls = SEARCHES[game][1]
        variants = GAME_VARIANTS[game]
        variant = variants[variant_draw % len(variants)]
        r = max(1, _min_r(dag, game, variant)) + extra_r
        floored = search_cls(dag, r, variant, 5_000)
        unfloored = search_cls(dag, r, variant, 5_000)
        unfloored.root_bound = 0
        assert _oracle_outcome(floored) == _oracle_outcome(unfloored), (game, r, variant)


#: Layer shapes and edge probabilities of perfbench's exact strata (in-degree
#: capped at 2): 7 to 12 nodes, where PRBP searches run into the budget.
STRATA_SHAPES = [
    ((3, 3, 3, 1), 1.0),
    ((3, 3, 3, 2), 1.0),
    ((3, 3, 3, 2, 1), 1.0),
    ((3, 2, 2), 0.6),
    ((2, 3, 2, 1), 0.6),
    ((2, 2, 2, 2, 1), 0.6),
    ((3, 3, 2), 0.6),
    ((3, 3, 2, 1), 0.6),
]


@st.composite
def strata_dags(draw):
    """A layered DAG shaped like one of perfbench's exact strata."""
    shape, prob = draw(st.sampled_from(STRATA_SHAPES))
    seed = draw(st.integers(min_value=0, max_value=50_000))
    return random_layered_dag(shape, prob, max_in_degree=2, seed=seed)


def _rows_and_counters(search_cls, astar, rows_of, dag, r, variant):
    """The rows one search returns (or its exception class and message),
    and the counters of its A* run."""
    with recording() as recorder:
        try:
            search = search_cls(dag, r, variant, 5_000)
            _, goal, parent = astar(search, search.max_states)
            outcome = rows_of(parent, goal)
        except SolverError as exc:
            outcome = (type(exc), str(exc))
    telemetry = recorder.search
    if telemetry is None:  # the search refused the instance before A* ran
        return outcome, None
    counters = (telemetry.expanded, telemetry.frontier_peak, telemetry.dominated_pruned)
    return outcome, counters + (telemetry.completed,)


class TestOracleDifferential:
    """The mask-state searches with row moves run the same A* as the oracle:
    identical rows (or the same exception class and message) and identical
    expanded, frontier-peak, dominance-prune and completion counters, for
    every variant each search accepts and ``r`` from the minimum up by 3."""

    @settings(deadline=None)
    @given(
        dag=st.one_of(tiny_dags(), strata_dags()),
        game=st.sampled_from(sorted(SEARCHES)),
        variant_draw=st.integers(min_value=0, max_value=4),
        extra_r=st.integers(min_value=0, max_value=3),
    )
    @example(dag=binary_tree_instance(3).dag, game="prbp", variant_draw=0, extra_r=0)
    @example(dag=figure1_instance().dag, game="rbp", variant_draw=2, extra_r=0)
    def test_rows_and_counters_match_the_oracle(self, dag, game, variant_draw, extra_r):
        variants = GAME_VARIANTS[game]
        variant = variants[variant_draw % len(variants)]
        r = max(1, _min_r(dag, game, variant)) + extra_r
        library_cls, oracle_cls = SEARCHES[game]
        ours = _rows_and_counters(library_cls, _astar, _reconstruct, dag, r, variant)
        oracle = _rows_and_counters(
            oracle_cls,
            oracle_astar,
            lambda parent, goal: encode_moves(game, oracle_reconstruct(parent, goal)),
            dag,
            r,
            variant,
        )
        assert ours == oracle, (game, r, variant, dag.edges)

    @settings(deadline=None)
    @given(
        dag=st.one_of(tiny_dags(), strata_dags()),
        game=st.sampled_from(sorted(SEARCHES)),
        variant_draw=st.integers(min_value=0, max_value=4),
        extra_r=st.integers(min_value=0, max_value=3),
    )
    def test_every_step_matches_the_oracle(self, dag, game, variant_draw, extra_r):
        # Breadth-first over the oracle's first 200 states: the same
        # heuristic, goal test and dominance pair, and the same successors
        # with the same costs and rows in the same order, state by state.
        # Successor order decides heap ties, but on many instances a changed
        # order still ends in the same rows and counters.
        variants = GAME_VARIANTS[game]
        variant = variants[variant_draw % len(variants)]
        r = max(1, _min_r(dag, game, variant)) + extra_r
        library_cls, oracle_cls = SEARCHES[game]
        ours, oracle = library_cls(dag, r, variant, 0), oracle_cls(dag, r, variant, 0)
        to_masks = _prbp_masks if game == "prbp" else (lambda n, state: state)
        frontier = deque([oracle.initial()])
        seen = set(frontier)
        assert ours.initial() == to_masks(dag.n, oracle.initial())
        for _ in range(200):
            if not frontier:
                break
            state = frontier.popleft()
            mine = to_masks(dag.n, state)
            assert ours.heuristic(mine) == oracle.heuristic(state)
            assert ours.is_goal(mine) == oracle.is_goal(state)
            dom = oracle.dominance(state)
            assert ours.dominance(mine) == (None if dom is None else (to_masks(dag.n, dom[0]), dom[1]))
            successors = list(oracle.successors(state))
            assert [(s, c, list(rows)) for s, c, rows in ours.successors(mine)] == [
                (to_masks(dag.n, s), c, encode_moves(game, moves)) for s, c, moves in successors
            ], (game, r, variant, dag.edges, state)
            for new_state, _, _ in successors:
                if new_state not in seen:
                    seen.add(new_state)
                    frontier.append(new_state)


def _prbp_masks(n, state):
    """The oracle's ``(codes, marked)`` PRBP state as ``(red, blue, marked)``."""
    codes, marked = state
    red = blue = 0
    for v in range(n):
        st_v = PRBPState((codes >> (2 * v)) & 3)
        if st_v.has_red:
            red |= 1 << v
        if st_v in (PRBPState.BLUE, PRBPState.BLUE_LIGHT_RED):
            blue |= 1 << v
    return red, blue, marked
