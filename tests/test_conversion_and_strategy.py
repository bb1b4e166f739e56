"""Tests for schedule containers, statistics and the Proposition 4.1 conversion."""

import pytest

from repro.core.conversion import convert_rbp_to_prbp
from repro.core.dag import ComputationalDAG
from repro.core.exceptions import IllegalMoveError
from repro.core.moves import MoveKind, rbp
from repro.core.strategy import RBPSchedule
from repro.dags import (
    binary_tree_instance,
    fft_instance,
    figure1_instance,
    pebble_collection_instance,
    random_layered_dag,
    zipper_instance,
)
from repro.solvers.exhaustive import optimal_rbp_schedule
from repro.solvers.greedy import greedy_rbp_schedule
from repro.solvers.structured import (
    collection_full_rbp_schedule,
    fft_blocked_rbp_schedule,
    figure1_rbp_schedule,
    tree_rbp_schedule,
    zipper_rbp_schedule,
)


class TestScheduleContainers:
    def test_stats_counts_moves(self):
        schedule = figure1_rbp_schedule()
        stats = schedule.stats()
        assert stats.io_cost == 3
        assert stats.loads == 2
        assert stats.saves == 1
        assert stats.computes == 9  # u1, u2, w1..w4, v1, v2, v0
        assert stats.moves == len(schedule)

    def test_prbp_subsequence_boundaries(self):
        from repro.solvers.structured import matvec_prbp_schedule

        schedule = matvec_prbp_schedule(m=3)
        boundaries = schedule.io_subsequence_boundaries()
        assert len(boundaries) == schedule.cost() // schedule.r
        assert boundaries == sorted(boundaries)

    def test_invalid_schedule_raises_on_validate(self):
        inst = figure1_instance()
        schedule = RBPSchedule(inst.dag, 4, [rbp.compute(inst.w3)])
        with pytest.raises(IllegalMoveError):
            schedule.validate()


class TestProposition41Conversion:
    """Any RBP schedule converts to a PRBP schedule of the same I/O cost."""

    def _check(self, rbp_schedule):
        prbp_schedule = convert_rbp_to_prbp(rbp_schedule)
        game = prbp_schedule.validate()
        assert game.io_cost == rbp_schedule.cost()
        assert prbp_schedule.stats().peak_red <= rbp_schedule.r

    def test_figure1(self):
        self._check(figure1_rbp_schedule())

    def test_exhaustive_optimum(self):
        self._check(optimal_rbp_schedule(figure1_instance().dag, 4))

    def test_trees(self):
        self._check(tree_rbp_schedule(binary_tree_instance(4)))

    def test_zipper(self):
        self._check(zipper_rbp_schedule(zipper_instance(3, 7)))

    def test_collection(self):
        self._check(collection_full_rbp_schedule(pebble_collection_instance(3, 9)))

    def test_fft(self):
        self._check(fft_blocked_rbp_schedule(fft_instance(16), r=8))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_layered_greedy_schedules(self, seed):
        dag = random_layered_dag([3, 4, 4, 2], edge_probability=0.35, max_in_degree=3, seed=seed)
        r = dag.max_in_degree + 1
        self._check(greedy_rbp_schedule(dag, r))

    def test_move_translation_expands_computes(self):
        dag = ComputationalDAG(3, [(0, 2), (1, 2)])
        moves = [rbp.load(0), rbp.load(1), rbp.compute(2), rbp.save(2)]
        prbp_moves = convert_rbp_to_prbp(RBPSchedule(dag, 3, moves)).moves
        computes = [m for m in prbp_moves if m.kind is MoveKind.COMPUTE]
        assert len(computes) == 2
        assert {m.edge for m in computes} == {(0, 2), (1, 2)}

    def test_redundant_saves_become_loads(self):
        # saves of a node whose red pebble came from a load or a save copy a
        # value slow memory already holds; PRBP forbids saving a light red
        # pebble, so each must become an equally priced load
        dag = ComputationalDAG(3, [(0, 2), (1, 2)])
        moves = [
            rbp.load(0),
            rbp.save(0),  # redundant: 0 was just loaded
            rbp.load(1),
            rbp.compute(2),
            rbp.save(2),
            rbp.save(2),  # redundant: 2 was just saved
            rbp.delete(0),
            rbp.load(0),
            rbp.save(0),  # redundant: 0 was reloaded
        ]
        rbp_schedule = RBPSchedule(dag, 3, moves)
        prbp_schedule = convert_rbp_to_prbp(rbp_schedule)
        assert prbp_schedule.cost() == rbp_schedule.cost() == 7
        io = [(m.kind, m.node) for m in prbp_schedule.moves if m.is_io]
        L, S = MoveKind.LOAD, MoveKind.SAVE
        assert io == [(L, 0), (L, 0), (L, 1), (S, 2), (L, 2), (L, 0), (L, 0)]

    def test_sliding_moves_cannot_be_converted(self):
        dag = ComputationalDAG(2, [(0, 1)])
        with pytest.raises(IllegalMoveError):
            convert_rbp_to_prbp(RBPSchedule(dag, 2, [rbp.compute(1, slide_from=0)]))
