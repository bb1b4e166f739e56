"""Tests for the repro.api facade: problem, registry, portfolio dispatch, results."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    PebblingProblem,
    ResultCache,
    SolveResult,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solve_many,
    solver_names,
    unregister_solver,
)
from repro.core import schedule_ir
from repro.core.dag import ComputationalDAG, DAGFamily
from repro.core.exceptions import IllegalMoveError, SolverError
from repro.core.moves import PRBPMove, RBPMove, rbp
from repro.core.prbp import PRBPGame
from repro.core.rbp import RBPGame
from repro.core.strategy import PRBPSchedule, RBPSchedule
from repro.core.variants import ONE_SHOT
from repro.dags import (
    attention_dag,
    chained_gadget_dag,
    fanin_groups_dag,
    fft_dag,
    figure1_gadget,
    kary_tree_dag,
    matmul_dag,
    matvec_dag,
    pebble_collection_gadget,
    pyramid_dag,
    random_layered_dag,
    zipper_gadget,
)
from repro.api import bounds
from repro.api.bounds import authenticated_instance, authenticated_instance_cache_clear
from repro.bounds.hongkung import rbp_lower_bound_exact
from repro.bounds.prbp_bounds import prbp_dominator_lower_bound_exact, prbp_edge_lower_bound_exact
from repro.service import protocol
from repro.solvers import anytime
from repro.solvers.exhaustive import root_lower_bound
from repro.solvers.greedy import topological_prbp_schedule


class TestPebblingProblem:
    def test_validation(self):
        dag = figure1_gadget()
        with pytest.raises(ValueError):
            PebblingProblem(dag, r=4, game="hybrid")
        with pytest.raises(ValueError):
            PebblingProblem(dag, r=0)
        with pytest.raises(TypeError):
            PebblingProblem("not a dag", r=4)

    def test_views_and_transforms(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        assert problem.n == 15
        assert problem.family.name == "kary_tree"
        assert problem.family.param("k") == 2
        assert problem.trivial_cost == 8 + 1
        assert problem.with_game("rbp").game == "rbp"
        assert problem.with_r(5).r == 5
        assert "kary_tree" in problem.describe()


class TestRegistry:
    def test_builtins_are_registered(self):
        names = solver_names()
        for expected in ("exhaustive", "greedy", "naive", "tree", "fft-blocked"):
            assert expected in names

    def test_duplicate_name_raises(self):
        @register_solver("test-dup", games=("prbp",))
        def first(problem, **options):
            return topological_prbp_schedule(problem.dag, problem.r)

        try:
            with pytest.raises(ValueError):
                @register_solver("test-dup", games=("prbp",))
                def second(problem, **options):
                    return topological_prbp_schedule(problem.dag, problem.r)
        finally:
            unregister_solver("test-dup")

    def test_bad_game_tag_raises(self):
        with pytest.raises(ValueError):
            register_solver("test-bad-game", games=("chess",))

    def test_unknown_solver_raises_with_known_names(self):
        with pytest.raises(SolverError, match="exhaustive"):
            get_solver("no-such-solver")

    def test_list_solvers_filters(self):
        exact_prbp = [info.name for info in list_solvers(game="prbp", exact=True)]
        assert exact_prbp == ["exhaustive"]
        rbp = [info.name for info in list_solvers(game="rbp")]
        assert "greedy" in rbp and "matmul-tiled" not in rbp
        fft_capable = [info.name for info in list_solvers(game="prbp", family="fft")]
        assert "fft-blocked" in fft_capable and "tree" not in fft_capable
        assert "greedy" in fft_capable  # family-agnostic solvers always qualify

    def test_custom_solver_roundtrip(self):
        @register_solver("test-custom", games=("prbp",), description="test only")
        def custom(problem, **options):
            return topological_prbp_schedule(problem.dag, problem.r)

        try:
            result = solve(PebblingProblem(pyramid_dag(3), r=4), solver="test-custom")
            assert result.solver == "test-custom"
            assert result.cost == result.schedule.cost()
        finally:
            unregister_solver("test-custom")

    def test_illegal_custom_schedule_raises_in_solve(self):
        @register_solver("test-illegal", games=("rbp",), description="test only")
        def illegal(problem, **options):
            # computes the sink before loading either of its inputs
            return RBPSchedule(problem.dag, problem.r, [rbp.compute(2)])

        try:
            problem = PebblingProblem(ComputationalDAG(3, [(0, 2), (1, 2)]), r=3, game="rbp")
            # the kernel refuses the schedule; the error is the engine's own
            with pytest.raises(IllegalMoveError, match="inputs without a red pebble"):
                solve(problem, solver="test-illegal")
        finally:
            unregister_solver("test-illegal")


# (dag, r, game, expected winning solver) — all DAGs large enough to skip the
# exhaustive step, so the family match must win over the greedy fallback.
FAMILY_CASES = [
    (chained_gadget_dag(4), 4, "prbp", "chained-gadget"),
    (zipper_gadget(3, 10), 5, "prbp", "zipper"),
    (zipper_gadget(3, 10), 5, "rbp", "zipper"),
    (pebble_collection_gadget(3, 15), 5, "prbp", "collection"),
    (kary_tree_dag(2, 4), 3, "prbp", "tree"),
    (kary_tree_dag(2, 4), 3, "rbp", "tree"),
    (matvec_dag(4), 7, "prbp", "matvec-streaming"),
    (matmul_dag(3, 3, 3), 9, "prbp", "matmul-tiled"),
    (fft_dag(64), 16, "prbp", "fft-blocked"),
    (fft_dag(64), 16, "rbp", "fft-blocked"),
    (attention_dag(4, 2), 8, "prbp", "attention-flash"),
    (fanin_groups_dag(7, 5), 3, "prbp", "fanin-streaming"),
]


class TestAutoDispatch:
    def test_small_dag_uses_exhaustive(self):
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="rbp"))
        assert result.solver == "exhaustive"
        assert result.exact_solver and result.optimal
        assert result.cost == 3

    @pytest.mark.parametrize(
        "dag,r,game,expected", FAMILY_CASES, ids=[c[3] + "-" + c[2] for c in FAMILY_CASES]
    )
    def test_family_tagged_dags_pick_structured_strategy(self, dag, r, game, expected):
        assert dag.n > 14  # too large for the exhaustive step of the portfolio
        result = solve(PebblingProblem(dag, r, game=game))
        assert result.solver == expected, f"expected {expected}, portfolio chose {result.solver}"
        # the reported cost is the replayed schedule cost
        assert result.cost == result.schedule.cost()
        assert result.stats.peak_red <= r
        assert result.lower_bound is not None and result.cost >= result.lower_bound

    def test_untagged_dag_falls_back_to_greedy(self):
        dag = random_layered_dag([6, 8, 8, 6], edge_probability=0.3, max_in_degree=4, seed=1)
        result = solve(PebblingProblem(dag, r=6, game="prbp"))
        assert result.solver == "greedy"
        assert result.cost == result.schedule.cost()

    def test_budget_overrun_falls_through_to_structured(self):
        # 14 nodes: exhaustive is attempted but a tiny budget forces the
        # portfolio onto the family strategy instead of failing outright.
        dag = zipper_gadget(3, 8)
        assert dag.n == 14
        result = solve(PebblingProblem(dag, r=5, game="prbp"), budget=50)
        assert result.solver == "zipper"

    def test_capacity_below_every_solver_raises(self):
        # RBP needs r >= max in-degree + 1 = 3 on a binary tree; the tree
        # strategy needs r >= 3 too, so r = 2 must raise, not mis-solve.
        with pytest.raises(SolverError, match="no solver could handle"):
            solve(PebblingProblem(kary_tree_dag(2, 4), r=2, game="rbp"))

    def test_tree_at_critical_capacity_is_provably_optimal(self):
        result = solve(PebblingProblem(kary_tree_dag(2, 5), r=3, game="prbp"))
        assert result.solver == "tree"
        assert not result.exact_solver
        assert result.optimal  # cost meets the Appendix A.2 closed form
        assert result.lower_bound_source == "appA.2"


class TestNamedDispatch:
    def test_named_solver_below_family_minimum_raises(self):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=2, game="prbp")
        with pytest.raises(SolverError, match="r >= 3"):
            solve(problem, solver="tree")

    def test_named_solver_wrong_game_raises(self):
        problem = PebblingProblem(matmul_dag(2, 2, 2), r=8, game="rbp")
        with pytest.raises(SolverError, match="plays prbp"):
            solve(problem, solver="matmul-tiled")

    def test_named_solver_wrong_family_raises(self):
        problem = PebblingProblem(fft_dag(8), r=4, game="prbp")
        with pytest.raises(SolverError, match="restricted to the families"):
            solve(problem, solver="tree")

    def test_forged_family_tag_is_rejected(self):
        dag = pyramid_dag(4)
        dag.family = DAGFamily.tag("kary_tree", k=2, depth=3)
        with pytest.raises(SolverError, match="does not reproduce"):
            solve(PebblingProblem(dag, r=5, game="prbp"), solver="tree")

    def test_malformed_family_tag_raises_solver_error_not_typeerror(self):
        # a tag missing its parameters must not leak a TypeError from min_r
        dag = pyramid_dag(4)
        dag.family = DAGFamily.tag("matvec")  # no "m" recorded
        with pytest.raises(SolverError, match="minimum capacity"):
            solve(PebblingProblem(dag, r=10, game="prbp"), solver="matvec-streaming")

    def test_malformed_family_tag_degrades_to_greedy_in_auto(self):
        dag = random_layered_dag([6, 8, 8, 6], edge_probability=0.3, max_in_degree=4, seed=2)
        dag.family = DAGFamily.tag("kary_tree")  # no k/depth recorded
        result = solve(PebblingProblem(dag, r=6, game="prbp"), exact_node_limit=0)
        assert result.solver == "greedy"

    def test_exhaustive_honours_budget(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        with pytest.raises(SolverError, match="budget"):
            solve(problem, solver="exhaustive", budget=3)

    def test_auto_honours_budget_zero(self):
        # budget=0 must not silently become the 500k default: the exhaustive
        # step fails immediately and the portfolio moves on.
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"), budget=0)
        assert result.solver == "figure1"  # family strategy, not exhaustive


class TestSolveResult:
    def test_replayed_cost_and_flags(self):
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
        assert isinstance(result, SolveResult)
        assert result.cost == 2 == result.schedule.cost()
        assert result.optimal and not result.upper_bound
        assert result.gap == result.cost - result.lower_bound
        assert result.problem.variant == ONE_SHOT
        assert "cost 2" in result.describe()

    def test_upper_bound_flagging(self):
        result = solve(PebblingProblem(fft_dag(16), r=4, game="prbp"))
        assert not result.exact_solver
        assert result.upper_bound  # neither strategy is known optimal here
        assert result.lower_bound is not None

    def test_auto_prefers_greedy_when_it_beats_the_family_strategy(self):
        # away from the critical capacity r = k + 1, the fixed tree schedule
        # is beatable; the portfolio must not return the worse schedule
        result = solve(PebblingProblem(kary_tree_dag(2, 4), r=17, game="rbp"))
        assert result.solver == "greedy"
        assert result.cost == 17  # trivial cost: everything fits in cache
        assert result.optimal

    def test_stale_family_tag_contributes_no_closed_form_bound(self):
        # a tag copied onto a graph it does not describe must not smuggle in
        # the closed-form bound of the full family instance
        sub = kary_tree_dag(2, 3).induced_subgraph(range(7))
        sub.family = DAGFamily.tag("kary_tree", k=2, depth=3)
        result = solve(PebblingProblem(sub, r=3, game="prbp"), exact_node_limit=0)
        assert result.lower_bound == sub.trivial_cost()  # 5, not the 11 of the full tree
        assert result.lower_bound_source == "trivial"
        assert result.cost >= result.lower_bound

    def test_inconsistent_lower_bound_raises_instead_of_proving_optimality(self):
        from repro.core.exceptions import PebblingError

        good = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
        from dataclasses import replace

        broken = replace(good, lower_bound=good.cost + 1, exact_solver=False)
        with pytest.raises(PebblingError, match="strictly below"):
            broken.optimal


def _relabelled(dag):
    """The same graph shape under reversed node ids, carrying ``dag``'s tag."""
    last = dag.n - 1
    edges = [(last - u, last - v) for u, v in dag.edges]
    return ComputationalDAG(dag.n, edges, family=dag.family)


def _memo_nodes():
    return sum(inst.dag.n for inst in bounds._TAG_MEMO.values())


class TestTagAuthentication:
    """``authenticated_instance`` is the one tag check; its memo proves nothing on its own."""

    def test_copied_tag_is_refused_by_the_named_solver_on_cold_and_warm_memo(self):
        real = kary_tree_dag(2, 3)
        copy = _relabelled(real)
        assert copy != real and (copy.n, copy.m) == (real.n, real.m)
        authenticated_instance_cache_clear()
        with pytest.raises(SolverError, match="does not reproduce"):
            solve(PebblingProblem(copy, r=3, game="prbp"), solver="tree")
        assert solve(PebblingProblem(real, r=3, game="prbp"), solver="tree").solver == "tree"
        assert any(inst.dag == real for inst in bounds._TAG_MEMO.values())  # warm
        with pytest.raises(SolverError, match="does not reproduce"):
            solve(PebblingProblem(copy, r=3, game="prbp"), solver="tree")

    def test_copied_tag_gives_no_closed_form_bound_on_cold_and_warm_memo(self):
        real = kary_tree_dag(2, 3)
        copy = _relabelled(real)
        authenticated_instance_cache_clear()
        cold = solve(PebblingProblem(copy, r=3, game="prbp"), exact_node_limit=0)
        assert cold.lower_bound_source == "trivial"
        genuine = solve(PebblingProblem(real, r=3, game="prbp"), exact_node_limit=0)
        assert genuine.lower_bound_source == "appA.2"
        warm = solve(PebblingProblem(copy, r=3, game="prbp"), exact_node_limit=0)
        assert warm.lower_bound_source == "trivial"
        assert warm.lower_bound == copy.trivial_cost()

    def test_unhashable_params_refuse_with_solver_error_not_type_error(self):
        dag = kary_tree_dag(2, 3)
        dag.family = DAGFamily("kary_tree", (("depth", 3), ("k", [2])))
        authenticated_instance_cache_clear()
        for _ in range(2):
            with pytest.raises(SolverError, match="malformed"):
                authenticated_instance(PebblingProblem(dag, r=3, game="prbp"))
        result = solve(PebblingProblem(dag, r=3, game="prbp"), exact_node_limit=0)
        assert result.lower_bound_source == "trivial"
        assert not bounds._TAG_MEMO

    def test_unhashable_params_that_rebuild_the_dag_are_accepted_unmemoised(self):
        dag = attention_dag(2, 2)
        dag.family = DAGFamily("attention", (("d", 2), ("include_softmax", []), ("m", 2)))
        authenticated_instance_cache_clear()
        assert authenticated_instance(PebblingProblem(dag, r=4, game="prbp")).dag == dag
        assert not bounds._TAG_MEMO

    def test_threaded_solves_match_serial_solves(self):
        problems = [
            PebblingProblem(dag, r, "prbp")
            for dag, r in (
                (kary_tree_dag(2, 4), 3),
                (kary_tree_dag(3, 3), 4),
                (matvec_dag(5), 8),
                (fft_dag(32), 8),
                (attention_dag(4, 3), 8),
            )
        ]
        authenticated_instance_cache_clear()
        serial = [solve(p, exact_node_limit=0) for p in problems]
        authenticated_instance_cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda p: solve(p, exact_node_limit=0), problems * 4))
        for i, got in enumerate(threaded):
            want = serial[i % len(problems)]
            assert (got.solver, got.cost, got.lower_bound, got.lower_bound_source) == (
                want.solver,
                want.cost,
                want.lower_bound,
                want.lower_bound_source,
            )
            assert got.schedule.moves == want.schedule.moves

    def test_memo_never_exceeds_its_node_cap(self, monkeypatch):
        monkeypatch.setattr(bounds, "TAG_MEMO_MAX_NODES", 100)
        authenticated_instance_cache_clear()
        try:
            for k, depth in ((2, 4), (2, 5), (3, 3), (2, 4), (2, 6), (4, 2), (2, 7)):
                dag = kary_tree_dag(k, depth)
                assert authenticated_instance(PebblingProblem(dag, r=k + 1, game="prbp")).dag == dag
                assert _memo_nodes() <= 100
            # the 255-node tree is larger than the cap and was not kept
            assert all(inst.dag.n < 255 for inst in bounds._TAG_MEMO.values())
            assert bounds._tag_memo_nodes == _memo_nodes()
        finally:
            authenticated_instance_cache_clear()


class TestSolveBoundary:
    """``solve()`` replays every returned schedule exactly once (through the
    replay kernel, never the game engines), and needs only numpy."""

    @pytest.mark.parametrize(
        "solver, dag, r, game",
        [
            ("tree", kary_tree_dag(2, 4), 3, "prbp"),
            ("matvec-streaming", matvec_dag(4), 7, "prbp"),
            ("fft-blocked", fft_dag(16), 4, "rbp"),
            ("fft-blocked", fft_dag(16), 4, "prbp"),
            ("exhaustive", figure1_gadget(), 4, "prbp"),
        ],
        ids=["tree-prbp", "matvec-prbp", "fft-rbp", "fft-prbp", "exhaustive-prbp"],
    )
    def test_one_kernel_replay_per_solve(self, monkeypatch, solver, dag, r, game):
        constructed = []
        for game_cls in (RBPGame, PRBPGame):
            original = game_cls.__init__

            def counting_init(self, *args, _original=original, **kwargs):
                constructed.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(game_cls, "__init__", counting_init)
        replays = []
        original_replay = schedule_ir.replay

        def counting_replay(ir):
            replays.append(ir.game)
            return original_replay(ir)

        monkeypatch.setattr(schedule_ir, "replay", counting_replay)
        solve(PebblingProblem(dag, r=r, game=game), solver=solver)
        assert constructed == []
        assert replays == [game]

    @pytest.fixture
    def moves_made(self, monkeypatch):
        """Every RBPMove/PRBPMove constructed while the test runs."""
        made = []
        for move_cls in (RBPMove, PRBPMove):
            original = move_cls.__post_init__

            def counting_post_init(self, _original=original):
                made.append(type(self).__name__)
                _original(self)

            monkeypatch.setattr(move_cls, "__post_init__", counting_post_init)
        return made

    @pytest.mark.parametrize(
        "solver, dag, r, game",
        [
            ("fft-blocked", fft_dag(16), 4, "prbp"),
            ("matmul-tiled", matmul_dag(3, 3, 3), 4, "prbp"),
            ("tree", kary_tree_dag(2, 4), 3, "rbp"),
        ],
        ids=["fft-prbp-converted", "matmul-prbp", "tree-rbp"],
    )
    def test_structured_solve_builds_no_move(self, moves_made, solver, dag, r, game):
        solve(PebblingProblem(dag, r=r, game=game), solver=solver)
        assert moves_made == []

    @pytest.mark.parametrize("game, r", [("rbp", 4), ("prbp", 2)])
    def test_refined_heuristic_solve_builds_no_move(self, moves_made, game, r):
        dag = random_layered_dag((8,) * 5, 0.3, max_in_degree=3, seed=0)
        result = solve(PebblingProblem(dag, r=r, game=game))
        assert result.solver == "greedy"
        assert result.solve_stats.refinement.accepted > 0
        assert moves_made == []

    def test_warm_cache_and_wire_decode_build_no_move(self, moves_made, tmp_path):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=3, game="prbp")
        [cold] = solve_many([problem], cache=ResultCache(directory=tmp_path))
        warm_cache = ResultCache(directory=tmp_path)  # empty memory tier: a disk hit
        [warm] = solve_many([problem], cache=warm_cache)
        assert warm_cache.stats.hits == 1
        remote = protocol.result_from_wire(problem, protocol.result_to_wire(warm))
        assert moves_made == []
        assert warm.schedule.rows == cold.schedule.rows == remote.schedule.rows

    @pytest.mark.parametrize("game", ["rbp", "prbp"])
    def test_anytime_solver_builds_no_game_engine(self, monkeypatch, game):
        # the explicit anytime solver on a DAG of at most 20 nodes: seeds,
        # refinement and validation all run on IR rows and the kernel
        constructed = []
        for game_cls in (RBPGame, PRBPGame):
            original = game_cls.__init__

            def counting_init(self, *args, _original=original, **kwargs):
                constructed.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(game_cls, "__init__", counting_init)
        dag = random_layered_dag((4, 6, 6, 4), 0.3, max_in_degree=3, seed=7)
        assert dag.n == 20
        result = solve(PebblingProblem(dag, r=4, game=game), solver="anytime", seed=0)
        assert result.solver == "anytime"
        assert constructed == []

    def test_refinement_inside_solve_trusts_the_engine_verified_cost(self, monkeypatch):
        # the verified cost is _run's stats() replay (the kernel); the
        # refiner trusts it instead of replaying its input again
        calls = []
        for cls in (RBPSchedule, PRBPSchedule):
            original = cls.stats

            def counting_stats(self, _original=original):
                calls.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(cls, "stats", counting_stats)
        dag = random_layered_dag((6, 6, 6, 6), 0.3, max_in_degree=2, seed=0)
        result = solve(PebblingProblem(dag, r=4, game="prbp"))
        assert result.solve_stats.refinement is not None
        assert calls == ["PRBPSchedule"]  # _run's replay, and only that
        # a direct caller still gets its input checked
        anytime.refine_schedule(result.schedule, steps=4)
        assert calls == ["PRBPSchedule"] * 2

    def test_numpy_only_solve_computes_the_exact_root_bounds(self, monkeypatch):
        problems = [PebblingProblem(kary_tree_dag(2, 2), r=3, game=g) for g in ("rbp", "prbp")]
        tree = kary_tree_dag(2, 3)

        def costs_and_bounds():
            return (
                [solve(p).cost for p in problems],
                [root_lower_bound(p.dag, p.r, p.game, p.variant) for p in problems],
                [
                    (
                        rbp_lower_bound_exact(tree, r),
                        prbp_dominator_lower_bound_exact(tree, r),
                        prbp_edge_lower_bound_exact(tree, r),
                    )
                    for r in (1, 2)
                ],
            )

        default = costs_and_bounds()
        monkeypatch.setitem(sys.modules, "networkx", None)  # import networkx now raises
        blocked = costs_and_bounds()
        assert blocked == default
        # the partition bounds are really computed (MIN_part(2) = 5 on the
        # depth-3 binary tree), not replaced by a fallback
        assert blocked[1:] == ([5, 5], [(4, 4, 4), (4, 4, 2)])


class TestBackCompat:
    def test_all_pre_facade_names_still_importable(self):
        from repro import (  # noqa: F401
            ComputationalDAG,
            GameVariant,
            PebblingProblem,
            SolveResult,
            attention_dag,
            binary_tree_dag,
            convert_rbp_to_prbp,
            figure1_gadget,
            optimal_prbp_cost,
            optimal_prbp_schedule,
            optimal_rbp_cost,
            optimal_rbp_schedule,
            solve,
            topological_prbp_schedule,
        )

    def test_top_level_quickstart(self):
        import repro

        dag = repro.figure1_gadget()
        rbp = repro.solve(repro.PebblingProblem(dag, r=4, game="rbp"))
        prbp = repro.solve(repro.PebblingProblem(dag, r=4, game="prbp"))
        assert (rbp.cost, prbp.cost) == (3, 2)
