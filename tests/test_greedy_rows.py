"""Differential tests: the row-native greedy builders against the engine oracle.

``repro.solvers.greedy`` builds its Belady pebblings over plain int state
and emits IR rows without the game engine.  ``greedy_oracle`` keeps the same
strategy written move by move against ``RBPGame``/``PRBPGame``.  On every
input both must give identical rows, or both must fail with the same
exception class.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from greedy_oracle import oracle_prbp_schedule, oracle_rbp_schedule  # noqa: E402
from repro.api import PebblingProblem, solve  # noqa: E402
from repro.core.dag import ComputationalDAG  # noqa: E402
from repro.core.exceptions import DAGError, SolverError  # noqa: E402
from repro.core.schedule_ir import encode_moves  # noqa: E402
from repro.core.variants import NO_DELETE, ONE_SHOT, RECOMPUTE, SLIDING  # noqa: E402
from repro.dags.random_dags import random_layered_dag  # noqa: E402
from repro.solvers.anytime import _perturb_order, _rebuild  # noqa: E402
from repro.solvers.greedy import greedy_rbp_rows, topological_prbp_rows  # noqa: E402

VARIANTS = [ONE_SHOT, RECOMPUTE, SLIDING, NO_DELETE]

BUILDERS = {
    "rbp": (greedy_rbp_rows, oracle_rbp_schedule),
    "prbp": (topological_prbp_rows, oracle_prbp_schedule),
}


def _outcome(fn):
    """``("rows", rows)`` or ``("raises", exception class)``."""
    try:
        return ("rows", fn())
    except Exception as exc:  # the classes are compared, whatever they are
        return ("raises", type(exc))


def _assert_same(game, dag, r, order, variant):
    rows_builder, oracle = BUILDERS[game]
    got = _outcome(lambda: rows_builder(dag, r, order, variant))
    want = _outcome(
        lambda: encode_moves(game, oracle(dag, r, topo_order=order, variant=variant).moves)
    )
    assert got == want, (game, r, variant)
    return got


@st.composite
def layered_dags(draw, max_n=60):
    layers = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6))
    while sum(layers) > max_n:
        layers.pop()
    if len(layers) < 2:
        layers = [2, 2]
    prob = draw(st.floats(min_value=0.1, max_value=0.6))
    max_in = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return random_layered_dag(layers, prob, max_in_degree=max_in, seed=seed)


class TestRowsMatchTheEngineOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        dag=layered_dags(),
        variant=st.sampled_from(VARIANTS),
        perturbations=st.integers(min_value=0, max_value=4),
        order_seed=st.integers(min_value=0, max_value=10_000),
        r_draw=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_same_rows_or_same_failure(self, dag, variant, perturbations, order_seed, r_draw):
        rng = random.Random(order_seed)
        order = list(dag.topological_order)
        for _ in range(perturbations):
            order = _perturb_order(dag, order, rng) or order
        for game in ("rbp", "prbp"):
            floor = dag.max_in_degree + 1 if game == "rbp" else 2
            # one below the floor exercises the infeasible-r failure too
            r = floor - 1 + round(r_draw * (max(dag.n, floor) - floor + 1))
            _assert_same(game, dag, r, order, variant)

    @pytest.mark.parametrize("game", ["rbp", "prbp"])
    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=["one-shot", "recompute", "sliding", "no-delete"]
    )
    def test_every_r_on_a_fixed_dag(self, game, variant):
        dag = random_layered_dag((6, 8, 8, 6), 0.35, max_in_degree=3, seed=7)
        floor = dag.max_in_degree + 1 if game == "rbp" else 2
        outcomes = {
            _assert_same(game, dag, r, None, variant)[0] for r in range(floor - 1, dag.n + 1)
        }
        # PRBP has no sliding rule: that pair fails at every r
        assert ("rows" in outcomes) == (game == "rbp" or not variant.allow_sliding)

    def test_bad_orders_fail_alike(self):
        dag = random_layered_dag((4, 4, 3), 0.4, max_in_degree=2, seed=3)
        order = list(dag.topological_order)
        for bad in (order[::-1], order[:-1], order[:-1] + order[:1]):
            for game in ("rbp", "prbp"):
                assert _assert_same(game, dag, dag.n, bad, ONE_SHOT) == ("raises", ValueError)

    def test_isolated_node_fails_alike(self):
        dag = ComputationalDAG(3, [(0, 1)])
        for game in ("rbp", "prbp"):
            assert _assert_same(game, dag, 3, None, ONE_SHOT) == ("raises", DAGError)


def _path():
    return ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)])


class TestNoDeletion:
    @pytest.mark.parametrize("game", ["rbp", "prbp"])
    def test_rebuild_is_none_when_an_eviction_is_needed(self, game):
        # at r = 2 the third node needs a slot: RBP deletes a saved source,
        # PRBP deletes a finished dark red value; both are forbidden
        order = [0, 1, 2, 3]
        assert _rebuild(_path(), 2, order, NO_DELETE, game) is None
        rows, cost = _rebuild(_path(), 4, order, NO_DELETE, game)
        assert cost == 2 and len(rows) == 5

    @pytest.mark.parametrize(
        "game, reason",
        [
            ("rbp", "delete moves are forbidden"),
            ("prbp", "dark red pebble can only be removed by saving it"),
        ],
    )
    def test_anytime_records_the_greedy_failure(self, game, reason):
        problem = PebblingProblem(_path(), 2, game=game, variant=NO_DELETE)
        with pytest.raises(SolverError, match=f"greedy: .*{reason}"):
            solve(problem, solver="anytime")
