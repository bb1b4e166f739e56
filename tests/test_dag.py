"""Unit tests for the computational DAG substrate."""

import pytest

from repro.core.dag import ComputationalDAG
from repro.core.exceptions import DAGError


def diamond() -> ComputationalDAG:
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
    return ComputationalDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond")


class TestConstruction:
    def test_basic_counts(self):
        dag = diamond()
        assert dag.n == 4
        assert dag.m == 4
        assert len(dag) == 4
        assert list(iter(dag)) == [0, 1, 2, 3]

    def test_sources_and_sinks(self):
        dag = diamond()
        assert dag.sources == (0,)
        assert dag.sinks == (3,)
        assert dag.is_source(0) and not dag.is_source(1)
        assert dag.is_sink(3) and not dag.is_sink(2)

    def test_degrees(self):
        dag = diamond()
        assert dag.in_degree(3) == 2
        assert dag.out_degree(0) == 2
        assert dag.max_in_degree == 2
        assert dag.max_out_degree == 2

    def test_neighbours(self):
        dag = diamond()
        assert set(dag.predecessors(3)) == {1, 2}
        assert set(dag.successors(0)) == {1, 2}
        assert dag.in_edges(3) == [(1, 3), (2, 3)]
        assert dag.out_edges(0) == [(0, 1), (0, 2)]

    def test_edge_ids_are_dense_and_stable(self):
        dag = diamond()
        ids = {dag.edge_id(u, v) for u, v in dag.edges}
        assert ids == set(range(dag.m))
        assert dag.has_edge(0, 1)
        assert not dag.has_edge(1, 0)

    def test_labels(self):
        dag = ComputationalDAG(2, [(0, 1)], labels={0: "in", 1: "out"})
        assert dag.label(0) == "in"
        assert dag.label(1) == "out"
        relabeled = dag.relabel({1: "sink"})
        assert relabeled.label(1) == "sink"
        assert relabeled.label(0) == "in"

    def test_from_edge_list_infers_n(self):
        dag = ComputationalDAG.from_edge_list([(0, 3), (3, 5)])
        assert dag.n == 6

    def test_cycle_rejected(self):
        with pytest.raises(DAGError):
            ComputationalDAG(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(DAGError):
            ComputationalDAG(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DAGError):
            ComputationalDAG(2, [(0, 1), (0, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DAGError):
            ComputationalDAG(2, [(0, 5)])

    def test_negative_n_rejected(self):
        with pytest.raises(DAGError):
            ComputationalDAG(-1, [])

    def test_edge_id_unknown_edge(self):
        with pytest.raises(DAGError):
            diamond().edge_id(3, 0)


class TestStructure:
    def test_topological_order(self):
        dag = diamond()
        pos = dag.topological_position()
        for u, v in dag.edges:
            assert pos[u] < pos[v]

    def test_ancestors_descendants(self):
        dag = diamond()
        assert dag.ancestors(3) == {0, 1, 2}
        assert dag.descendants(0) == {1, 2, 3}
        assert dag.ancestors(0) == set()
        assert dag.descendants(3) == set()

    def test_reachability(self):
        dag = diamond()
        assert dag.has_path(0, 3)
        assert dag.has_path(1, 3)
        assert not dag.has_path(1, 2)
        assert dag.has_path(2, 2)
        assert dag.reachable_from([1]) == {1, 3}

    def test_isolated_node_detection(self):
        dag = ComputationalDAG(3, [(0, 1)])
        with pytest.raises(DAGError):
            dag.validate_no_isolated()
        diamond().validate_no_isolated()

    def test_induced_subgraph(self):
        dag = diamond()
        sub = dag.induced_subgraph([0, 1, 3])
        assert sub.n == 3
        assert sub.m == 2  # 0->1 and 1->3 survive (renumbered)

    def test_trivial_cost(self):
        assert diamond().trivial_cost() == 2

    def test_equality_and_hash(self):
        a = diamond()
        b = ComputationalDAG(4, [(0, 2), (0, 1), (2, 3), (1, 3)])
        assert a == b
        assert hash(a) == hash(b)
        c = ComputationalDAG(4, [(0, 1), (0, 2), (1, 3)])
        assert a != c


class TestNetworkxInterop:
    """The only networkx users in the package: the optional ``graph`` extra."""

    def test_roundtrip(self):
        pytest.importorskip("networkx")
        dag = diamond()
        g = dag.to_networkx()
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        back = ComputationalDAG.from_networkx(g)
        assert back == dag

    def test_from_networkx_relabels_non_integer_nodes(self):
        nx = pytest.importorskip("networkx")

        g = nx.DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        dag = ComputationalDAG.from_networkx(g)
        assert dag.n == 3
        assert dag.m == 2
        assert sorted(dag.label(v) for v in dag.nodes()) == ["a", "b", "c"]
