"""The exact partition-bound path against brute-force references and pinned minima.

The minimum dominator size (the inner step of every exact ``MIN_part`` /
``MIN_dom`` / ``MIN_edge`` search) is a bitmask max-flow; the searches walk
the downset lattice on int masks with memoised class verdicts.  Both fast
paths are pinned here:

* **the max-flow** — on random DAGs of at most 10 nodes, the minimum
  (edge-)dominator size equals the smallest node subset the
  definition-level predicate :func:`is_dominator` accepts;
* **the downset search** — on random DAGs of at most 7 nodes, ``MIN_part``
  and ``MIN_dom`` equal a subset-DP over downsets whose class test uses
  only the brute-force dominator and :func:`terminal_set`;
* **pinned minima** — ``MIN_part``/``MIN_dom``/``MIN_edge`` at
  ``S ∈ {1, 2, 4}`` on named and seeded DAGs, values recorded with the
  previous (networkx max-flow, frozenset search) implementation.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.bounds.dominators import (  # noqa: E402
    is_dominator,
    is_edge_dominator,
    minimum_dominator_size,
    minimum_edge_dominator_size,
    terminal_set,
)
from repro.bounds.minpart import (  # noqa: E402
    min_dominator_partition_classes,
    min_edge_partition_classes,
    min_spartition_classes,
)
from repro.core.dag import ComputationalDAG  # noqa: E402
from repro.core.exceptions import SolverError  # noqa: E402
from repro.dags import (  # noqa: E402
    binary_tree_instance,
    fanin_groups_instance,
    figure1_instance,
    random_layered_dag,
)
from repro.dags.random_dags import random_dag  # noqa: E402

SETTINGS = settings(max_examples=20, deadline=None)


def _brute_force_min_dominator(dag, covers):
    """Size of the smallest node subset ``D`` with ``covers(D)``."""
    for k in range(dag.n + 1):
        if any(covers(set(d)) for d in combinations(range(dag.n), k)):
            return k
    raise AssertionError("the full node set always dominates")


@st.composite
def dags_and_subsets(draw, max_nodes):
    """A random DAG (reproducible via its seed tag) and a random node subset."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    prob = draw(st.floats(min_value=0.1, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=50_000))
    dag = random_dag(n, edge_probability=prob, seed=seed)
    subset = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return dag, subset


class TestMaxFlowMatchesBruteForce:
    @SETTINGS
    @given(case=dags_and_subsets(max_nodes=10))
    def test_minimum_dominator_size(self, case):
        dag, targets = case
        expected = _brute_force_min_dominator(dag, lambda d: is_dominator(dag, d, targets))
        assert minimum_dominator_size(dag, targets) == expected

    @SETTINGS
    @given(case=dags_and_subsets(max_nodes=10), picks=st.sets(st.integers(0, 10**6)))
    def test_minimum_edge_dominator_size(self, case, picks):
        dag, _ = case
        edges = {dag.edges[p % dag.m] for p in picks}
        expected = _brute_force_min_dominator(dag, lambda d: is_edge_dominator(dag, d, edges))
        assert minimum_edge_dominator_size(dag, edges) == expected


def _reference_min_classes(dag, s, with_terminal_condition):
    """Fewest classes over downset chains, by a subset DP over frozensets.

    ``best[I]`` is the fewest valid classes covering the downset ``I``; a
    class ``W ⊆ I`` is a valid last class when ``I - W`` is itself a
    downset.  Classes are tested with the brute-force dominator minimum.
    """
    nodes = range(dag.n)

    def is_downset(ideal):
        return all(set(dag.predecessors(v)) <= ideal for v in ideal)

    def valid(cls):
        dom = _brute_force_min_dominator(dag, lambda d: is_dominator(dag, d, cls))
        if dom > s:
            return False
        return not with_terminal_condition or len(terminal_set(dag, cls)) <= s

    downsets = sorted(
        (frozenset(c) for k in range(dag.n + 1) for c in combinations(nodes, k)),
        key=len,
    )
    downsets = [ideal for ideal in downsets if is_downset(ideal)]
    verdicts = {}
    best = {frozenset(): 0}
    for ideal in downsets[1:]:
        options = []
        for k in range(1, len(ideal) + 1):
            for cls in map(frozenset, combinations(sorted(ideal), k)):
                rest = ideal - cls
                if rest not in best:
                    continue
                if cls not in verdicts:
                    verdicts[cls] = valid(cls)
                if verdicts[cls]:
                    options.append(best[rest] + 1)
        if options:
            best[ideal] = min(options)
    return best[frozenset(nodes)]


class TestDownsetSearchMatchesSubsetDP:
    @SETTINGS
    @given(case=dags_and_subsets(max_nodes=7), s=st.integers(min_value=1, max_value=3))
    def test_min_part_and_min_dom(self, case, s):
        dag, _ = case
        assert min_spartition_classes(dag, s) == _reference_min_classes(dag, s, True)
        assert min_dominator_partition_classes(dag, s) == _reference_min_classes(dag, s, False)


def _pinned_dags():
    dags = {
        "diamond": ComputationalDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="diamond"),
        "figure1": figure1_instance().dag,
        "tree3": binary_tree_instance(3).dag,
        "fanin3x3": fanin_groups_instance(3, 3).dag,
    }
    for seed in range(5):
        dags[f"layered{seed}"] = random_layered_dag((3, 3, 3), 0.3, max_in_degree=2, seed=seed)
    return dags


PINNED_DAGS = _pinned_dags()

#: ``(MIN_part, MIN_dom, MIN_edge)`` per DAG and S; ``None`` marks a search
#: the exact solver refuses (fanin3x3 has 18 edges, above the 16-item limit).
PINNED_MINIMA = {
    ("diamond", 1): (1, 1, 1),
    ("diamond", 2): (1, 1, 1),
    ("diamond", 4): (1, 1, 1),
    ("figure1", 1): (1, 1, 1),
    ("figure1", 2): (1, 1, 1),
    ("figure1", 4): (1, 1, 1),
    ("tree3", 1): (15, 15, 14),
    ("tree3", 2): (5, 5, 5),
    ("tree3", 4): (3, 3, 2),
    ("fanin3x3", 1): (10, 4, None),
    ("fanin3x3", 2): (4, 2, None),
    ("fanin3x3", 4): (1, 1, None),
    ("layered0", 1): (6, 6, 8),
    ("layered0", 2): (2, 2, 2),
    ("layered0", 4): (1, 1, 1),
    ("layered1", 1): (5, 5, 6),
    ("layered1", 2): (2, 2, 2),
    ("layered1", 4): (1, 1, 1),
    ("layered2", 1): (8, 8, 11),
    ("layered2", 2): (3, 3, 2),
    ("layered2", 4): (1, 1, 1),
    ("layered3", 1): (6, 6, 7),
    ("layered3", 2): (3, 3, 3),
    ("layered3", 4): (1, 1, 1),
    ("layered4", 1): (7, 6, 8),
    ("layered4", 2): (2, 2, 2),
    ("layered4", 4): (1, 1, 1),
}


@pytest.mark.parametrize("name, s", sorted(PINNED_MINIMA), ids=str)
def test_pinned_minima(name, s):
    dag = PINNED_DAGS[name]
    part, dom, edge = PINNED_MINIMA[name, s]
    assert min_spartition_classes(dag, s) == part
    assert min_dominator_partition_classes(dag, s) == dom
    if edge is None:
        with pytest.raises(SolverError):
            min_edge_partition_classes(dag, s)
    else:
        assert min_edge_partition_classes(dag, s) == edge
