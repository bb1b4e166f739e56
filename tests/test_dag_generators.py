"""Structural tests for every DAG family generator."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dag import DAGFamily
from repro.dags import (
    FAMILY_INSTANCE_BUILDERS,
    attention_instance,
    binary_tree_instance,
    chained_gadget_instance,
    fanin_groups_instance,
    fft_instance,
    figure1_instance,
    kary_tree_instance,
    matmul_instance,
    matvec_instance,
    pebble_collection_instance,
    pyramid_instance,
    random_dag,
    random_layered_dag,
    zipper_instance,
)


class TestFigure1:
    def test_paper_shape(self):
        inst = figure1_instance()
        dag = inst.dag
        assert dag.n == 10
        assert dag.m == 14
        assert dag.sources == (inst.u0,)
        assert dag.sinks == (inst.v0,)
        assert dag.max_in_degree == 2
        assert dag.max_out_degree == 3
        assert dag.trivial_cost() == 2

    def test_core_gadget(self):
        inst = figure1_instance(include_endpoints=False)
        assert inst.dag.n == 8
        assert set(inst.dag.sources) == {inst.u1, inst.u2}
        assert set(inst.dag.sinks) == {inst.v1, inst.v2}
        assert not inst.has_z_layer and not inst.has_w0

    def test_z_layer_variant(self):
        inst = figure1_instance(with_z_layer=True)
        assert inst.has_z_layer
        assert inst.dag.n == 12
        assert set(inst.dag.successors(inst.u0)) == {inst.z1, inst.z2}
        assert set(inst.dag.predecessors(inst.u1)) == {inst.z1, inst.z2}

    def test_w0_variant(self):
        inst = figure1_instance(with_w0=True)
        assert inst.has_w0
        assert inst.dag.has_edge(inst.u1, inst.w0)
        assert inst.dag.has_edge(inst.w0, inst.w3)
        assert inst.dag.in_degree(inst.w3) == 3

    def test_z_layer_requires_endpoints(self):
        with pytest.raises(ValueError):
            figure1_instance(include_endpoints=False, with_z_layer=True)


class TestChainedGadget:
    @pytest.mark.parametrize("copies", [1, 2, 5])
    def test_size_grows_linearly(self, copies):
        inst = chained_gadget_instance(copies)
        # 8 own nodes for the first copy, 6 new per further copy, plus u0 and v0
        assert inst.dag.n == 2 + 8 + 6 * (copies - 1)
        assert inst.dag.sources == (inst.u0,)
        assert inst.dag.sinks == (inst.v0,)
        assert inst.dag.max_in_degree == 2
        assert inst.dag.max_out_degree == 3

    def test_copies_are_merged(self):
        inst = chained_gadget_instance(3)
        for i in range(2):
            assert inst.gadget_nodes[i]["v1"] == inst.gadget_nodes[i + 1]["u1"]
            assert inst.gadget_nodes[i]["v2"] == inst.gadget_nodes[i + 1]["u2"]

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            chained_gadget_instance(0)


class TestZipper:
    def test_shape(self):
        inst = zipper_instance(d=3, length=5)
        dag = inst.dag
        assert dag.n == 2 * 3 + 5
        assert len(dag.sources) == 6
        assert dag.sinks == (inst.chain[-1],)
        # chain node 0 depends on group A only; later nodes also on the previous node
        assert set(dag.predecessors(inst.chain[0])) == set(inst.group_a)
        assert set(dag.predecessors(inst.chain[1])) == set(inst.group_b) | {inst.chain[0]}
        assert inst.group_for(0) == inst.group_a
        assert inst.group_for(1) == inst.group_b

    def test_in_degree(self):
        inst = zipper_instance(d=4, length=6)
        assert inst.dag.max_in_degree == 5  # d group inputs + previous chain node

    def test_validation(self):
        with pytest.raises(ValueError):
            zipper_instance(0, 5)
        with pytest.raises(ValueError):
            zipper_instance(3, 1)


class TestPebbleCollection:
    def test_shape(self):
        inst = pebble_collection_instance(d=3, length=7)
        dag = inst.dag
        assert dag.n == 10
        assert len(dag.sources) == 3
        assert dag.sinks == (inst.chain[-1],)
        assert inst.source_for(0) == inst.sources[0]
        assert inst.source_for(3) == inst.sources[0]
        assert inst.source_for(4) == inst.sources[1]
        # chain node i >= 1 has in-degree 2
        assert dag.in_degree(inst.chain[0]) == 1
        assert all(dag.in_degree(c) == 2 for c in inst.chain[1:])


class TestTrees:
    @pytest.mark.parametrize("k,depth", [(2, 1), (2, 4), (3, 2), (4, 2)])
    def test_shape(self, k, depth):
        inst = kary_tree_instance(k, depth)
        dag = inst.dag
        assert dag.n == sum(k**i for i in range(depth + 1))
        assert len(inst.leaves) == k**depth
        assert dag.sinks == (inst.root,)
        assert set(dag.sources) == set(inst.leaves)
        assert all(dag.in_degree(v) == k for v in dag.nodes() if not dag.is_source(v))

    def test_children_accessor(self):
        inst = binary_tree_instance(3)
        kids = inst.children(0, 0)
        assert len(kids) == 2
        assert all(inst.dag.has_edge(c, inst.root) for c in kids)

    def test_validation(self):
        with pytest.raises(ValueError):
            kary_tree_instance(1, 3)
        with pytest.raises(ValueError):
            kary_tree_instance(2, 0)


class TestPyramid:
    def test_shape(self):
        inst = pyramid_instance(4)
        dag = inst.dag
        assert dag.n == sum(range(1, 6))
        assert len(inst.base) == 5
        assert dag.sinks == (inst.apex,)
        assert all(dag.in_degree(v) == 2 for v in dag.nodes() if not dag.is_source(v))


class TestLinalg:
    def test_matvec_shape(self):
        inst = matvec_instance(3)
        dag = inst.dag
        m = 3
        assert dag.n == 2 * m * m + 2 * m
        assert len(dag.sources) == m * m + m
        assert len(dag.sinks) == m
        assert all(dag.in_degree(inst.product(j, i)) == 2 for j in range(m) for i in range(m))
        assert all(dag.in_degree(inst.y(j)) == m for j in range(m))
        assert dag.has_edge(inst.a(1, 2), inst.product(1, 2))
        assert dag.has_edge(inst.x(2), inst.product(1, 2))

    def test_matmul_shape(self):
        inst = matmul_instance(2, 3, 4)
        dag = inst.dag
        assert dag.n == 2 * 3 + 3 * 4 + 2 * 3 * 4 + 2 * 4
        assert len(dag.sources) == 2 * 3 + 3 * 4
        assert len(dag.sinks) == 2 * 4
        assert inst.internal_edges == 24
        # every product node has out-degree exactly 1 (the paper's internal edge)
        for i in range(2):
            for k in range(3):
                for j in range(4):
                    assert dag.out_degree(inst.product(i, k, j)) == 1
        assert all(dag.in_degree(inst.c(i, j)) == 3 for i in range(2) for j in range(4))


class TestFFT:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_shape(self, m):
        inst = fft_instance(m)
        dag = inst.dag
        levels = m.bit_length() - 1
        assert dag.n == m * (levels + 1)
        assert len(dag.sources) == m
        assert len(dag.sinks) == m
        assert all(dag.in_degree(v) == 2 for v in dag.nodes() if not dag.is_source(v))
        assert all(dag.out_degree(v) == 2 for v in dag.nodes() if not dag.is_sink(v))

    def test_butterfly_wiring(self):
        inst = fft_instance(8)
        # node (1, 5) depends on (0, 5) and (0, 4)
        preds = set(inst.dag.predecessors(inst.node(1, 5)))
        assert preds == {inst.node(0, 5), inst.node(0, 4)}

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_instance(6)
        with pytest.raises(ValueError):
            fft_instance(1)


class TestAttention:
    def test_truncated_shape(self):
        inst = attention_instance(m=3, d=2)
        dag = inst.dag
        assert dag.n == 2 * 3 * 2 + 9 * 2 + 9 + 9
        assert len(dag.sources) == 2 * 3 * 2
        assert len(dag.sinks) == 9  # the exp nodes
        assert inst.internal_edges == 9 * 2
        # score nodes are not sinks: each feeds its exp node
        assert all(dag.out_degree(inst.score(i, j)) == 1 for i in range(3) for j in range(3))

    def test_softmax_extension(self):
        inst = attention_instance(m=2, d=2, include_softmax=True)
        dag = inst.dag
        assert len(dag.sinks) == 4  # the normalised outputs
        assert dag.in_degree(inst.rowsum(0)) == 2
        assert dag.in_degree(inst.output(0, 1)) == 2

    def test_softmax_accessors_guarded(self):
        inst = attention_instance(m=2, d=2)
        with pytest.raises(ValueError):
            inst.rowsum(0)


class TestFanIn:
    def test_shape(self):
        inst = fanin_groups_instance(num_groups=7, group_size=5)
        dag = inst.dag
        assert dag.n == 7 + 35 + 1
        assert len(dag.sources) == 7
        assert dag.sinks == (inst.sink,)
        assert dag.in_degree(inst.sink) == 35
        for gi in range(7):
            for w in inst.groups[gi]:
                assert set(dag.predecessors(w)) == {inst.sources[gi]}


class TestRandomDAGs:
    def test_layered_is_reproducible_and_valid(self):
        a = random_layered_dag([3, 4, 2], edge_probability=0.5, seed=7)
        b = random_layered_dag([3, 4, 2], edge_probability=0.5, seed=7)
        assert a == b
        a.validate_no_isolated()
        assert len(a.sources) <= 3

    def test_layered_respects_max_in_degree(self):
        dag = random_layered_dag([4, 6, 6], edge_probability=0.9, max_in_degree=2, seed=1)
        assert dag.max_in_degree <= 2

    def test_random_dag_no_isolated(self):
        for seed in range(5):
            dag = random_dag(12, edge_probability=0.15, seed=seed)
            dag.validate_no_isolated()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_layered_dag([3])
        with pytest.raises(ValueError):
            random_dag(1)
        with pytest.raises(ValueError):
            random_layered_dag([2, 2], edge_probability=1.5)


# one instance per tagged family, with non-default parameters where possible
FAMILY_SAMPLES = [
    attention_instance(3, 2, include_softmax=True),
    chained_gadget_instance(2),
    fanin_groups_instance(3, 4),
    fft_instance(8),
    figure1_instance(with_z_layer=True),
    binary_tree_instance(3),
    matmul_instance(2, 3, 2),
    matvec_instance(3),
    pebble_collection_instance(2, 5),
    pyramid_instance(3),
    zipper_instance(2, 4),
]


class TestFamilyTable:
    def test_table_has_one_builder_per_sampled_family(self):
        assert {inst.dag.family.name for inst in FAMILY_SAMPLES} == set(FAMILY_INSTANCE_BUILDERS)

    @pytest.mark.parametrize("inst", FAMILY_SAMPLES, ids=lambda inst: inst.dag.family.name)
    def test_every_tag_regenerates_its_dag(self, inst):
        # the table's layout builders build no DAG: they return its layout,
        # node count and edges, which must be the tagged DAG's
        fam = inst.dag.family
        layout, n, edges = FAMILY_INSTANCE_BUILDERS[fam.name](**fam.as_dict())
        assert (n, edges) == (inst.dag.n, inst.dag.edges)
        assert layout.dag is None and replace(layout, dag=inst.dag) == inst
        assert PUBLIC_BUILDERS[fam.name](**fam.as_dict()).dag.family == fam

    @pytest.mark.parametrize("inst", FAMILY_SAMPLES, ids=lambda inst: inst.dag.family.name)
    def test_every_sample_dag_is_pinned(self, inst):
        # node count, edge order, labels, name and tag as the generators
        # wrote them before the layout builders were split out
        dag = inst.dag
        text = repr((dag.n, dag.edges, [dag.label(v) for v in dag.nodes()], dag.name, str(dag.family)))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == SAMPLE_DIGESTS[dag.family.name]


SAMPLE_DIGESTS = {
    "attention": "2a3726197a17d330",
    "chained_gadget": "0098347d1a134037",
    "fanin_groups": "fe863847a8aed4da",
    "fft": "04ba701b609aecef",
    "figure1": "21d3a6222053e44f",
    "kary_tree": "1a0eeeb19ef68425",
    "matmul": "d6a887f0ccfba1dc",
    "matvec": "c08d25723a913cee",
    "pebble_collection": "21203091002773d9",
    "pyramid": "e6a2ad784bc9426d",
    "zipper": "8e00ca2a9d059126",
}


#: Family tag name -> the public ``*_instance`` builder of that family.
PUBLIC_BUILDERS = {
    "attention": attention_instance,
    "chained_gadget": chained_gadget_instance,
    "fanin_groups": fanin_groups_instance,
    "fft": fft_instance,
    "figure1": figure1_instance,
    "kary_tree": kary_tree_instance,
    "matmul": matmul_instance,
    "matvec": matvec_instance,
    "pebble_collection": pebble_collection_instance,
    "pyramid": pyramid_instance,
    "zipper": zipper_instance,
}

_dims = st.integers(min_value=1, max_value=6)

#: Family tag name -> valid keyword parameters of its builders.
FAMILY_PARAMS = {
    "attention": st.fixed_dictionaries({"m": _dims, "d": _dims, "include_softmax": st.booleans()}),
    "chained_gadget": st.fixed_dictionaries({"copies": _dims}),
    "fanin_groups": st.fixed_dictionaries({"num_groups": _dims, "group_size": _dims}),
    "fft": st.fixed_dictionaries({"m": st.sampled_from([2, 4, 8, 16, 32, 64])}),
    "figure1": st.fixed_dictionaries(
        {"include_endpoints": st.booleans(), "with_z_layer": st.booleans(), "with_w0": st.booleans()}
    ).filter(lambda p: p["include_endpoints"] or not p["with_z_layer"]),
    "kary_tree": st.fixed_dictionaries(
        {"k": st.integers(min_value=2, max_value=4), "depth": st.integers(min_value=1, max_value=4)}
    ),
    "matmul": st.fixed_dictionaries({"m1": _dims, "m2": _dims, "m3": _dims}),
    "matvec": st.fixed_dictionaries({"m": st.integers(min_value=1, max_value=12)}),
    "pebble_collection": st.fixed_dictionaries(
        {"d": _dims, "length": st.integers(min_value=1, max_value=12)}
    ),
    "pyramid": st.fixed_dictionaries({"height": st.integers(min_value=1, max_value=10)}),
    "zipper": st.fixed_dictionaries({"d": _dims, "length": st.integers(min_value=2, max_value=10)}),
}


class TestLayoutBuilders:
    """Each table entry is the one generator of its family's edges; the
    public ``*_instance`` adds labels and the DAG and nothing else."""

    def test_every_family_is_drawn(self):
        assert set(FAMILY_PARAMS) == set(PUBLIC_BUILDERS) == set(FAMILY_INSTANCE_BUILDERS)

    @given(
        st.sampled_from(sorted(FAMILY_PARAMS)).flatmap(
            lambda name: st.tuples(st.just(name), FAMILY_PARAMS[name])
        )
    )
    def test_layout_builder_matches_public_instance(self, case):
        name, params = case
        layout, n, edges = FAMILY_INSTANCE_BUILDERS[name](**params)
        inst = PUBLIC_BUILDERS[name](**params)
        assert isinstance(edges, tuple)
        assert (n, edges) == (inst.dag.n, inst.dag.edges)
        assert layout.dag is None and replace(inst, dag=None) == layout
        assert inst.dag.family == DAGFamily.tag(name, **params)
