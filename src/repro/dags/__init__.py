"""Generators for every computational DAG family used in the paper.

Each family offers two entry points: ``*_dag(...)`` returns a plain
:class:`~repro.core.dag.ComputationalDAG`, while ``*_instance(...)`` returns
a layout object that additionally names the individual nodes (used by the
structured strategy generators and by tests).  Tagged families also have a
``*_layout(...)`` builder, the one generator of their edges: it returns the
layout, node count and edge tuple without building a DAG, for the tag check
of :func:`repro.api.bounds.authenticated_instance`.
"""

from . import attention, fanin, fft, gadgets, linalg, pyramid, trees
from .attention import AttentionInstance, attention_dag, attention_instance
from .fanin import FanInGroupsInstance, fanin_groups_dag, fanin_groups_instance
from .fft import FFTInstance, fft_dag, fft_instance
from .gadgets import (
    ChainedGadgetInstance,
    Figure1Instance,
    PebbleCollectionInstance,
    ZipperInstance,
    chained_gadget_dag,
    chained_gadget_instance,
    figure1_gadget,
    figure1_instance,
    pebble_collection_gadget,
    pebble_collection_instance,
    zipper_gadget,
    zipper_instance,
)
from .linalg import (
    MatMulInstance,
    MatVecInstance,
    matmul_dag,
    matmul_instance,
    matvec_dag,
    matvec_instance,
)
from .pyramid import PyramidInstance, pyramid_dag, pyramid_instance
from .random_dags import random_dag, random_layered_dag
from .trees import (
    TreeInstance,
    binary_tree_dag,
    binary_tree_instance,
    kary_tree_dag,
    kary_tree_instance,
    optimal_prbp_tree_cost,
    optimal_rbp_tree_cost,
)

#: Family tag name → the layout builder of the generator that writes the tag.
#: A tag's keys are its builder's keyword names, and ``builder(**fam.as_dict())``
#: returns ``(layout, n, edges)``: the ``*_instance`` layout with ``dag=None``
#: and the tagged DAG's node count and edge tuple, with no DAG built.
FAMILY_INSTANCE_BUILDERS = {
    "attention": attention.attention_layout,
    "chained_gadget": gadgets.chained_gadget_layout,
    "fanin_groups": fanin.fanin_groups_layout,
    "fft": fft.fft_layout,
    "figure1": gadgets.figure1_layout,
    "kary_tree": trees.kary_tree_layout,
    "matmul": linalg.matmul_layout,
    "matvec": linalg.matvec_layout,
    "pebble_collection": gadgets.pebble_collection_layout,
    "pyramid": pyramid.pyramid_layout,
    "zipper": gadgets.zipper_layout,
}

__all__ = [
    "FAMILY_INSTANCE_BUILDERS",
    "AttentionInstance",
    "attention_dag",
    "attention_instance",
    "FanInGroupsInstance",
    "fanin_groups_dag",
    "fanin_groups_instance",
    "FFTInstance",
    "fft_dag",
    "fft_instance",
    "ChainedGadgetInstance",
    "Figure1Instance",
    "PebbleCollectionInstance",
    "ZipperInstance",
    "chained_gadget_dag",
    "chained_gadget_instance",
    "figure1_gadget",
    "figure1_instance",
    "pebble_collection_gadget",
    "pebble_collection_instance",
    "zipper_gadget",
    "zipper_instance",
    "MatMulInstance",
    "MatVecInstance",
    "matmul_dag",
    "matmul_instance",
    "matvec_dag",
    "matvec_instance",
    "PyramidInstance",
    "pyramid_dag",
    "pyramid_instance",
    "random_dag",
    "random_layered_dag",
    "TreeInstance",
    "binary_tree_dag",
    "binary_tree_instance",
    "kary_tree_dag",
    "kary_tree_instance",
    "optimal_prbp_tree_cost",
    "optimal_rbp_tree_cost",
]
