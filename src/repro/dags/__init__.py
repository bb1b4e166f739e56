"""Generators for every computational DAG family used in the paper.

Each family offers two entry points: ``*_dag(...)`` returns a plain
:class:`~repro.core.dag.ComputationalDAG`, while ``*_instance(...)`` returns
a layout object that additionally names the individual nodes (used by the
structured strategy generators and by tests).
"""

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

#: Family tag name → the ``*_instance`` builder whose generator writes that
#: tag.  Every tag's keys equal its builder's keyword names, so
#: ``FAMILY_INSTANCE_BUILDERS[fam.name](**fam.as_dict())`` regenerates the
#: layout (and ``.dag``) of a tagged DAG.
FAMILY_INSTANCE_BUILDERS = {
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
