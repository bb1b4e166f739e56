"""The self-attention computational DAG of Theorem 6.11.

The paper follows [20] (Saha & Ye) and analyses the I/O bottleneck of the
attention mechanism, the matrix product ``Q · Kᵀ`` followed by an
element-wise exponentiation.  The relevant part of the DAG is:

* ``2·m·d`` **source nodes** — the entries of ``Q`` (``m × d``) and of
  ``Kᵀ`` (``d × m``);
* ``m²·d`` **internal nodes** — the scalar products ``Q[i,k] · Kᵀ[k,j]``,
  each with two source in-neighbours and a single out-edge;
* ``m²`` **root nodes** — the entries of ``S = Q·Kᵀ``, each aggregating the
  ``d`` internal nodes of its *internal tree*;
* ``m²`` **exponentiation nodes** — one out-neighbour per root (so roots are
  *not* sinks, the property that makes the large-cache regime interesting).

With ``include_softmax=True`` the DAG is extended by the row-sum nodes
(in-degree ``m``) and the normalised output nodes so that examples can show
the full softmax data flow; the lower-bound analysis of Theorem 6.11 only
needs the part described above, which is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = ["AttentionInstance", "attention_layout", "attention_instance", "attention_dag"]


@dataclass(frozen=True)
class AttentionInstance:
    """Layout of the attention (``Q·Kᵀ`` + exp) DAG for sequence length ``m`` and head dimension ``d``."""

    dag: ComputationalDAG
    m: int
    d: int
    include_softmax: bool

    def q(self, i: int, k: int) -> int:
        """Node id of ``Q[i, k]``."""
        return i * self.d + k

    def kt(self, k: int, j: int) -> int:
        """Node id of ``Kᵀ[k, j]``."""
        return self.m * self.d + k * self.m + j

    def product(self, i: int, j: int, k: int) -> int:
        """Node id of the internal product ``Q[i, k] * Kᵀ[k, j]``."""
        base = 2 * self.m * self.d
        return base + (i * self.m + j) * self.d + k

    def score(self, i: int, j: int) -> int:
        """Node id of the root node ``S[i, j]`` (entry of ``Q·Kᵀ``)."""
        base = 2 * self.m * self.d + self.m * self.m * self.d
        return base + i * self.m + j

    def exp(self, i: int, j: int) -> int:
        """Node id of the exponentiation node ``exp(S[i, j])``."""
        base = 2 * self.m * self.d + self.m * self.m * self.d + self.m * self.m
        return base + i * self.m + j

    def rowsum(self, i: int) -> int:
        """Node id of the softmax row-sum node for row ``i`` (softmax extension only)."""
        if not self.include_softmax:
            raise ValueError("this instance was built without the softmax extension")
        base = 2 * self.m * self.d + self.m * self.m * self.d + 2 * self.m * self.m
        return base + i

    def output(self, i: int, j: int) -> int:
        """Node id of the normalised output node (softmax extension only)."""
        if not self.include_softmax:
            raise ValueError("this instance was built without the softmax extension")
        base = 2 * self.m * self.d + self.m * self.m * self.d + 2 * self.m * self.m + self.m
        return base + i * self.m + j

    @property
    def n_nodes(self) -> int:
        """Total node count of the instance."""
        base = 2 * self.m * self.d + self.m * self.m * self.d + 2 * self.m * self.m
        if self.include_softmax:
            base += self.m + self.m * self.m
        return base

    @property
    def internal_edges(self) -> int:
        """Number of internal-node → root edges (the quantity counted in Theorem 6.11)."""
        return self.m * self.m * self.d


def attention_layout(
    m: int, d: int, include_softmax: bool = False
) -> Tuple[AttentionInstance, int, Tuple[Edge, ...]]:
    """:func:`attention_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if m < 1 or d < 1:
        raise ValueError(f"m and d must be >= 1, got m={m}, d={d}")
    inst = AttentionInstance(dag=None, m=m, d=d, include_softmax=include_softmax)  # type: ignore[arg-type]
    edges: List[Edge] = []
    for i in range(m):
        for j in range(m):
            p0 = inst.product(i, j, 0)
            for k in range(d):
                edges.append((inst.q(i, k), p0 + k))
                edges.append((inst.kt(k, j), p0 + k))
    for i in range(m):
        for j in range(m):
            s = inst.score(i, j)
            edges.extend((p, s) for p in range(inst.product(i, j, 0), inst.product(i, j, d)))
    edges.extend((inst.score(i, j), inst.exp(i, j)) for i in range(m) for j in range(m))
    if include_softmax:
        for i in range(m):
            rs = inst.rowsum(i)
            edges.extend((inst.exp(i, j), rs) for j in range(m))
        for i in range(m):
            for j in range(m):
                o = inst.output(i, j)
                edges.append((inst.exp(i, j), o))
                edges.append((inst.rowsum(i), o))
    return inst, inst.n_nodes, tuple(edges)


def attention_instance(m: int, d: int, include_softmax: bool = False) -> AttentionInstance:
    """Build the attention DAG for sequence length ``m`` and head dimension ``d``."""
    inst, n, edges = attention_layout(m, d, include_softmax)
    labels = {inst.q(i, k): f"Q[{i},{k}]" for i in range(m) for k in range(d)}
    labels.update({inst.kt(k, j): f"KT[{k},{j}]" for k in range(d) for j in range(m)})
    for i in range(m):
        for j in range(m):
            for k in range(d):
                labels[inst.product(i, j, k)] = f"qk[{i},{j},{k}]"
            labels[inst.score(i, j)] = f"S[{i},{j}]"
            labels[inst.exp(i, j)] = f"E[{i},{j}]"
            if include_softmax:
                labels[inst.output(i, j)] = f"P[{i},{j}]"
        if include_softmax:
            labels[inst.rowsum(i)] = f"Z[{i}]"
    name = f"attention-m{m}-d{d}{'-softmax' if include_softmax else ''}"
    family = DAGFamily.tag("attention", m=m, d=d, include_softmax=include_softmax)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, name, family))


def attention_dag(m: int, d: int, include_softmax: bool = False) -> ComputationalDAG:
    """The attention (``Q·Kᵀ`` + exp) DAG for sequence length ``m`` and head dimension ``d``."""
    return attention_instance(m, d, include_softmax).dag
