"""Linear-algebra computational DAGs: matrix–vector and matrix–matrix products.

These are the DAGs of Proposition 4.3 and Theorem 6.10.

Matrix–vector multiplication ``A · x = y`` (``A`` is ``m × m``, ``x`` is
``m × 1``) is modelled exactly as in the paper: ``m² + m`` source nodes (the
entries of ``A`` and ``x``), ``m²`` intermediate product nodes of in-degree 2
(``p[j,i] = A[j,i] * x[i]``), and ``m`` sink nodes of in-degree ``m``
(``y[j] = Σ_i p[j,i]``).

Standard (non-Strassen) matrix multiplication ``A · B = C`` with ``A`` of
size ``m1 × m2`` and ``B`` of size ``m2 × m3`` has ``m1·m2 + m2·m3`` sources,
``m1·m2·m3`` product nodes of in-degree 2 and out-degree 1 (the paper's
*internal nodes*), and ``m1·m3`` sinks of in-degree ``m2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = [
    "MatVecInstance",
    "matvec_layout",
    "matvec_instance",
    "matvec_dag",
    "MatMulInstance",
    "matmul_layout",
    "matmul_instance",
    "matmul_dag",
]


@dataclass(frozen=True)
class MatVecInstance:
    """Layout of the matrix–vector multiplication DAG for an ``m × m`` matrix.

    Node-id accessors mirror the mathematical notation of Proposition 4.3:
    ``a(j, i)`` is the entry :math:`A_{j,i}`, ``x(i)`` the vector entry
    :math:`x_i`, ``product(j, i)`` the intermediate :math:`A_{j,i} \\cdot x_i`
    and ``y(j)`` the output entry.  All indices are 0-based.
    """

    dag: ComputationalDAG
    m: int

    def a(self, j: int, i: int) -> int:
        """Node id of the matrix entry ``A[j, i]``."""
        return j * self.m + i

    def x(self, i: int) -> int:
        """Node id of the vector entry ``x[i]``."""
        return self.m * self.m + i

    def product(self, j: int, i: int) -> int:
        """Node id of the intermediate product ``A[j, i] * x[i]``."""
        return self.m * self.m + self.m + j * self.m + i

    def y(self, j: int) -> int:
        """Node id of the output entry ``y[j]``."""
        return 2 * self.m * self.m + self.m + j

    @property
    def n_nodes(self) -> int:
        """Total node count ``2m² + 2m``."""
        return 2 * self.m * self.m + 2 * self.m


def matvec_layout(m: int) -> Tuple[MatVecInstance, int, Tuple[Edge, ...]]:
    """:func:`matvec_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if m < 1:
        raise ValueError(f"matrix dimension m must be >= 1, got {m}")
    inst = MatVecInstance(dag=None, m=m)  # type: ignore[arg-type]
    edges: List[Edge] = []
    for j in range(m):
        for i in range(m):
            p = inst.product(j, i)
            edges.append((inst.a(j, i), p))
            edges.append((inst.x(i), p))
    for j in range(m):
        yj = inst.y(j)
        edges.extend((p, yj) for p in range(inst.product(j, 0), inst.product(j, m)))
    return inst, inst.n_nodes, tuple(edges)


def matvec_instance(m: int) -> MatVecInstance:
    """Build the matrix–vector DAG for an ``m × m`` matrix (``m >= 1``)."""
    inst, n, edges = matvec_layout(m)
    labels = {inst.x(i): f"x[{i}]" for i in range(m)}
    labels.update({inst.y(j): f"y[{j}]" for j in range(m)})
    for j in range(m):
        for i in range(m):
            labels[inst.a(j, i)] = f"A[{j},{i}]"
            labels[inst.product(j, i)] = f"p[{j},{i}]"
    family = DAGFamily.tag("matvec", m=m)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"matvec-m{m}", family))


def matvec_dag(m: int) -> ComputationalDAG:
    """The matrix–vector multiplication DAG for an ``m × m`` matrix."""
    return matvec_instance(m).dag


@dataclass(frozen=True)
class MatMulInstance:
    """Layout of the standard matrix-multiplication DAG ``C = A · B``.

    ``A`` is ``m1 × m2``, ``B`` is ``m2 × m3``.  ``product(i, k, j)`` is the
    scalar product :math:`A_{i,k} \\cdot B_{k,j}` and ``c(i, j)`` the output
    entry :math:`C_{i,j}` aggregating the ``m2`` products of its row/column
    pair.  All indices 0-based.
    """

    dag: ComputationalDAG
    m1: int
    m2: int
    m3: int

    def a(self, i: int, k: int) -> int:
        """Node id of ``A[i, k]``."""
        return i * self.m2 + k

    def b(self, k: int, j: int) -> int:
        """Node id of ``B[k, j]``."""
        return self.m1 * self.m2 + k * self.m3 + j

    def product(self, i: int, k: int, j: int) -> int:
        """Node id of the product ``A[i, k] * B[k, j]``."""
        base = self.m1 * self.m2 + self.m2 * self.m3
        return base + (i * self.m2 + k) * self.m3 + j

    def c(self, i: int, j: int) -> int:
        """Node id of the output entry ``C[i, j]``."""
        base = self.m1 * self.m2 + self.m2 * self.m3 + self.m1 * self.m2 * self.m3
        return base + i * self.m3 + j

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return (
            self.m1 * self.m2
            + self.m2 * self.m3
            + self.m1 * self.m2 * self.m3
            + self.m1 * self.m3
        )

    @property
    def internal_edges(self) -> int:
        """Number of edges from product nodes to output nodes (the paper's *internal edges*)."""
        return self.m1 * self.m2 * self.m3


def matmul_layout(m1: int, m2: int, m3: int) -> Tuple[MatMulInstance, int, Tuple[Edge, ...]]:
    """:func:`matmul_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if min(m1, m2, m3) < 1:
        raise ValueError(f"all dimensions must be >= 1, got ({m1}, {m2}, {m3})")
    inst = MatMulInstance(dag=None, m1=m1, m2=m2, m3=m3)  # type: ignore[arg-type]
    edges: List[Edge] = []
    for i in range(m1):
        for k in range(m2):
            a, b0, p0 = inst.a(i, k), inst.b(k, 0), inst.product(i, k, 0)
            for j in range(m3):
                edges.append((a, p0 + j))
                edges.append((b0 + j, p0 + j))
    for i in range(m1):
        for j in range(m3):
            cij = inst.c(i, j)
            # C[i, j]'s products, k = 0 .. m2-1, lie m3 ids apart
            edges.extend((p, cij) for p in range(inst.product(i, 0, j), inst.product(i, m2, j), m3))
    return inst, inst.n_nodes, tuple(edges)


def matmul_instance(m1: int, m2: int, m3: int) -> MatMulInstance:
    """Build the matmul DAG for ``A (m1×m2) · B (m2×m3)`` (all dimensions ``>= 1``)."""
    inst, n, edges = matmul_layout(m1, m2, m3)
    labels = {inst.a(i, k): f"A[{i},{k}]" for i in range(m1) for k in range(m2)}
    labels.update({inst.b(k, j): f"B[{k},{j}]" for k in range(m2) for j in range(m3)})
    labels.update({inst.c(i, j): f"C[{i},{j}]" for i in range(m1) for j in range(m3)})
    for i in range(m1):
        for k in range(m2):
            for j in range(m3):
                labels[inst.product(i, k, j)] = f"p[{i},{k},{j}]"
    family = DAGFamily.tag("matmul", m1=m1, m2=m2, m3=m3)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"matmul-{m1}x{m2}x{m3}", family))


def matmul_dag(m1: int, m2: int, m3: int) -> ComputationalDAG:
    """The standard matrix-multiplication DAG for ``A (m1×m2) · B (m2×m3)``."""
    return matmul_instance(m1, m2, m3).dag
