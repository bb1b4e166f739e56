"""The m-point FFT (butterfly) DAG of Theorem 6.9.

The ``m``-point FFT graph (``m`` a power of two) has ``log2(m) + 1`` levels
of ``m`` nodes each.  Level 0 holds the sources; the node ``j`` of level
``t`` has exactly two in-neighbours on level ``t - 1``: node ``j`` itself and
node ``j XOR 2**(t-1)`` (the classic butterfly wiring, which is isomorphic to
the recursive description in the paper: two half-size FFTs whose outputs
``u_i`` feed the new layer's ``v_j`` whenever ``i ≡ j (mod m/2)``).

Hong and Kung's lower bound ``Ω(m·log m / log r)`` holds for this DAG in RBP,
and Theorem 6.9 shows the identical bound for PRBP via S-dominator
partitions; see :mod:`repro.bounds.analytic`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = ["FFTInstance", "fft_layout", "fft_instance", "fft_dag"]


@dataclass(frozen=True)
class FFTInstance:
    """Layout of the ``m``-point butterfly DAG.

    ``node(t, j)`` is the ``j``-th node of level ``t`` (level 0 = sources,
    level ``log2(m)`` = sinks).
    """

    dag: ComputationalDAG
    m: int
    levels: int  # number of butterfly levels = log2(m)

    def node(self, t: int, j: int) -> int:
        """Node id of level ``t`` (0-based from the sources), position ``j``."""
        return t * self.m + j

    @property
    def source_level(self) -> Tuple[int, ...]:
        """Node ids of the input level."""
        return tuple(self.node(0, j) for j in range(self.m))

    @property
    def sink_level(self) -> Tuple[int, ...]:
        """Node ids of the output level."""
        return tuple(self.node(self.levels, j) for j in range(self.m))


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def fft_layout(m: int) -> Tuple[FFTInstance, int, Tuple[Edge, ...]]:
    """:func:`fft_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if not _is_power_of_two(m) or m < 2:
        raise ValueError(f"m must be a power of two >= 2, got {m}")
    levels = m.bit_length() - 1  # log2(m)
    edges: List[Edge] = []
    for t in range(1, levels + 1):
        stride = 1 << (t - 1)
        below = (t - 1) * m
        for j in range(m):
            v = below + m + j
            edges.append((below + j, v))
            edges.append((below + (j ^ stride), v))
    return FFTInstance(dag=None, m=m, levels=levels), m * (levels + 1), tuple(edges)  # type: ignore[arg-type]


def fft_instance(m: int) -> FFTInstance:
    """Build the ``m``-point FFT DAG (``m`` must be a power of two, ``m >= 2``)."""
    inst, n, edges = fft_layout(m)
    labels = {inst.node(t, j): f"f{t},{j}" for t in range(inst.levels + 1) for j in range(m)}
    family = DAGFamily.tag("fft", m=m)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"fft-{m}", family))


def fft_dag(m: int) -> ComputationalDAG:
    """The ``m``-point FFT (butterfly) DAG."""
    return fft_instance(m).dag
