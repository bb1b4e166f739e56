"""Computational DAG substrate used by every pebble game in the library.

The paper models a computation as a directed acyclic graph ``G = (V, E)``
whose nodes are operations and whose edge ``(u, v)`` says that the output of
``u`` is an input of ``v``.  This module provides :class:`ComputationalDAG`,
an immutable, validated representation of such a graph together with the
derived quantities the pebble games and the lower-bound machinery need
constantly: sources, sinks, in/out degrees, a topological order, reachability
and edge indexing.

Nodes are integers ``0 .. n-1``.  Human-readable labels can be attached for
debugging and for the structured DAG generators (``"A[2,3]"``, ``"x[5]"``,
...), but the engines only ever use the integer ids — this keeps the hot
loops allocation-free and lets configurations be encoded as bitmasks.

The class intentionally does **not** wrap :mod:`networkx` internally; graphs
with tens of thousands of edges are pebbled move-by-move, and plain Python
lists of integers are markedly faster.  Conversion helpers
(:meth:`ComputationalDAG.to_networkx`, :meth:`ComputationalDAG.from_networkx`)
are provided for interoperability, plotting and for users who already have a
networkx pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .exceptions import DAGError

__all__ = ["ComputationalDAG", "DAGFamily", "Edge"]

#: An edge is a ``(tail, head)`` pair of node ids.
Edge = Tuple[int, int]


@dataclass(frozen=True)
class DAGFamily:
    """Provenance tag identifying which generator produced a DAG, and with
    which parameters.

    Every generator in :mod:`repro.dags` attaches one of these to the DAGs it
    builds, so downstream consumers — most importantly the auto-dispatch
    portfolio of :func:`repro.api.solve` — can select the structured strategy
    that matches the family without the caller having to thread layout
    objects through every call site.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    tag stays hashable; use :meth:`param` or :meth:`as_dict` to read values.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def tag(cls, name: str, **params: Any) -> "DAGFamily":
        """Build a tag from keyword parameters: ``DAGFamily.tag("fft", m=16)``."""
        return cls(name, tuple(sorted(params.items())))

    def param(self, key: str, default: Any = None) -> Any:
        """Value of one generator parameter (``default`` if absent)."""
        for k, v in self.params:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        """The generator parameters as a plain dict."""
        return dict(self.params)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"


class ComputationalDAG:
    """An immutable directed acyclic graph describing a computation.

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n``.  Duplicate edges
        and self-loops are rejected, as are cycles.
    labels:
        Optional mapping from node id to a human readable label.  Missing
        entries default to ``"v<i>"``.
    name:
        Optional name of the DAG family instance (used in reports).
    family:
        Optional :class:`DAGFamily` tag recording which generator built this
        DAG and with which parameters; consumed by the solver auto-dispatch
        in :mod:`repro.api`.

    Raises
    ------
    DAGError
        If the edge list references unknown nodes, contains duplicates or
        self-loops, or if the graph contains a directed cycle.

    Notes
    -----
    The paper assumes the DAG has no isolated nodes; we do *not* enforce that
    at construction time (generators occasionally build graphs incrementally)
    but :meth:`validate_no_isolated` is available and the engines call it
    when a game is started.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_edge_index",
        "_preds",
        "_succs",
        "_sources",
        "_sinks",
        "_topo",
        "_labels",
        "name",
        "family",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        labels: Optional[Mapping[int, str]] = None,
        name: str = "dag",
        family: Optional[DAGFamily] = None,
    ) -> None:
        if n < 0:
            raise DAGError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)
        edge_list: List[Edge] = []
        seen: Set[Edge] = set()
        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise DAGError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            if u == v:
                raise DAGError(f"self-loop on node {u} is not allowed")
            if (u, v) in seen:
                raise DAGError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            edge_list.append((u, v))
            preds[v].append(u)
            succs[u].append(v)
        self._edges: Tuple[Edge, ...] = tuple(edge_list)
        self._edge_index: Dict[Edge, int] = {e: i for i, e in enumerate(edge_list)}
        self._preds: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in preds)
        self._succs: Tuple[Tuple[int, ...], ...] = tuple(tuple(s) for s in succs)
        self._sources: Tuple[int, ...] = tuple(v for v in range(n) if not preds[v])
        self._sinks: Tuple[int, ...] = tuple(v for v in range(n) if not succs[v])
        self._topo: Tuple[int, ...] = self._topological_order()
        if labels is None:
            labels = {}
        self._labels: Tuple[str, ...] = tuple(labels.get(v, f"v{v}") for v in range(n))
        self.name = name
        self.family = family

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[Edge],
        labels: Optional[Mapping[int, str]] = None,
        name: str = "dag",
        family: Optional[DAGFamily] = None,
    ) -> "ComputationalDAG":
        """Build a DAG from an edge list, inferring ``n`` as ``max id + 1``."""
        n = 0
        for u, v in edges:
            n = max(n, u + 1, v + 1)
        return cls(n, edges, labels=labels, name=name, family=family)

    @classmethod
    def from_networkx(cls, graph, name: str = "dag") -> "ComputationalDAG":
        """Build a DAG from a ``networkx.DiGraph``.

        Node identities are preserved when the nodes already are the integers
        ``0 .. n-1``; otherwise nodes are relabelled in iteration order and
        the original identifier is kept as the node label.
        """
        nodes = list(graph.nodes())
        if set(nodes) == set(range(len(nodes))):
            mapping = {v: v for v in nodes}
        else:
            mapping = {v: i for i, v in enumerate(nodes)}
        labels = {mapping[v]: str(v) for v in nodes}
        edges = [(mapping[u], mapping[v]) for u, v in graph.edges()]
        return cls(len(nodes), edges, labels=labels, name=name)

    def to_networkx(self):
        """Return a ``networkx.DiGraph`` copy of this DAG (labels as ``label`` attr)."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for v in range(self._n):
            g.add_node(v, label=self._labels[v])
        g.add_edges_from(self._edges)
        return g

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as ``(u, v)`` pairs, in insertion order."""
        return self._edges

    @property
    def sources(self) -> Tuple[int, ...]:
        """Nodes with no incoming edge (the inputs of the computation)."""
        return self._sources

    @property
    def sinks(self) -> Tuple[int, ...]:
        """Nodes with no outgoing edge (the outputs of the computation)."""
        return self._sinks

    def nodes(self) -> range:
        """Iterate over node ids ``0 .. n-1``."""
        return range(self._n)

    def predecessors(self, v: int) -> Tuple[int, ...]:
        """In-neighbours of ``v`` (the inputs of operation ``v``)."""
        return self._preds[v]

    def successors(self, v: int) -> Tuple[int, ...]:
        """Out-neighbours of ``v`` (the operations consuming ``v``)."""
        return self._succs[v]

    def in_degree(self, v: int) -> int:
        """Number of inputs of ``v``."""
        return len(self._preds[v])

    def out_degree(self, v: int) -> int:
        """Number of consumers of ``v``."""
        return len(self._succs[v])

    @property
    def max_in_degree(self) -> int:
        """The paper's :math:`\\Delta_{in}` — 0 for an empty graph."""
        return max((len(p) for p in self._preds), default=0)

    @property
    def max_out_degree(self) -> int:
        """The paper's :math:`\\Delta_{out}` — 0 for an empty graph."""
        return max((len(s) for s in self._succs), default=0)

    def is_source(self, v: int) -> bool:
        """True iff ``v`` has no incoming edge."""
        return not self._preds[v]

    def is_sink(self, v: int) -> bool:
        """True iff ``v`` has no outgoing edge."""
        return not self._succs[v]

    def label(self, v: int) -> str:
        """Human-readable label of node ``v``."""
        return self._labels[v]

    def edge_id(self, u: int, v: int) -> int:
        """Dense index of edge ``(u, v)`` (0-based, stable across the object's lifetime)."""
        try:
            return self._edge_index[(u, v)]
        except KeyError:
            raise DAGError(f"({u}, {v}) is not an edge of this DAG") from None

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge."""
        return (u, v) in self._edge_index

    def in_edges(self, v: int) -> List[Edge]:
        """Incoming edges of ``v`` as ``(u, v)`` pairs."""
        return [(u, v) for u in self._preds[v]]

    def out_edges(self, v: int) -> List[Edge]:
        """Outgoing edges of ``v`` as ``(v, w)`` pairs."""
        return [(v, w) for w in self._succs[v]]

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def _topological_order(self) -> Tuple[int, ...]:
        """Kahn's algorithm; raises :class:`DAGError` on a cycle."""
        indeg = [len(p) for p in self._preds]
        stack = [v for v in range(self._n) if indeg[v] == 0]
        order: List[int] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in self._succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != self._n:
            raise DAGError("the graph contains a directed cycle")
        return tuple(order)

    @property
    def topological_order(self) -> Tuple[int, ...]:
        """A topological order of the nodes (sources first)."""
        return self._topo

    def topological_position(self) -> List[int]:
        """Return ``pos`` with ``pos[v]`` = index of ``v`` in the topological order."""
        pos = [0] * self._n
        for i, v in enumerate(self._topo):
            pos[v] = i
        return pos

    def validate_no_isolated(self) -> None:
        """Raise :class:`DAGError` if any node has neither in- nor out-edges.

        The paper assumes DAGs without isolated nodes (an isolated node would
        be simultaneously a source and a sink and would only add trivial
        I/O).  Single-node graphs are permitted as a degenerate case.
        """
        if self._n <= 1:
            return
        for v in range(self._n):
            if not self._preds[v] and not self._succs[v]:
                raise DAGError(f"node {v} ({self._labels[v]}) is isolated")

    def descendants(self, v: int) -> Set[int]:
        """All nodes reachable from ``v`` by a directed path (excluding ``v``)."""
        seen: Set[int] = set()
        stack = list(self._succs[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(self._succs[w])
        return seen

    def ancestors(self, v: int) -> Set[int]:
        """All nodes from which ``v`` is reachable by a directed path (excluding ``v``)."""
        seen: Set[int] = set()
        stack = list(self._preds[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(self._preds[w])
        return seen

    def reachable_from(self, roots: Iterable[int]) -> Set[int]:
        """All nodes reachable from any node in ``roots`` (including the roots)."""
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(self._succs[w])
        return seen

    def has_path(self, u: int, v: int) -> bool:
        """True iff there is a directed path from ``u`` to ``v`` (``u == v`` counts)."""
        if u == v:
            return True
        return v in self.descendants(u)

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #

    def relabel(self, labels: Mapping[int, str], name: Optional[str] = None) -> "ComputationalDAG":
        """Return a copy of this DAG with (some) node labels replaced."""
        merged = {v: labels.get(v, self._labels[v]) for v in range(self._n)}
        return ComputationalDAG(
            self._n, self._edges, labels=merged, name=name or self.name, family=self.family
        )

    def induced_subgraph(self, keep: Iterable[int], name: Optional[str] = None) -> "ComputationalDAG":
        """Return the sub-DAG induced by ``keep`` (nodes renumbered densely).

        Labels are carried over; the returned DAG stores the original node id
        in its label suffix only if the original label was the default one.
        """
        keep_sorted = sorted(set(keep))
        remap = {old: new for new, old in enumerate(keep_sorted)}
        edges = [
            (remap[u], remap[v])
            for (u, v) in self._edges
            if u in remap and v in remap
        ]
        labels = {remap[old]: self._labels[old] for old in keep_sorted}
        return ComputationalDAG(len(keep_sorted), edges, labels=labels, name=name or f"{self.name}[sub]")

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputationalDAG(name={self.name!r}, n={self._n}, m={self.m}, "
            f"sources={len(self._sources)}, sinks={len(self._sinks)}, "
            f"max_in={self.max_in_degree}, max_out={self.max_out_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputationalDAG):
            return NotImplemented
        # same generator, same edge order: the tuple compare settles it
        # without building two edge sets
        return self._n == other._n and (
            self._edges == other._edges or set(self._edges) == set(other._edges)
        )

    def __hash__(self) -> int:
        return hash((self._n, frozenset(self._edges)))

    # ------------------------------------------------------------------ #
    # paper quantities
    # ------------------------------------------------------------------ #

    def trivial_cost(self) -> int:
        """The paper's *trivial cost* ``t``: number of sources plus sinks.

        Every valid pebbling (RBP or PRBP) must load every source at least
        once and save every sink at least once, so ``OPT >= trivial_cost``
        whenever the DAG has no isolated nodes (the paper's standing
        assumption).
        """
        return len(self._sources) + len(self._sinks)
