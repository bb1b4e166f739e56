"""Exact optimal pebbling via A* search over game configurations.

Computing ``OPT_RBP`` and ``OPT_PRBP`` is NP-hard (and hard to approximate,
Theorem 7.1), so exact solvers can only target small DAGs — which is exactly
what the paper's examples need: the Figure 1 gadget, small trees, small
zipper and collection gadgets, and the DAG families at toy sizes.  The
solvers here are used by the test-suite and the benchmarks to *verify* that
the structured strategies and the closed-form costs of the propositions are
actually optimal.

Search formulation
------------------
A configuration is the complete game state:

* RBP:  ``(red set, blue set, computed set)`` — three node bitmasks;
* PRBP: ``(red set, blue set, marked-edge set)`` — two node bitmasks and an
  edge bitmask.  A node's pebble state is its pair of bits: light red
  (``red & blue``), dark red (``red & ~blue``), blue only (``blue & ~red``)
  or none, so the red count is a popcount, the goal test two mask tests and
  the dominance key three mask operations.

Moves are grouped into *macro moves* in a cost-preserving normal form:

* **Deferred deletes.**  Delete moves are free and their legality is
  monotone in time (a light red pebble can always be deleted; a dark red
  pebble becomes deletable once all its out-edges are marked, and marks are
  never removed in the one-shot game), and keeping a pebble never disables a
  later move except through the capacity bound, which is only checked when a
  pebble is *added*.  Hence every strategy can be normalised so that deletes
  happen immediately before the load/compute that needs the freed slot.  The
  solver therefore only branches over "delete one pebble + add one pebble"
  pairs when the configuration is at capacity.
* **Useless-move elimination.**  Loads of values that can never be used
  again, saves of values that are already up to date in slow memory, and
  saves of values that are never needed again are never part of a minimal
  strategy and are not generated.

Macro moves are recorded as ``(op, node, arg)`` rows (:mod:`repro.core.moves`):
the search's parent links hold the rows of each macro move, shared between
the successors that make the same move, and the returned schedule is built
from them with ``from_rows``.

The search is A* with an admissible (not necessarily consistent) heuristic:
the per-state counting term "number of unsaved sinks plus number of
sources that still have to be re-loaded" — both count distinct,
unavoidable future I/O operations from the current configuration.  The
f-values are not floored at the trivial cost (sources + sinks,
:func:`root_lower_bound`) because the heuristic already implies that
floor: a source not yet loaded and a sink not yet saved are each counted
by ``h``, and each one already loaded or saved is counted in ``g``, so
``g + h`` never falls below it.  A clamp ``max(f, floor)`` would therefore
never change an f-value; the test-suite's oracle search keeps one, and
checks that a zero floor changes nothing.  Each search still computes
:func:`root_lower_bound` once (``root_bound``), the hook perfbench's tracer
times.  The exact S-partition bounds of :mod:`repro.bounds` are asymptotic
tools: on the small DAGs this search can afford they were never found
above the trivial cost, so they are not consulted.

States are re-opened when a cheaper path is found, so inconsistency only
costs re-expansions, never optimality.  Two further prunes keep the
expansion count down:

* **f-tie breaking towards the goal** — among equal f-values the larger
  g (deeper state) is popped first, so once the frontier reaches the
  optimum plateau the search runs depth-first along it instead of
  flooding the whole plateau breadth-first;
* **dominance pruning** — a popped state whose freely-deletable red set
  is a subset of an already-expanded state with the same irreversible
  progress (blue/computed sets in RBP; marked edges, dark pebbles and
  blue base in PRBP) at equal-or-lower g-cost is skipped: extra red
  pebbles can always be deleted for free, so every completion of the
  dominated state is matched, at equal or lower cost, through the
  dominating one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.dag import ComputationalDAG
from ..core.exceptions import SolverError
from ..core.moves import OP_COMPUTE, OP_DELETE, OP_LOAD, OP_SAVE, MoveRow
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import ONE_SHOT, GameVariant
from ..obs.recorder import current_recorder

__all__ = [
    "optimal_rbp_schedule",
    "optimal_rbp_cost",
    "optimal_prbp_schedule",
    "optimal_prbp_cost",
    "DEFAULT_MAX_STATES",
    "SearchTelemetry",
    "last_search_telemetry",
    "root_lower_bound",
]

#: Default cap on the number of distinct configurations the solvers may expand.
DEFAULT_MAX_STATES = 2_000_000

_INF = float("inf")


def root_lower_bound(dag: ComputationalDAG, r: int, game: str, variant: GameVariant) -> int:
    """The trivial cost, below which no f-value of the A* searches falls.

    Every schedule loads each source and saves each sink at least once, so
    ``dag.trivial_cost()`` bounds the total cost of any valid schedule in
    every game and variant; an isolated node needs no I/O at all, so a DAG
    holding one (besides a lone node) is floored at 0.  ``r``, ``game`` and
    ``variant`` do not change the floor; they stay in the signature, which
    perfbench's tracer wraps by name.
    """
    if dag.n > 1 and any(dag.is_source(v) and dag.is_sink(v) for v in dag.nodes()):
        return 0
    return dag.trivial_cost()


@dataclass(frozen=True)
class SearchTelemetry:
    """Counters of one A* run (successful or aborted)."""

    expanded: int
    frontier_peak: int
    completed: bool
    dominated_pruned: int = 0


def last_search_telemetry() -> Optional[SearchTelemetry]:
    """Counters of the latest A* run of the solve running in this context.

    Reads the per-solve :class:`~repro.obs.recorder.SolveRecorder`:
    ``None`` outside a solve and before its first search.
    """
    recorder = current_recorder()
    return recorder.search if recorder is not None else None


def _popcount(x: int) -> int:
    return x.bit_count()


def _bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# --------------------------------------------------------------------------- #
# RBP
# --------------------------------------------------------------------------- #


class _RBPSearch:
    """A* search for the optimal RBP pebbling of a small DAG."""

    #: Heuristic value of a provably dead state (a still-needed value was
    #: irrecoverably lost); far above any reachable f, so never expanded.
    DEAD_STATE_H = 1 << 30

    def __init__(self, dag: ComputationalDAG, r: int, variant: GameVariant, max_states: int):
        self.dag = dag
        self.r = r
        self.variant = variant
        self.max_states = max_states
        self.n = dag.n
        self.full_mask = (1 << dag.n) - 1
        self.source_mask = sum(1 << v for v in dag.sources)
        self.sink_mask = sum(1 << v for v in dag.sinks)
        self.pred_mask = [sum(1 << u for u in dag.predecessors(v)) for v in range(self.n)]
        self.succ_mask = [sum(1 << w for w in dag.successors(v)) for v in range(self.n)]
        self.is_source = [dag.is_source(v) for v in range(self.n)]
        self.is_sink = [dag.is_sink(v) for v in range(self.n)]
        # the rows of each node's moves, shared by every successor that makes them
        self.load_row = [(OP_LOAD, v, -1) for v in range(self.n)]
        self.compute_row = [(OP_COMPUTE, v, -1) for v in range(self.n)]
        self.delete_row = [(OP_DELETE, v, -1) for v in range(self.n)]
        self.save_move = [((OP_SAVE, v, -1),) for v in range(self.n)]
        self.load_move = [(row,) for row in self.load_row]
        self.compute_move = [(row,) for row in self.compute_row]
        if not variant.allow_sliding and r < dag.max_in_degree + 1:
            raise SolverError(
                f"no valid RBP pebbling exists: r = {r} < max in-degree + 1 = {dag.max_in_degree + 1}"
            )
        if variant.allow_sliding and r < dag.max_in_degree:
            raise SolverError(
                f"no valid sliding-RBP pebbling exists: r = {r} < max in-degree = {dag.max_in_degree}"
            )
        self.root_bound = root_lower_bound(dag, r, "rbp", variant)

    # state = (red, blue, computed) bitmask triple

    def initial(self) -> Tuple[int, int, int]:
        return (0, self.source_mask, 0)

    def dominance(self, state: Tuple[int, int, int]) -> Optional[Tuple[Tuple[int, int], int]]:
        """Dominance key/mask pair: states sharing the ``(blue, computed)``
        key are comparable, and one with a red *subset* at equal-or-higher
        g-cost is dominated (extra red pebbles delete for free).  Disabled in
        the no-deletion variant, where red pebbles cannot be shed."""
        if not self.variant.allow_delete:
            return None
        red, blue, computed = state
        return (blue, computed), red

    def is_goal(self, state: Tuple[int, int, int]) -> bool:
        return (state[1] & self.sink_mask) == self.sink_mask

    def heuristic(self, state: Tuple[int, int, int]) -> int:
        red, blue, computed = state
        h = _popcount(self.sink_mask & ~blue)
        if self.variant.one_shot:
            # Every non-red node with an uncomputed successor must become red
            # again before that successor can be computed.  Sources and
            # already-computed nodes can only get there through a load (one
            # distinct load each); an already-computed node that is neither
            # blue nor red is lost for good — the state is a dead end.
            for v in _bits(self.full_mask & ~red):
                if not (self.succ_mask[v] & ~computed):
                    continue
                bit = 1 << v
                if self.is_source[v]:
                    h += 1
                elif computed & bit:
                    if blue & bit:
                        h += 1
                    else:
                        return self.DEAD_STATE_H
        else:
            for s in _bits(self.source_mask & ~red):
                # a source that still has an uncomputed successor must be
                # (re)loaded; non-sources may be recomputed instead
                if self.succ_mask[s] & ~computed:
                    h += 1
        return h

    def successors(
        self, state: Tuple[int, int, int]
    ) -> Iterator[Tuple[Tuple[int, int, int], float, Tuple[MoveRow, ...]]]:
        red, blue, computed = state
        red_count = _popcount(red)
        at_capacity = red_count >= self.r
        one_shot = self.variant.one_shot
        allow_delete = self.variant.allow_delete
        compute_cost = self.variant.compute_cost

        # deletable red pebbles (for deferred deletes); in the no-deletion
        # variant nothing can be deleted.  In the one-shot game, deleting the
        # only copy of a value that is still needed (an unsaved sink, or an
        # unsaved computed node with an uncomputed successor) makes the goal
        # unreachable, so those choices are never generated.
        deletable: List[int] = []
        if allow_delete:
            for d in _bits(red):
                dbit = 1 << d
                if (
                    one_shot
                    and not (blue & dbit)
                    and (self.is_sink[d] or (self.succ_mask[d] & ~computed))
                ):
                    continue
                deletable.append(d)

        for v in range(self.n):
            bit = 1 << v
            in_red = bool(red & bit)
            in_blue = bool(blue & bit)

            # ---- save -------------------------------------------------- #
            # In the no-deletion variant a save is also the only way to free a
            # fast-memory slot, so it is generated even when it looks useless
            # (and even when the node is already blue).
            if in_red and (not in_blue or not allow_delete):
                useful = True
                if (
                    allow_delete
                    and one_shot
                    and not self.is_sink[v]
                    and not (self.succ_mask[v] & ~computed)
                ):
                    useful = False  # value can never be needed again
                if useful:
                    new_red = red if allow_delete else red & ~bit
                    yield (new_red, blue | bit, computed), 1.0, self.save_move[v]

            # ---- load -------------------------------------------------- #
            if in_blue and not in_red:
                useful = bool(self.succ_mask[v] & ~computed) if one_shot else bool(self.succ_mask[v])
                if useful:
                    if not at_capacity:
                        yield (red | bit, blue, computed), 1.0, self.load_move[v]
                    else:
                        for d in deletable:
                            dbit = 1 << d
                            yield (
                                ((red & ~dbit) | bit, blue, computed),
                                1.0,
                                (self.delete_row[d], self.load_row[v]),
                            )

            # ---- compute ----------------------------------------------- #
            if not self.is_source[v] and not in_red:
                if one_shot and (computed & bit):
                    continue
                if (red & self.pred_mask[v]) != self.pred_mask[v]:
                    continue
                cost = float(compute_cost)
                if self.variant.allow_sliding:
                    for u in _bits(self.pred_mask[v]):
                        ubit = 1 << u
                        yield (
                            ((red & ~ubit) | bit, blue, computed | bit),
                            cost,
                            ((OP_COMPUTE, v, u),),
                        )
                if not at_capacity:
                    yield (red | bit, blue, computed | bit), cost, self.compute_move[v]
                else:
                    for d in deletable:
                        dbit = 1 << d
                        if dbit & self.pred_mask[v]:
                            continue  # deleting an input would make the compute illegal
                        yield (
                            ((red & ~dbit) | bit, blue, computed | bit),
                            cost,
                            (self.delete_row[d], self.compute_row[v]),
                        )


class _PRBPSearch:
    """A* search for the optimal (one-shot) PRBP pebbling of a small DAG.

    A state is three masks ``(red, blue, marked)``: nodes holding a red
    pebble, nodes holding a blue pebble, and marked edges.  A node's PRBP
    pebble state is its pair of bits: light red is ``red & blue``, dark red
    ``red & ~blue``, blue only ``blue & ~red``, no pebble neither.
    """

    def __init__(self, dag: ComputationalDAG, r: int, variant: GameVariant, max_states: int):
        if not variant.one_shot:
            raise SolverError("the exhaustive PRBP solver only supports the one-shot variant")
        if variant.allow_sliding:
            raise SolverError("the sliding rule does not exist in PRBP")
        self.dag = dag
        self.r = r
        self.variant = variant
        self.max_states = max_states
        n = dag.n
        self.source_mask = sum(1 << v for v in dag.sources)
        self.sink_mask = sum(1 << v for v in dag.sinks)
        self.all_edges_mask = (1 << dag.m) - 1
        self.out_edge_mask = [0] * n
        for eid, (u, _) in enumerate(dag.edges):
            self.out_edge_mask[u] |= 1 << eid
        # A dark pebble on a sink still needs its save, and deleting it would
        # lose the value for good (its in-edges are marked, so it can never be
        # recomputed); without the delete rule no dark pebble is deletable.
        self.dark_deletable_mask = ((1 << n) - 1) & ~self.sink_mask if variant.allow_delete else 0
        # Without the delete rule for dark red pebbles a save may be needed
        # purely to free the slot, so every dark pebble's save is useful.
        self.always_save_mask = self.sink_mask if variant.allow_delete else (1 << n) - 1
        # per edge: its endpoints' bits, its compute cost and rows
        self.edge_source_bit = [1 << u for u, _ in dag.edges]
        self.edge_target_bit = [1 << v for _, v in dag.edges]
        self.edge_cost = []
        for _, v in dag.edges:
            cost = float(variant.compute_cost)
            if cost and variant.split_compute_cost:
                cost /= dag.in_degree(v)
            self.edge_cost.append(cost)
        self.compute_row = [(OP_COMPUTE, u, v) for u, v in dag.edges]
        self.compute_move = [(row,) for row in self.compute_row]
        self.load_row = [(OP_LOAD, v, -1) for v in range(n)]
        self.load_move = [(row,) for row in self.load_row]
        self.save_move = [((OP_SAVE, v, -1),) for v in range(n)]
        self.delete_row = [(OP_DELETE, v, -1) for v in range(n)]
        if r < 2 and dag.max_in_degree >= 1:
            raise SolverError(
                f"no valid PRBP pebbling exists for r = {r} < 2 on a DAG with edges"
            )
        self._pending_memo: Dict[int, Tuple[int, int, int]] = {}
        self.root_bound = root_lower_bound(dag, r, "prbp", variant)

    def initial(self) -> Tuple[int, int, int]:
        return (0, self.source_mask, 0)

    def dominance(self, state: Tuple[int, int, int]) -> Tuple[Tuple[int, int, int], int]:
        """Dominance key/mask pair.  Light red pebbles are the only freely
        deletable resource (``BLUE_LIGHT_RED -> BLUE`` is always legal, even
        in the no-deletion variant), so the key is the dark pebbles, the blue
        base (light pebbles counted as plain blue) and the marked edges:
        states agreeing on them are comparable, and a light-set subset at
        equal-or-higher g-cost is dominated."""
        red, blue, marked = state
        return (red & ~blue, blue, marked), red & blue

    def is_goal(self, state: Tuple[int, int, int]) -> bool:
        red, blue, marked = state
        return marked == self.all_edges_mask and (blue & self.sink_mask) == self.sink_mask

    def _pending(self, marked: int) -> Tuple[int, int, int]:
        """Node masks of what the unmarked edges leave to do: ``(touched,
        feeding, incomplete)`` — the nodes on an unmarked edge, those with an
        unmarked out-edge, and those with an unmarked in-edge.  They depend
        on ``marked`` alone, which far fewer states differ in, so they are
        memoised per marked set."""
        pending = self._pending_memo.get(marked)
        if pending is None:
            feeding = incomplete = 0
            unmarked = self.all_edges_mask ^ marked
            while unmarked:
                ebit = unmarked & -unmarked
                unmarked ^= ebit
                eid = ebit.bit_length() - 1
                feeding |= self.edge_source_bit[eid]
                incomplete |= self.edge_target_bit[eid]
            pending = self._pending_memo[marked] = (feeding | incomplete, feeding, incomplete)
        return pending

    def heuristic(self, state: Tuple[int, int, int]) -> int:
        """Sinks without a blue pebble (none or dark) still need their save,
        and a blue-only node on an unmarked edge must be loaded again:
        marking an out-edge needs it red, and marking an in-edge needs its
        partial value back in fast memory."""
        red, blue, marked = state
        touched = self._pending(marked)[0]
        return (self.sink_mask & ~blue).bit_count() + (blue & ~red & touched).bit_count()

    def successors(
        self, state: Tuple[int, int, int]
    ) -> Iterator[Tuple[Tuple[int, int, int], float, Tuple[MoveRow, ...]]]:
        red, blue, marked = state
        touched, feeding, incomplete = self._pending(marked)
        at_capacity = red.bit_count() >= self.r
        deletable: List[Tuple[int, MoveRow]] = []
        if at_capacity:
            # every light pebble, and a dark one with all its edges marked
            # (sinks and the no-deletion variant aside)
            x = red & (blue | (self.dark_deletable_mask & ~touched))
            while x:
                dbit = x & -x
                x ^= dbit
                deletable.append((dbit, self.delete_row[dbit.bit_length() - 1]))

        # ---- saves of dark pebbles and loads of blue-only ones, by node -- #
        saves = red & ~blue & (self.always_save_mask | feeding)
        x = saves | (blue & ~red & touched)
        while x:
            bit = x & -x
            x ^= bit
            v = bit.bit_length() - 1
            if bit & saves:
                yield (red, blue | bit, marked), 1.0, self.save_move[v]
            elif not at_capacity:
                yield (red | bit, blue, marked), 1.0, self.load_move[v]
            else:
                load = self.load_row[v]
                for dbit, delete in deletable:
                    yield ((red & ~dbit) | bit, blue, marked), 1.0, (delete, load)

        # ---- partial computes out of fully computed red nodes, by edge -- #
        ready = 0
        x = red & ~incomplete
        while x:
            bit = x & -x
            x ^= bit
            ready |= self.out_edge_mask[bit.bit_length() - 1]
        ready &= self.all_edges_mask ^ marked
        while ready:
            ebit = ready & -ready
            ready ^= ebit
            eid = ebit.bit_length() - 1
            vbit = self.edge_target_bit[eid]
            new_marked = marked | ebit
            cost = self.edge_cost[eid]
            if red & vbit:  # light or dark: v turns dark
                yield (red, blue & ~vbit, new_marked), cost, self.compute_move[eid]
            elif blue & vbit:
                continue  # v's partial value must first be loaded
            elif not at_capacity:
                yield (red | vbit, blue, new_marked), cost, self.compute_move[eid]
            else:
                ubit = self.edge_source_bit[eid]
                compute = self.compute_row[eid]
                for dbit, delete in deletable:
                    if dbit != ubit:
                        yield ((red & ~dbit) | vbit, blue, new_marked), cost, (delete, compute)


def _astar(search, max_states: int):
    """Generic A* driver shared by the RBP and PRBP searches.

    Heap entries are ``(f, -g, tie, state)`` — among equal f-values the
    deeper state pops first.  The heuristic counts only a few unavoidable
    loads and saves, so many states share the optimum's f-value; popping
    the deeper ones first runs depth-first along that plateau towards a
    goal instead of expanding it breadth-first.  Dominance pruning consults
    a per-key transposition table of ``(mask, g)`` pairs of already-expanded
    states; a popped state whose mask is a subset of a recorded one at
    equal-or-lower g is skipped without expansion (and without counting
    against the state budget).

    ``parent`` maps each reached state to ``(previous state, rows)``, the
    ``(op, node, arg)`` rows of the macro move that reached it.

    Telemetry (expanded states, frontier peak, dominance prunes) goes to
    the solve's recorder whether the search succeeds, runs out of budget,
    or exhausts the space — the counters are part of the cost model the
    benchmark suite tracks, not just a success statistic.
    """
    start = search.initial()
    dist: Dict = {start: 0.0}
    parent: Dict = {start: None}
    tie = count()
    heap = [(search.heuristic(start), 0.0, -next(tie), start)]
    expanded = 0
    pruned = 0
    frontier_peak = 1
    completed = False
    dom_table: Dict = {}
    heuristic, successors, dominance = search.heuristic, search.successors, search.dominance
    dist_get = dist.get
    push, pop = heapq.heappush, heapq.heappop
    try:
        while heap:
            f, neg_g, _, state = pop(heap)
            g = -neg_g
            if g > dist_get(state, _INF):
                continue
            if search.is_goal(state):
                completed = True
                return g, state, parent
            dom = dominance(state)
            if dom is not None:
                key, mask = dom
                entries = dom_table.get(key)
                if entries is None:
                    dom_table[key] = [(mask, g)]
                else:
                    dominated = False
                    for mask0, g0 in entries:
                        if g0 <= g + 1e-12 and (mask | mask0) == mask0:
                            dominated = True
                            break
                    if dominated:
                        pruned += 1
                        continue
                    # the new entry may in turn dominate recorded ones; drop them
                    entries[:] = [
                        (mask0, g0)
                        for mask0, g0 in entries
                        if not ((mask0 | mask) == mask and g <= g0 + 1e-12)
                    ]
                    entries.append((mask, g))
            expanded += 1
            if expanded > max_states:
                raise SolverError(
                    f"exhaustive search exceeded the state budget of {max_states} expanded states; "
                    "the instance is too large for an exact solution"
                )
            for new_state, cost, rows in successors(state):
                ng = g + cost
                if ng < dist_get(new_state, _INF) - 1e-12:
                    dist[new_state] = ng
                    parent[new_state] = (state, rows)
                    push(heap, (ng + heuristic(new_state), -ng, -next(tie), new_state))
            if len(heap) > frontier_peak:
                frontier_peak = len(heap)
        raise SolverError("the search space was exhausted without reaching a terminal configuration")
    finally:
        recorder = current_recorder()
        if recorder is not None:
            recorder.search = SearchTelemetry(
                expanded=expanded,
                frontier_peak=frontier_peak,
                completed=completed,
                dominated_pruned=pruned,
            )


def _reconstruct(parent: Dict, goal) -> List[MoveRow]:
    """The rows of the path from the initial state to ``goal``."""
    rows: List[MoveRow] = []
    cur = goal
    while parent[cur] is not None:
        prev, macro = parent[cur]
        rows.extend(reversed(macro))
        cur = prev
    rows.reverse()
    return rows


def optimal_rbp_schedule(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> RBPSchedule:
    """Compute an optimal RBP schedule by exhaustive search (small DAGs only).

    Raises :class:`~repro.core.exceptions.SolverError` if no valid pebbling
    exists for the given ``r`` or if the state budget is exceeded.
    """
    search = _RBPSearch(dag, r, variant, max_states)
    _, goal, parent = _astar(search, max_states)
    return RBPSchedule.from_rows(
        dag, r, _reconstruct(parent, goal), variant=variant, description="exhaustive optimum"
    )


def optimal_rbp_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """``OPT_RBP(dag, r)`` computed by exhaustive search (small DAGs only)."""
    return optimal_rbp_schedule(dag, r, variant=variant, max_states=max_states).cost()


def optimal_prbp_schedule(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> PRBPSchedule:
    """Compute an optimal PRBP schedule by exhaustive search (small DAGs only).

    Only the one-shot variant is supported; see
    :mod:`repro.solvers.structured` and :mod:`repro.solvers.greedy` for
    strategies on larger instances.
    """
    search = _PRBPSearch(dag, r, variant, max_states)
    _, goal, parent = _astar(search, max_states)
    return PRBPSchedule.from_rows(
        dag, r, _reconstruct(parent, goal), variant=variant, description="exhaustive optimum"
    )


def optimal_prbp_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """``OPT_PRBP(dag, r)`` computed by exhaustive search (small DAGs only)."""
    return optimal_prbp_schedule(dag, r, variant=variant, max_states=max_states).cost()
