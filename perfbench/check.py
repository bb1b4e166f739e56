"""Independent output check, run after the timed region.

Each returned schedule is replayed through the reference engine of its game
(``repro.core.rbp.run_rbp_schedule`` / ``repro.core.prbp.run_prbp_schedule``)
on the benchmark's own copy of the problem.  The recomputed I/O cost must
equal the reported cost and be at least the reported lower bound.  Where the
paper gives the optimum in closed form (Prop. 4.5 trees, Prop. 4.3 matvec),
the cost must equal it.  No reference is a number recorded from a run of the
program.
"""

from __future__ import annotations

from typing import Optional

from repro.core.exceptions import PebblingError
from repro.core.prbp import run_prbp_schedule
from repro.core.rbp import run_rbp_schedule

from workloads import Item


def check(item: Item, result) -> Optional[str]:
    """``None`` when ``result`` is a correct answer to ``item``, else the reason."""
    problem = item.problem
    schedule = result.schedule
    if schedule.r != problem.r or schedule.dag.n != problem.dag.n or tuple(
        schedule.dag.edges
    ) != tuple(problem.dag.edges):
        return f"{item.iid}: schedule is for another instance"
    engine = run_rbp_schedule if problem.game == "rbp" else run_prbp_schedule
    try:
        game = engine(problem.dag, problem.r, schedule.moves, variant=problem.variant)
    except PebblingError as exc:
        return f"{item.iid}: schedule does not replay: {exc}"
    if game.io_cost != result.cost:
        return f"{item.iid}: reported cost {result.cost}, replayed cost {game.io_cost}"
    if result.lower_bound is not None and result.cost < result.lower_bound:
        return f"{item.iid}: cost {result.cost} below reported lower bound {result.lower_bound}"
    if item.reference is not None and result.cost != item.reference:
        return f"{item.iid}: cost {result.cost}, paper optimum {item.reference}"
    return None
