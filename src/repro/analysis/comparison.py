"""RBP-vs-PRBP comparison harness, built on the :mod:`repro.api` facade.

:func:`compare_models` poses the same DAG/capacity as two
:class:`~repro.api.PebblingProblem` instances (one per game), hands both to
:func:`repro.api.solve` with the auto-dispatch portfolio, and returns a
:class:`ModelComparison` — a thin view over the two
:class:`~repro.api.SolveResult` objects that keeps the record-style fields
the examples and benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..api.batch import solve_many
from ..api.cache import ResultCache
from ..api.dispatch import AUTO_EXACT_NODE_LIMIT
from ..api.problem import PebblingProblem
from ..api.result import SolveResult
from ..core.dag import ComputationalDAG
from ..core.variants import ONE_SHOT, GameVariant

__all__ = ["ModelComparison", "compare_models"]


@dataclass(frozen=True)
class ModelComparison:
    """Costs of one DAG under both games.

    ``rbp_exact`` / ``prbp_exact`` record whether the corresponding cost came
    from an exact solver (exhaustive search) or is only an achievable upper
    bound (greedy / structured strategy).  The full :class:`SolveResult` of
    each side — schedule, stats, lower bound, winning solver — is available
    as ``rbp_result`` / ``prbp_result`` when the side was solvable.
    """

    dag_name: str
    n: int
    r: int
    trivial_cost: int
    rbp_cost: Optional[int]
    rbp_exact: bool
    prbp_cost: Optional[int]
    prbp_exact: bool
    rbp_result: Optional[SolveResult] = field(default=None, compare=False)
    prbp_result: Optional[SolveResult] = field(default=None, compare=False)

    @classmethod
    def from_results(
        cls,
        dag: ComputationalDAG,
        r: int,
        rbp_result: Optional[SolveResult],
        prbp_result: Optional[SolveResult],
    ) -> "ModelComparison":
        """Build the comparison view over two (possibly missing) solve results."""
        return cls(
            dag_name=dag.name,
            n=dag.n,
            r=r,
            trivial_cost=dag.trivial_cost(),
            rbp_cost=None if rbp_result is None else rbp_result.cost,
            rbp_exact=rbp_result is not None and rbp_result.exact_solver,
            prbp_cost=None if prbp_result is None else prbp_result.cost,
            prbp_exact=prbp_result is not None and prbp_result.exact_solver,
            rbp_result=rbp_result,
            prbp_result=prbp_result,
        )

    @property
    def gap(self) -> Optional[int]:
        """``RBP - PRBP`` cost difference (None if either side is unavailable)."""
        if self.rbp_cost is None or self.prbp_cost is None:
            return None
        return self.rbp_cost - self.prbp_cost

    @property
    def prbp_strictly_better(self) -> Optional[bool]:
        """True iff partial computations strictly reduce the (measured) cost."""
        gap = self.gap
        return None if gap is None else gap > 0


def compare_models(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    exact_node_limit: int = AUTO_EXACT_NODE_LIMIT,
    max_states: int = 500_000,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    seed: Optional[int] = None,
    **solve_options: object,
) -> ModelComparison:
    """Compare RBP and PRBP costs on ``dag`` with capacity ``r``.

    Both games are posed as one batch through :func:`repro.api.solve_many`
    with the ``"auto"`` portfolio: exhaustive optima below
    ``exact_node_limit`` nodes (within the ``max_states`` search budget), the
    family-matched structured strategy when the DAG carries a family tag, and
    the greedy upper-bound fallback otherwise, each followed by the anytime
    refinement pass (``seed`` pins its RNG; the pass auto-skips provably
    optimal results and DAGs above
    :data:`~repro.api.dispatch.GREEDY_COMPARISON_NODE_LIMIT` nodes — on
    those, pass ``refine_steps=`` explicitly).  ``jobs=2`` solves the two
    games in parallel worker processes and ``cache`` reuses previously solved
    sides; either way the costs are identical to the serial defaults.  A game
    with no valid pebbling at all (e.g. RBP with ``r < Δ_in + 1``) is
    reported as ``None``.
    """
    problems = [PebblingProblem(dag, r, game=game, variant=variant) for game in ("rbp", "prbp")]
    outcomes = solve_many(
        problems,
        solver="auto",
        budget=max_states,
        seed=seed,
        exact_node_limit=exact_node_limit,
        jobs=jobs,
        cache=cache,
        return_exceptions=True,
        **solve_options,
    )
    rbp_result, prbp_result = (
        outcome if isinstance(outcome, SolveResult) else None for outcome in outcomes
    )
    return ModelComparison.from_results(dag, r, rbp_result, prbp_result)
