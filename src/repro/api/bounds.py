"""Best-known lower bounds for a :class:`PebblingProblem`.

:func:`best_lower_bound` consults :mod:`repro.bounds` and returns the largest
bound whose preconditions the instance satisfies, together with a short tag
naming its source.  The trivial cost (sources + sinks) applies to every DAG
of the paper's standing assumption (no isolated nodes); the family-specific
closed forms of Sections 4 and 6 kick in when the DAG carries the matching
:class:`~repro.core.dag.DAGFamily` tag and the capacity is in the regime the
proof covers.

Every PRBP lower bound is also a valid RBP lower bound: by Proposition 4.1
any RBP schedule converts into a PRBP schedule of identical I/O cost, so
``OPT_RBP >= OPT_PRBP``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bounds.analytic import (
    attention_prbp_lower_bound,
    chained_gadget_prbp_optimal_cost,
    chained_gadget_rbp_lower_bound,
    fft_prbp_lower_bound,
    matmul_prbp_lower_bound,
    matvec_rbp_lower_bound,
)
from ..dags import FAMILY_INSTANCE_BUILDERS
from ..dags.trees import optimal_prbp_tree_cost, optimal_rbp_tree_cost
from ..core.variants import ONE_SHOT
from .problem import PebblingProblem

__all__ = ["best_lower_bound"]


def _family_bounds(problem: PebblingProblem) -> List[Tuple[int, str]]:
    """All family-specific bounds whose preconditions ``problem`` satisfies.

    A closed form is trusted only once the tag is authenticated: the tag's
    builder in :data:`repro.dags.FAMILY_INSTANCE_BUILDERS` must regenerate
    the problem's DAG.  A stale tag surviving an :meth:`induced_subgraph`,
    or one copied onto a different graph, would otherwise prove ``optimal``
    against a DAG the problem does not contain.  Only tags with an
    applicable closed form are regenerated.  A malformed tag (missing or
    nonsensical parameters on a hand-attached :class:`DAGFamily`) or one
    that fails authentication contributes no bound rather than raising; the
    trivial cost still stands.
    """
    fam = problem.family
    if fam is None:
        return []
    try:
        bounds = _closed_forms(problem, fam)
        builder = FAMILY_INSTANCE_BUILDERS.get(fam.name)
        if not bounds or builder is None or builder(**fam.as_dict()).dag != problem.dag:
            return []  # fail closed: an unauthenticated tag proves nothing
        return bounds
    except Exception:
        return []


def _closed_forms(problem: PebblingProblem, fam) -> List[Tuple[int, str]]:
    """The closed-form bounds the tag's parameters give, before authentication."""
    r, game = problem.r, problem.game
    out: List[Tuple[int, str]] = []
    if fam.name == "matvec" and game == "rbp":
        m = fam.param("m")
        if m + 3 <= r <= 2 * m:
            out.append((matvec_rbp_lower_bound(m), "prop4.3"))
    elif fam.name == "chained_gadget":
        if game == "prbp":
            out.append((chained_gadget_prbp_optimal_cost(), "prop4.7"))
        elif r == 4:
            out.append((chained_gadget_rbp_lower_bound(fam.param("copies")), "prop4.7"))
    elif fam.name == "kary_tree":
        k, depth = fam.param("k"), fam.param("depth")
        if r == k + 1:
            # the Appendix A.2 closed forms are exact optima at the critical capacity
            if game == "rbp":
                out.append((optimal_rbp_tree_cost(k, depth), "appA.2"))
            else:
                out.append((optimal_prbp_tree_cost(k, depth), "appA.2"))
    elif fam.name == "fft":
        out.append((fft_prbp_lower_bound(fam.param("m"), r), "thm6.9"))
    elif fam.name == "matmul":
        out.append(
            (matmul_prbp_lower_bound(fam.param("m1"), fam.param("m2"), fam.param("m3"), r), "thm6.10")
        )
    elif fam.name == "attention" and not fam.param("include_softmax"):
        out.append((attention_prbp_lower_bound(fam.param("m"), fam.param("d"), r), "thm6.11"))
    return out


def best_lower_bound(problem: PebblingProblem) -> Tuple[Optional[int], str]:
    """The largest applicable lower bound on ``OPT`` and a tag naming its source.

    Returns ``(None, "")`` when no bound applies (a DAG with isolated nodes,
    or a non-one-shot variant where the Section 4/6 arguments need care).
    """
    if problem.variant != ONE_SHOT:
        # The counting arguments are stated for the one-shot game; the trivial
        # cost still holds (every source load / sink save is unavoidable), but
        # only for variants that keep I/O mandatory.  Stay conservative.
        return None, ""
    dag = problem.dag
    if dag.n > 1 and any(
        not dag.predecessors(v) and not dag.successors(v) for v in dag.nodes()
    ):
        return None, ""
    candidates: List[Tuple[int, str]] = [(dag.trivial_cost(), "trivial")]
    candidates.extend(_family_bounds(problem))
    bound, source = max(candidates, key=lambda pair: pair[0])
    return bound, source
