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

A family tag is trusted only once :func:`authenticated_instance` has
regenerated the problem's DAG from it.  That helper is the one place a tag
is checked: the closed forms here and the structured adapters
(:mod:`repro.api.adapters`) both call it.  It memoises each builder's output
per ``(family, params)`` in a small LRU bounded by total cached nodes, so an
r-sweep over one large tagged DAG regenerates it once, not twice per solve;
every call still compares the instance's DAG with the problem's.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, List, Optional, Tuple

from ..bounds.analytic import (
    attention_prbp_lower_bound,
    chained_gadget_prbp_optimal_cost,
    chained_gadget_rbp_lower_bound,
    fft_prbp_lower_bound,
    matmul_prbp_lower_bound,
    matvec_rbp_lower_bound,
)
from ..core.exceptions import SolverError
from ..dags import FAMILY_INSTANCE_BUILDERS
from ..dags.trees import optimal_prbp_tree_cost, optimal_rbp_tree_cost
from ..core.variants import ONE_SHOT
from .problem import PebblingProblem

__all__ = ["authenticated_instance", "authenticated_instance_cache_clear", "best_lower_bound"]


#: Total DAG nodes the tag memo may hold (a cached node costs about 0.6 kB).
#: One round of a mixed structured r-sweep (small and deep trees, three
#: matvecs, one ~2,300-node fft, matmul and attention) touches about 9.5k.
TAG_MEMO_MAX_NODES = 12_000

_TAG_MEMO: "OrderedDict[Hashable, Any]" = OrderedDict()
_tag_memo_nodes = 0
# Guards the LRU: thread-mode service solves share it.  Builds run outside it.
_TAG_MEMO_LOCK = threading.Lock()


def _tag_memo_key(fam) -> Optional[Hashable]:
    """The memo key of a tag, or ``None`` when its params cannot be hashed.

    The key carries each value's type, so ``m=16`` and ``m=16.0`` (equal and
    equally hashed) never share an entry and get the builder's own verdict.
    """
    try:
        key = (fam.name, tuple((k, type(v), v) for k, v in fam.params))
        hash(key)
    except Exception:
        return None
    return key


def _remember(key: Hashable, inst: Any) -> None:
    global _tag_memo_nodes
    size = inst.dag.n
    if size > TAG_MEMO_MAX_NODES:
        return
    with _TAG_MEMO_LOCK:
        if key in _TAG_MEMO:  # another thread built the same tag meanwhile
            return
        _TAG_MEMO[key] = inst
        _tag_memo_nodes += size
        while _tag_memo_nodes > TAG_MEMO_MAX_NODES:
            _, old = _TAG_MEMO.popitem(last=False)
            _tag_memo_nodes -= old.dag.n


def authenticated_instance_cache_clear() -> None:
    """Empty the tag memo (tests; embedders that want its memory back)."""
    global _tag_memo_nodes
    with _TAG_MEMO_LOCK:
        _TAG_MEMO.clear()
        _tag_memo_nodes = 0


def authenticated_instance(problem: PebblingProblem) -> Any:
    """The layout instance the problem's family tag regenerates, checked.

    The tag's builder in :data:`repro.dags.FAMILY_INSTANCE_BUILDERS` must
    rebuild exactly the problem's DAG.  A stale tag surviving an
    :meth:`induced_subgraph`, or one copied onto a different graph, would
    otherwise let a closed form prove ``optimal`` or a strategy pebble a DAG
    the problem does not contain.  Successful builds are memoised per
    ``(family, params)``; the DAG comparison runs on every call, so a warm
    memo vouches for no tag that a cold one would refuse.

    Raises :class:`SolverError` when the problem has no tag, its family has
    no builder, the builder rejects the parameters, or the rebuilt DAG
    differs from the problem's.
    """
    fam = problem.family
    if fam is None:
        raise SolverError("the problem's DAG carries no family tag")
    builder = FAMILY_INSTANCE_BUILDERS.get(fam.name)
    if builder is None:
        raise SolverError(f"the family tag {fam} names no instance builder")
    key = _tag_memo_key(fam)
    inst = None
    if key is not None:
        with _TAG_MEMO_LOCK:
            inst = _TAG_MEMO.get(key)
            if inst is not None:
                _TAG_MEMO.move_to_end(key)
    if inst is None:
        try:
            inst = builder(**fam.as_dict())
        except Exception as exc:
            raise SolverError(
                f"the family tag {fam} is malformed — "
                f"{builder.__name__} rejected its parameters: {exc}"
            ) from exc
        if key is not None:
            _remember(key, inst)
    if inst.dag is not problem.dag and inst.dag != problem.dag:
        raise SolverError(
            f"the family tag {fam} does not reproduce the problem's DAG "
            f"(n={problem.dag.n}, m={problem.dag.m}); was the tag copied onto a different graph?"
        )
    return inst


def _family_bounds(problem: PebblingProblem) -> List[Tuple[int, str]]:
    """All family-specific bounds whose preconditions ``problem`` satisfies.

    Only tags with an applicable closed form are authenticated
    (:func:`authenticated_instance`).  A malformed tag (missing or
    nonsensical parameters on a hand-attached :class:`DAGFamily`) or one
    that fails authentication contributes no bound rather than raising; the
    trivial cost still stands.
    """
    fam = problem.family
    if fam is None:
        return []
    try:
        bounds = _closed_forms(problem, fam)
    except Exception:
        return []
    if not bounds:
        return []
    try:
        authenticated_instance(problem)
    except SolverError:
        return []  # fail closed: an unauthenticated tag proves nothing
    return bounds


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
