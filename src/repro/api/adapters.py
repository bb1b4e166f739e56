"""Built-in solver registrations: thin adapters over the existing solvers.

Importing this module (done by ``repro.api.__init__``) populates the registry
with every solution method the library ships:

* ``exhaustive`` — optimal A* search, both games, ``exact`` (small DAGs);
* ``greedy`` — topological processing with Belady eviction, both games, any DAG;
* ``naive`` — spill-everything baseline, both games, any DAG;
* one structured strategy per DAG family of the paper (``figure1``,
  ``chained-gadget``, ``matvec-streaming``, ``zipper``, ``tree``,
  ``collection``, ``fanin-streaming``, ``fft-blocked``, ``matmul-tiled``,
  ``attention-flash``), each restricted to its
  :class:`~repro.core.dag.DAGFamily` tag and to the capacity regime its
  proof covers.

Family adapters get the layout object from
:func:`repro.api.bounds.authenticated_instance`, the one place a tag is
checked (:func:`repro.api.bounds.best_lower_bound` uses it too): it
generates the layout and edges through
:data:`repro.dags.FAMILY_INSTANCE_BUILDERS`, memoised per
``(family, params)``, verifies the edges are the problem's own and hands the
layout back on the problem's DAG, so a hand-built DAG that merely *claims* a
family can never be answered with a schedule for a different graph.  The
adapters return schedules unreplayed: :func:`repro.api.solve` replays each
one once and raises on an illegal one.
"""

from __future__ import annotations

from ..core.exceptions import IllegalMoveError, SolverError
from ..core.variants import ONE_SHOT
from ..solvers.anytime import refine_schedule, schedule_io_count
from ..solvers.baselines import naive_prbp_schedule, naive_rbp_schedule
from ..solvers.exhaustive import (
    DEFAULT_MAX_STATES,
    optimal_prbp_schedule,
    optimal_rbp_schedule,
)
from ..solvers.greedy import greedy_rbp_schedule, topological_prbp_schedule
from ..solvers import structured
from .bounds import authenticated_instance
from .problem import PebblingProblem
from .registry import list_solvers, register_solver
from .result import Schedule

__all__: list = []


# --------------------------------------------------------------------------- #
# generic solvers
# --------------------------------------------------------------------------- #


@register_solver(
    "exhaustive",
    games=("rbp", "prbp"),
    exact=True,
    description="optimal A* search over game configurations (small DAGs)",
)
def _exhaustive(problem: PebblingProblem, **options: object) -> Schedule:
    budget = options.get("budget")
    max_states = int(budget) if budget is not None else DEFAULT_MAX_STATES
    if problem.game == "rbp":
        return optimal_rbp_schedule(
            problem.dag, problem.r, variant=problem.variant, max_states=max_states
        )
    return optimal_prbp_schedule(
        problem.dag, problem.r, variant=problem.variant, max_states=max_states
    )


@register_solver(
    "greedy",
    games=("rbp", "prbp"),
    description="topological processing with Belady eviction (any DAG)",
)
def _greedy(problem: PebblingProblem, **options: object) -> Schedule:
    if problem.game == "rbp":
        return greedy_rbp_schedule(problem.dag, problem.r, variant=problem.variant)
    return topological_prbp_schedule(problem.dag, problem.r, variant=problem.variant)


@register_solver(
    "naive",
    games=("rbp", "prbp"),
    description="spill-everything baseline (worst reasonable upper bound)",
)
def _naive(problem: PebblingProblem, **options: object) -> Schedule:
    if problem.game == "rbp":
        return naive_rbp_schedule(problem.dag, problem.r, variant=problem.variant)
    return naive_prbp_schedule(problem.dag, problem.r, variant=problem.variant)


def _anytime_min_r(problem: PebblingProblem) -> int:
    # the greedy seeds' feasibility floors: PRBP pebbles any DAG with 2
    # pebbles, RBP needs every input of a node in fast memory at once
    if problem.game == "prbp":
        return 2 if problem.dag.m > 0 else 1
    return problem.dag.max_in_degree + 1


@register_solver(
    "anytime",
    games=("rbp", "prbp"),
    description="budgeted local-search refinement over greedy/structured seeds",
    min_r=_anytime_min_r,
)
def _anytime(problem: PebblingProblem, **options: object) -> Schedule:
    """Anytime portfolio: seed with the cheapest known schedule, then refine.

    Seeds are gathered from every family-matched structured solver plus the
    greedy baseline.  The cheapest seed is refined under the configured
    step/wall-clock budget — the returned schedule never costs more than the
    best seed.

    Options: ``refine_steps`` (or ``budget``) for the mutation-attempt
    budget, ``time_budget_s`` for a wall-clock ceiling, ``seed`` for the
    RNG.
    """
    seeds: list = []
    failures: list = []
    for info in list_solvers(game=problem.game):
        if not info.families or not info.supports(problem):
            continue
        try:
            schedule = info.fn(problem)
        except SolverError as exc:
            failures.append((info.name, str(exc)))
            continue
        seeds.append((info.name, schedule))
    try:
        if problem.game == "rbp":
            greedy = greedy_rbp_schedule(problem.dag, problem.r, variant=problem.variant)
        else:
            greedy = topological_prbp_schedule(problem.dag, problem.r, variant=problem.variant)
        seeds.append(("greedy", greedy))
    except (SolverError, IllegalMoveError) as exc:
        # IllegalMoveError: a variant (e.g. no-deletion) forbids the moves
        # the greedy builder relies on — not a seed, but not fatal either
        failures.append(("greedy", str(exc)))
    if not seeds:
        detail = "; ".join(f"{name}: {reason}" for name, reason in failures)
        raise SolverError(
            f"anytime solver found no seed schedule for {problem.describe()} — {detail}"
        )

    origin, best = min(seeds, key=lambda named: schedule_io_count(named[1]))

    steps = options.get("refine_steps", options.get("budget"))
    time_budget_s = options.get("time_budget_s")
    on_progress = options.get("on_progress")
    refined, _trajectory = refine_schedule(
        best,
        steps=None if steps is None else int(steps),
        time_budget_s=None if time_budget_s is None else float(time_budget_s),
        seed=int(options.get("seed") or 0),
        origin=origin,
        on_improve=on_progress if callable(on_progress) else None,
    )
    return refined


# --------------------------------------------------------------------------- #
# structured per-family strategies
# --------------------------------------------------------------------------- #


def _instance(problem: PebblingProblem, family: str):
    """The layout instance of the problem's ``family`` tag, checked, on its DAG.

    Refuses a problem tagged with another family (or none) or posed in a
    non-one-shot variant; :func:`authenticated_instance` then refuses a tag
    whose parameters the generator rejects or that generates a *different*
    graph than the problem's DAG, with a :class:`SolverError`.
    """
    fam = problem.family
    if fam is None or fam.name != family:
        raise SolverError(
            f"this solver targets the {family!r} family, "
            f"but the problem's DAG carries {str(fam) if fam else 'no family tag'}"
        )
    if problem.variant != ONE_SHOT:
        raise SolverError(
            "the structured strategies are stated for the one-shot variant; "
            f"got {problem.variant.describe()}"
        )
    return authenticated_instance(problem)


@register_solver(
    "figure1",
    games=("rbp", "prbp"),
    families=("figure1",),
    description="Appendix A.1 hand strategy for the Figure 1 gadget (Prop. 4.2)",
    min_r=lambda p: structured.FIGURE1_MIN_R,
)
def _figure1(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "figure1")
    if not inst.include_endpoints or inst.has_z_layer or inst.has_w0:
        raise SolverError("the A.1 strategy targets the plain Figure 1 DAG with endpoints")
    if problem.game == "rbp":
        return structured.figure1_rbp_schedule(inst, r=problem.r)
    return structured.figure1_prbp_schedule(inst, r=problem.r)


@register_solver(
    "chained-gadget",
    games=("prbp",),
    families=("chained_gadget",),
    description="Proposition 4.7 chain strategy: PRBP cost 2 at any length",
    min_r=lambda p: structured.CHAINED_GADGET_MIN_R,
)
def _chained_gadget(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "chained_gadget")
    return structured.chained_gadget_prbp_schedule(inst, r=problem.r)


@register_solver(
    "matvec-streaming",
    games=("prbp",),
    families=("matvec",),
    description="Proposition 4.3 column-streaming strategy: trivial cost m²+2m",
    min_r=lambda p: structured.matvec_min_r(p.family.param("m")),
)
def _matvec(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "matvec")
    return structured.matvec_prbp_schedule(inst, r=problem.r)


@register_solver(
    "zipper",
    games=("rbp", "prbp"),
    families=("zipper",),
    description="Proposition 4.4 zipper strategies (two-phase PRBP / alternating RBP)",
    min_r=lambda p: structured.zipper_min_r(p.family.param("d")),
)
def _zipper(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "zipper")
    if problem.game == "rbp":
        return structured.zipper_rbp_schedule(inst, r=problem.r)
    return structured.zipper_prbp_schedule(inst, r=problem.r)


@register_solver(
    "tree",
    games=("rbp", "prbp"),
    families=("kary_tree",),
    description="Appendix A.2 k-ary reduction-tree strategies (optimal at r = k + 1)",
    min_r=lambda p: structured.tree_min_r(p.family.param("k")),
)
def _tree(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "kary_tree")
    if problem.game == "rbp":
        return structured.tree_rbp_schedule(inst, r=problem.r)
    return structured.tree_prbp_schedule(inst, r=problem.r)


@register_solver(
    "collection",
    games=("rbp", "prbp"),
    families=("pebble_collection",),
    description="Proposition 4.6 full-pebble strategy for the collection gadget",
    min_r=lambda p: structured.collection_min_r(p.family.param("d")),
)
def _collection(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "pebble_collection")
    if problem.game == "rbp":
        return structured.collection_full_rbp_schedule(inst, r=problem.r)
    return structured.collection_full_prbp_schedule(inst, r=problem.r)


@register_solver(
    "fanin-streaming",
    games=("prbp",),
    families=("fanin_groups",),
    description="Lemma 5.4 group-streaming strategy: trivial cost with 3 pebbles",
    min_r=lambda p: structured.FANIN_MIN_R,
)
def _fanin(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "fanin_groups")
    return structured.fanin_groups_prbp_schedule(inst, r=problem.r)


@register_solver(
    "fft-blocked",
    games=("rbp", "prbp"),
    families=("fft",),
    description="Theorem 6.9 blocked butterfly strategy: O(m·log m / log r) I/O",
    min_r=lambda p: structured.FFT_MIN_R,
)
def _fft(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "fft")
    if problem.game == "rbp":
        return structured.fft_blocked_rbp_schedule(inst, r=problem.r)
    return structured.fft_blocked_prbp_schedule(inst, r=problem.r)


@register_solver(
    "matmul-tiled",
    games=("prbp",),
    families=("matmul",),
    description="Theorem 6.10 outer-product tiled strategy: O(m1·m2·m3/√r) I/O",
    min_r=lambda p: structured.MATMUL_MIN_R,
)
def _matmul(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "matmul")
    return structured.matmul_tiled_prbp_schedule(inst, r=problem.r)


@register_solver(
    "attention-flash",
    games=("prbp",),
    families=("attention",),
    description="Theorem 6.11 flash-style tiled strategy for Q·Kᵀ + exp",
    min_r=lambda p: structured.attention_min_r(p.family.param("d")),
)
def _attention(problem: PebblingProblem, **options: object) -> Schedule:
    inst = _instance(problem, "attention")
    if inst.include_softmax:
        raise SolverError("the flash-style strategy targets the truncated attention DAG")
    return structured.attention_flash_prbp_schedule(inst, r=problem.r)
