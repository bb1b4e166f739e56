"""Golden-value regression tests: pinned optimal costs of the paper's instances.

Every value below was computed by the exhaustive solvers and cross-checked
against the paper's closed forms where one exists (Prop. 4.2 for Figure 1,
App. A.2 for the trees, Prop. 4.6/4.7 for the gadgets).  A solver refactor
that changes any of these numbers is changing *optima*, not implementation
detail — these tests make that impossible to do silently.
"""

import hashlib
import json

import pytest

from repro.api import PebblingProblem, solve
from repro.core import schedule_ir as sir
from repro.core.dag import ComputationalDAG
from repro.core.schedule_ir import (
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_SAVE,
    encode_moves,
)
from repro.core.strategy import PRBPSchedule
from repro.core.variants import NO_DELETE
from repro.dags.fft import fft_dag
from repro.dags.gadgets import (
    chained_gadget_dag,
    figure1_gadget,
    pebble_collection_instance,
    zipper_instance,
)
from repro.dags.linalg import matvec_dag
from repro.dags.random_dags import random_layered_dag
from repro.dags.trees import kary_tree_dag, optimal_prbp_tree_cost, optimal_rbp_tree_cost
from repro.solvers import structured
from repro.solvers.anytime import refine_schedule
from repro.solvers.greedy import greedy_rbp_schedule, topological_prbp_schedule

#: (label, DAG factory, r, golden OPT_RBP, golden OPT_PRBP)
GOLDEN = [
    ("figure1-r4", lambda: figure1_gadget(), 4, 3, 2),
    ("figure1-r5", lambda: figure1_gadget(), 5, 2, 2),
    ("tree-k2-d2-critical", lambda: kary_tree_dag(2, 2), 3, 7, 5),
    ("tree-k3-d2-critical", lambda: kary_tree_dag(3, 2), 4, 14, 10),
    ("zipper-d2-l2", lambda: zipper_instance(2, 2).dag, 4, 5, 5),
    ("zipper-d3-l2", lambda: zipper_instance(3, 2).dag, 5, 7, 7),
    ("collection-d2-l2", lambda: pebble_collection_instance(2, 2).dag, 4, 3, 3),
    ("collection-d2-l3", lambda: pebble_collection_instance(2, 3).dag, 4, 3, 3),
    ("chained-gadget-1", lambda: chained_gadget_dag(1), 4, 3, 2),
]


@pytest.mark.parametrize("label, factory, r, opt_rbp, opt_prbp", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_pinned_optimal_costs(label, factory, r, opt_rbp, opt_prbp):
    dag = factory()
    for game, golden in (("rbp", opt_rbp), ("prbp", opt_prbp)):
        result = solve(PebblingProblem(dag, r, game=game), solver="exhaustive")
        assert result.exact_solver
        assert result.cost == golden, (
            f"{label}: OPT_{game.upper()} changed from the pinned {golden} to {result.cost}"
        )


@pytest.mark.parametrize("label, factory, r, opt_rbp, opt_prbp", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_prbp_never_exceeds_rbp(label, factory, r, opt_rbp, opt_prbp):
    # Proposition 4.1 instantiated on the golden set — a broken pin that
    # violated it would be a transcription error, not a measurement.
    assert opt_prbp <= opt_rbp


def test_figure1_matches_proposition_42():
    # The paper's opening example: partial computations save exactly one I/O.
    dag = figure1_gadget()
    rbp = solve(PebblingProblem(dag, 4, game="rbp"), solver="exhaustive")
    prbp = solve(PebblingProblem(dag, 4, game="prbp"), solver="exhaustive")
    assert (rbp.cost, prbp.cost) == (3, 2)


@pytest.mark.parametrize("k, depth", [(2, 2), (2, 3), (3, 2)])
def test_tree_closed_forms_match_pinned_search(k, depth):
    # Appendix A.2 closed forms agree with exhaustive search at the critical
    # capacity r = k + 1 (for sizes the search can handle).
    dag = kary_tree_dag(k, depth)
    r = k + 1
    rbp = solve(PebblingProblem(dag, r, game="rbp"), solver="exhaustive")
    prbp = solve(PebblingProblem(dag, r, game="prbp"), solver="exhaustive")
    assert rbp.cost == optimal_rbp_tree_cost(k, depth)
    assert prbp.cost == optimal_prbp_tree_cost(k, depth)


# --------------------------------------------------------------------------- #
# anytime refinement: pinned refined costs + bit-identical determinism
# --------------------------------------------------------------------------- #

#: (label, problem factory, solver, solve() options, pinned initial cost,
#: pinned refined cost) — the quick-tier heuristic instances of the bench
#: registry, refined with the default auto pass (seed 0, 96 steps) or the
#: standalone anytime solver with its bench-pinned options.  The refinement
#: engine is deterministic for a fixed (seed, step-budget) pair, so these are
#: exact values, not ranges; an operator change that shifts them is changing
#: achieved costs and must re-pin deliberately.
REFINED_GOLDEN = [
    (
        "random-layered-sparse-quick",
        lambda: PebblingProblem(
            random_layered_dag((6, 8, 8, 6, 4), edge_probability=0.2, max_in_degree=4, seed=0),
            r=6,
            game="prbp",
        ),
        "auto",
        {},
        36,
        31,
    ),
    (
        "random-layered-rbp-quick",
        lambda: PebblingProblem(
            random_layered_dag((6, 8, 8, 6, 4), edge_probability=0.3, max_in_degree=4, seed=3),
            r=6,
            game="rbp",
        ),
        "auto",
        {},
        59,
        52,
    ),
    (
        "matvec-rbp-greedy-quick",
        lambda: PebblingProblem(matvec_dag(6), r=9, game="rbp"),
        "auto",
        {},
        106,
        81,
    ),
    (
        "chained-rbp-greedy-quick",
        lambda: PebblingProblem(chained_gadget_dag(16), r=4, game="rbp"),
        "auto",
        {},
        113,
        63,
    ),
    (
        "anytime-fft-quick",
        lambda: PebblingProblem(fft_dag(16), r=6, game="prbp"),
        "anytime",
        {"seed": 0, "refine_steps": 192},
        82,
        78,
    ),
    (
        "anytime-tree-offcritical-quick",
        lambda: PebblingProblem(kary_tree_dag(3, 3), r=5, game="rbp"),
        "anytime",
        {"seed": 0, "refine_steps": 192},
        43,
        38,
    ),
    # the bench registry's bumped step budget (the kernel-backed refiner
    # scores ~2x the candidates in the same wall budget, so the quick-tier
    # scenarios moved from 192 to 384 steps)
    (
        "anytime-fft-quick-384",
        lambda: PebblingProblem(fft_dag(16), r=6, game="prbp"),
        "anytime",
        {"seed": 0, "refine_steps": 384},
        82,
        77,
    ),
    (
        "anytime-random-layered-quick-384",
        lambda: PebblingProblem(
            random_layered_dag((6, 8, 8, 6, 4), edge_probability=0.3, max_in_degree=4, seed=5),
            r=6,
            game="prbp",
        ),
        "anytime",
        {"seed": 0, "refine_steps": 384},
        40,
        34,
    ),
    (
        "anytime-tree-offcritical-quick-384",
        lambda: PebblingProblem(kary_tree_dag(3, 3), r=5, game="rbp"),
        "anytime",
        {"seed": 0, "refine_steps": 384},
        43,
        38,
    ),
]


@pytest.mark.parametrize(
    "label, factory, solver, options, initial, refined",
    REFINED_GOLDEN,
    ids=[g[0] for g in REFINED_GOLDEN],
)
def test_pinned_refined_costs(label, factory, solver, options, initial, refined):
    result = solve(factory(), solver=solver, **options)
    trajectory = result.solve_stats.refinement
    assert trajectory is not None, f"{label}: no refinement trajectory was recorded"
    assert trajectory.initial_cost == initial, (
        f"{label}: the refinement seed changed from the pinned {initial} "
        f"to {trajectory.initial_cost}"
    )
    assert result.cost == trajectory.refined_cost == refined, (
        f"{label}: refined cost changed from the pinned {refined} to {result.cost}"
    )
    # cost monotonicity as recorded, and the replayed schedule agrees
    assert trajectory.refined_cost <= trajectory.initial_cost
    assert result.schedule.cost() == result.cost


@pytest.mark.parametrize(
    "solver, options",
    [("auto", {"seed": 11, "refine_steps": 64}), ("anytime", {"seed": 11, "refine_steps": 64})],
    ids=["auto", "anytime"],
)
def test_refinement_is_bit_identical_for_fixed_seed_and_steps(solver, options):
    # same problem + same seed + same step budget => the same schedule,
    # move for move — the contract the result cache and solve_many rely on
    def run():
        problem = PebblingProblem(
            random_layered_dag((6, 8, 8, 6, 4), edge_probability=0.3, max_in_degree=4, seed=3),
            r=6,
            game="rbp",
        )
        return solve(problem, solver=solver, **options)

    first, second = run(), run()
    assert first.cost == second.cost
    assert first.schedule.moves == second.schedule.moves
    t1, t2 = first.solve_stats.refinement, second.solve_stats.refinement
    assert (t1.initial_cost, t1.refined_cost, t1.steps, t1.accepted, t1.seed) == (
        t2.initial_cost,
        t2.refined_cost,
        t2.steps,
        t2.accepted,
        t2.seed,
    )


def test_different_seeds_may_differ_but_stay_monotone():
    problem = PebblingProblem(
        random_layered_dag((6, 8, 8, 6, 4), edge_probability=0.35, max_in_degree=4, seed=1),
        r=6,
        game="prbp",
    )
    greedy_cost = solve(problem, solver="greedy").cost
    costs = {solve(problem, seed=s).cost for s in range(4)}
    assert all(cost <= greedy_cost for cost in costs)


# --------------------------------------------------------------------------- #
# bit-identity: pinned digests of the refined and greedy move rows
# --------------------------------------------------------------------------- #
#
# A pinned cost alone lets a changed eviction victim or a skipped elision
# candidate slip through at equal cost; these pin the schedules themselves.


def _rows_digest(game, moves):
    """SHA-256 of a move list's ``(op, node, arg)`` rows."""
    return hashlib.sha256(repr(encode_moves(game, moves)).encode()).hexdigest()


def _layered(seed):
    return random_layered_dag((8,) * 5, 0.3, max_in_degree=3, seed=seed)


#: (DAG seed, game, r offset above the game's minimum r, pinned refined
#: rows digest, refinement steps, accepted) for default ``solve()``.
REFINED_DIGESTS = [
    (0, "rbp", 0, "40c93fe6841f9147ffa7b0599a36bdf91f76ccd24c1deaf6f9639a3f41489c59", 96, 5),
    (0, "rbp", 3, "0587b0ce333442b825fe3b27f194148bcd2dedf17f11ce18a145cbfe7345d095", 96, 8),
    (0, "prbp", 0, "a6cffefc59af4ed254d53875b615a2234274fb3ecb13acae953ded826aa0fedd", 96, 1),
    (0, "prbp", 3, "68ac3599729d748ba3ef1738842e17bdd2096fdbdebfde6cd318570d9788bdf4", 96, 1),
    (1, "rbp", 0, "6e3ad3e100f5de5a080320355d5143c7fdab1bd05944175e5d2d264b32026dcb", 96, 4),
    (1, "rbp", 3, "368b13b471da325a7ca49c005fc82be2cba6394813d97f3d790e0f544b848923", 96, 9),
    (1, "prbp", 0, "a8c5bf117ec770f06831e4f05b51ab19490d0477fa025627faad0e9cf5774a8c", 96, 1),
    (1, "prbp", 3, "ee6988da64e2decd3e172f39df7bfdea3eadc59d1658ae7a377238e86df14871", 96, 2),
    (2, "rbp", 0, "9f92662e84daef54fff1614531ac936839689a45510bd8d7378d05c45038b769", 96, 5),
    (2, "rbp", 3, "88405b50b0b35fd1d94622de5e95b4d6e5772034aa0a358f804a2a53461df487", 96, 10),
    (2, "prbp", 0, "62f8c29f6c38619d0edfe1e2add29877cd593d887a98b9c2c47492bda902b8ee", 96, 0),
    (2, "prbp", 3, "99a620cdcad72cabb825db390fdaf46270d21b6337e0f075ab36dbeaa639cbcc", 96, 0),
    (3, "rbp", 0, "90957198fa3c45379f08590b9fe54372c78bf1c5d6e945ce5955b0ac6c7be13e", 96, 2),
    (3, "rbp", 3, "1e888478fc8f30e9558c783c4576ec949c0f735e78acfd21f9a7c0d1b75bbb99", 96, 9),
    (3, "prbp", 0, "4ae6da01f0abe38af7619057def2f5246aa89641b41450034dcf4574e17a50d7", 96, 1),
    (3, "prbp", 3, "b851c3f8fba983e026d12638f0644b9d11928a2407b783ec6e61a08e3f80d41e", 96, 1),
]


@pytest.mark.parametrize(
    "seed, game, extra, digest, steps, accepted",
    REFINED_DIGESTS,
    ids=[f"s{d[0]}-{d[1]}-min+{d[2]}" for d in REFINED_DIGESTS],
)
def test_refined_schedule_rows_are_pinned(seed, game, extra, digest, steps, accepted):
    dag = _layered(seed)
    r = (dag.max_in_degree + 1 if game == "rbp" else 2) + extra
    result = solve(PebblingProblem(dag, r, game=game))
    trajectory = result.solve_stats.refinement
    assert (trajectory.steps, trajectory.accepted) == (steps, accepted)
    assert _rows_digest(game, result.schedule.moves) == digest


#: (DAG seed, r, pinned rows digest) of the greedy PRBP pebbling; at r = 2
#: and 3 most evictions choose among tied next uses.
GREEDY_DIGESTS = [
    (0, 2, "36eb836176616467de1f028bf77231cb103b0f647a4fe2e9cd717b636f876f1c"),
    (0, 3, "ac69dfe91e804d2d8c73786e4f5ff46c1acede3d18ec2402f739999b18d5ae8a"),
    (1, 2, "71c4df011d596213bcee01071b83f372259b50bb22e94f90400cc937f277efc3"),
    (1, 3, "19d4d577ef9c0f53a8ddcee09b37fa53d9f3944fd8f3554a8d61c3e3a4232cb8"),
]


@pytest.mark.parametrize(
    "seed, r, digest", GREEDY_DIGESTS, ids=[f"s{d[0]}-r{d[1]}" for d in GREEDY_DIGESTS]
)
def test_greedy_prbp_rows_are_pinned(seed, r, digest):
    schedule = topological_prbp_schedule(_layered(seed), r)
    assert _rows_digest("prbp", schedule.moves) == digest


#: (DAG seed, r, pinned rows digest) of the greedy RBP pebbling.  The DAGs
#: have max in-degree 3, so r = 4 is the minimum; at r = 4 and 6 between a
#: sixth and a third of the evictions choose among tied next uses, which the
#: red set's iteration order breaks.
GREEDY_RBP_DIGESTS = [
    (0, 4, "397f6f90fdf60b1ef5ff11794dafb026f19208a19a22f9770177d4669bee1c5b"),
    (0, 6, "285860c7323a6fa1651c1d300d8a91ba862f97c78f19e3c8e4765dfbe827801e"),
    (1, 4, "10790d7ddb860cc5912b07eb99acefd4142db563a827c1e89e20d402ae797dcc"),
    (1, 6, "0100e2a2ec8be47bc072f01034ccbca3ac3de44245b713ca0ade6957370bfda7"),
]


@pytest.mark.parametrize(
    "seed, r, digest", GREEDY_RBP_DIGESTS, ids=[f"s{d[0]}-r{d[1]}" for d in GREEDY_RBP_DIGESTS]
)
def test_greedy_rbp_rows_are_pinned(seed, r, digest):
    schedule = greedy_rbp_schedule(_layered(seed), r)
    assert _rows_digest("rbp", schedule.moves) == digest


#: (strategy in ``structured.__all__``, its instance at capacity ``r``,
#: minimum ``r``) on small instances of each family.
STRUCTURED_CASES = {
    "figure1_prbp_schedule": (lambda r: structured.figure1_prbp_schedule(r=r), structured.FIGURE1_MIN_R),
    "figure1_rbp_schedule": (lambda r: structured.figure1_rbp_schedule(r=r), structured.FIGURE1_MIN_R),
    "chained_gadget_prbp_schedule": (
        lambda r: structured.chained_gadget_prbp_schedule(copies=2, r=r),
        structured.CHAINED_GADGET_MIN_R,
    ),
    "matvec_prbp_schedule": (lambda r: structured.matvec_prbp_schedule(m=3, r=r), structured.matvec_min_r(3)),
    "zipper_prbp_schedule": (
        lambda r: structured.zipper_prbp_schedule(d=2, length=5, r=r),
        structured.zipper_min_r(2),
    ),
    "zipper_rbp_schedule": (
        lambda r: structured.zipper_rbp_schedule(d=2, length=5, r=r),
        structured.zipper_min_r(2),
    ),
    "tree_rbp_schedule": (lambda r: structured.tree_rbp_schedule(k=2, depth=3, r=r), structured.tree_min_r(2)),
    "tree_prbp_schedule": (lambda r: structured.tree_prbp_schedule(k=2, depth=4, r=r), structured.tree_min_r(2)),
    "collection_full_rbp_schedule": (
        lambda r: structured.collection_full_rbp_schedule(d=2, length=4, r=r),
        structured.collection_min_r(2),
    ),
    "collection_full_prbp_schedule": (
        lambda r: structured.collection_full_prbp_schedule(d=2, length=4, r=r),
        structured.collection_min_r(2),
    ),
    "fanin_groups_prbp_schedule": (
        lambda r: structured.fanin_groups_prbp_schedule(num_groups=3, group_size=3, r=r),
        structured.FANIN_MIN_R,
    ),
    "fft_blocked_rbp_schedule": (lambda r: structured.fft_blocked_rbp_schedule(m=8, r=r), structured.FFT_MIN_R),
    "fft_blocked_prbp_schedule": (lambda r: structured.fft_blocked_prbp_schedule(m=8, r=r), structured.FFT_MIN_R),
    "matmul_tiled_prbp_schedule": (
        lambda r: structured.matmul_tiled_prbp_schedule(m1=3, m2=3, m3=3, r=r),
        structured.MATMUL_MIN_R,
    ),
    "attention_flash_prbp_schedule": (
        lambda r: structured.attention_flash_prbp_schedule(m=4, d=2, r=r),
        structured.attention_min_r(2),
    ),
}

#: (strategy, r offset above its minimum, pinned rows digest).
STRUCTURED_DIGESTS = [
    ("figure1_prbp_schedule", 0, "b6b228dde6c0b9fea1278c2ec7b36b85a10973dfac2fa8c149b48bccb4fd7164"),
    ("figure1_prbp_schedule", 1, "b6b228dde6c0b9fea1278c2ec7b36b85a10973dfac2fa8c149b48bccb4fd7164"),
    ("figure1_rbp_schedule", 0, "c07f90172ad00169c63a71877d087bf5094adeb2b65a5cf7d4fbedae899c4139"),
    ("figure1_rbp_schedule", 1, "c07f90172ad00169c63a71877d087bf5094adeb2b65a5cf7d4fbedae899c4139"),
    ("chained_gadget_prbp_schedule", 0, "b73bc272079abda290e70fffed946818a2a71269c57a60a880e816d32135ebe4"),
    ("chained_gadget_prbp_schedule", 1, "b73bc272079abda290e70fffed946818a2a71269c57a60a880e816d32135ebe4"),
    ("matvec_prbp_schedule", 0, "4e7431d9b4bd51ec7c5e37288b32f89c998cf5cf3868a3aa35f2a37f280321ac"),
    ("matvec_prbp_schedule", 1, "4e7431d9b4bd51ec7c5e37288b32f89c998cf5cf3868a3aa35f2a37f280321ac"),
    ("zipper_prbp_schedule", 0, "b51e0da50f37596d2ddba4d31bb1258c734a0b312be51b66a8a3ccd617a30ba3"),
    ("zipper_prbp_schedule", 1, "b51e0da50f37596d2ddba4d31bb1258c734a0b312be51b66a8a3ccd617a30ba3"),
    ("zipper_rbp_schedule", 0, "0e3fc7f4575e60573e2f16ac3c1256ee662fdd622e906b5289b968b10083a665"),
    ("zipper_rbp_schedule", 1, "0e3fc7f4575e60573e2f16ac3c1256ee662fdd622e906b5289b968b10083a665"),
    ("tree_rbp_schedule", 0, "8cd669cef4a80bdfaed0e5dc14ebcb588eaed82bf4ab16fe087f3b49e62e8ecb"),
    ("tree_rbp_schedule", 1, "8cd669cef4a80bdfaed0e5dc14ebcb588eaed82bf4ab16fe087f3b49e62e8ecb"),
    ("tree_prbp_schedule", 0, "a47b99af19d0c7a392f623b1e21e3f441dbf7e689fe8354f0a5a9fc008000df6"),
    ("tree_prbp_schedule", 1, "a47b99af19d0c7a392f623b1e21e3f441dbf7e689fe8354f0a5a9fc008000df6"),
    ("collection_full_rbp_schedule", 0, "4b82271bee718b2b71ffd24a615d4b6b6d335b30d018dd6dea854e247081eccb"),
    ("collection_full_rbp_schedule", 1, "4b82271bee718b2b71ffd24a615d4b6b6d335b30d018dd6dea854e247081eccb"),
    ("collection_full_prbp_schedule", 0, "d3b60573bb7d2170a25c11f97442fa2ed8c57fe40c856a9b6b3c1a14e26935ac"),
    ("collection_full_prbp_schedule", 1, "d3b60573bb7d2170a25c11f97442fa2ed8c57fe40c856a9b6b3c1a14e26935ac"),
    ("fanin_groups_prbp_schedule", 0, "ce4d99da1af78a5c1f6203d5ccc3ec3483544f4905a63ddb1e6ced96be93d3b2"),
    ("fanin_groups_prbp_schedule", 1, "ce4d99da1af78a5c1f6203d5ccc3ec3483544f4905a63ddb1e6ced96be93d3b2"),
    ("fft_blocked_rbp_schedule", 0, "87eeabe36430423537e8f9c159b6408a297ad625b9a1daf659ff8c424fa1bbc5"),
    ("fft_blocked_rbp_schedule", 1, "87eeabe36430423537e8f9c159b6408a297ad625b9a1daf659ff8c424fa1bbc5"),
    ("fft_blocked_prbp_schedule", 0, "fed7a9365cf89c994898f9362ac7ace09e3e6c023598b751eef24ad0aa0cc0ed"),
    ("fft_blocked_prbp_schedule", 1, "fed7a9365cf89c994898f9362ac7ace09e3e6c023598b751eef24ad0aa0cc0ed"),
    ("matmul_tiled_prbp_schedule", 0, "8720084862abb7cf75a57bfe5a474bbfc6be082a558f581da8a7a2e3fb1bb00d"),
    ("matmul_tiled_prbp_schedule", 1, "8720084862abb7cf75a57bfe5a474bbfc6be082a558f581da8a7a2e3fb1bb00d"),
    ("attention_flash_prbp_schedule", 0, "6bedebb8414e2f9055ec9dc6511378fea92630452560f2c3e8859f99aa7d86df"),
    ("attention_flash_prbp_schedule", 1, "6bedebb8414e2f9055ec9dc6511378fea92630452560f2c3e8859f99aa7d86df"),
]


def test_every_structured_strategy_is_pinned():
    strategies = {name for name in structured.__all__ if name.endswith("_schedule")}
    assert strategies == set(STRUCTURED_CASES) == {d[0] for d in STRUCTURED_DIGESTS}


@pytest.mark.parametrize(
    "name, extra, digest", STRUCTURED_DIGESTS, ids=[f"{d[0]}-min+{d[1]}" for d in STRUCTURED_DIGESTS]
)
def test_structured_rows_are_pinned(name, extra, digest):
    build, min_r = STRUCTURED_CASES[name]
    schedule = build(min_r + extra)
    game = "rbp" if "_rbp_" in name else "prbp"
    assert _rows_digest(game, schedule.moves) == digest


#: (game, pinned ``ir_digest``, row count, SHA-256 of the canonical JSON of
#: the ``pack_arrays`` payload) of the greedy pebbling of ``_layered(0)``:
#: the bytes the result cache and the wire protocol store and send.
IR_PINS = [
    (
        "rbp",
        "8c1bda9d0eede802207fe9a0a2b02e0874d9f5f86aaadd2315e9447410f44306",
        183,
        "53a4b1db268b11a9ccb3cf9d00666c5b19c901f0352ce703e67df410a10f8d6e",
    ),
    (
        "prbp",
        "03877a252ec85d86a0b36b3c948b0dbf9e84364c6b90035e7825617a020e0365",
        241,
        "93b4075a227a204787392aa5309a4327315fc5625e20fe4a88fbed3de1a67666",
    ),
]


@pytest.mark.parametrize("game, digest, count, payload", IR_PINS, ids=[p[0] for p in IR_PINS])
def test_ir_digest_and_packed_payload_are_pinned(game, digest, count, payload):
    dag = _layered(0)
    if game == "rbp":
        schedule = greedy_rbp_schedule(dag, 4)
    else:
        schedule = topological_prbp_schedule(dag, 3)
    assert sir.ir_digest(schedule) == digest
    doc = sir.pack_arrays(schedule)
    assert doc["count"] == count
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == payload


def test_round_trip_behind_an_earlier_candidate_is_elided():
    # Sources 0, 1; 0 -> 2 -> 3 <- 1; sink 3.  Under no-deletion the save of
    # 2 (index 4) cannot be elided: the light-red delete after it would become
    # an illegal dark-red delete.  The elision candidates come in the order
    # (4,), then the round trip (2, 8) on node 0, whose first index lies
    # before the one scored just before it; removing it is legal and saves
    # two I/Os.  Two steps score exactly those two candidates.
    dag = ComputationalDAG(4, [(0, 2), (2, 3), (1, 3)])
    rows = [
        (OP_LOAD, 0, -1),
        (OP_COMPUTE, 0, 2),
        (OP_DELETE, 0, -1),
        (OP_COMPUTE, 2, 3),
        (OP_SAVE, 2, -1),
        (OP_DELETE, 2, -1),
        (OP_LOAD, 1, -1),
        (OP_COMPUTE, 1, 3),
        (OP_LOAD, 0, -1),
        (OP_SAVE, 3, -1),
    ]
    schedule = PRBPSchedule.from_rows(dag, 3, rows, variant=NO_DELETE)
    refined, trajectory = refine_schedule(schedule, steps=2, seed=0)
    assert (trajectory.initial_cost, trajectory.refined_cost) == (5, 4)
    assert (trajectory.steps, trajectory.accepted) == (2, 1)
    assert (
        _rows_digest("prbp", refined.moves)
        == "afa5c2d29e03aa3a86f7dda2ed0f47702fd4b387138bc538dd9e88896acc455a"
    )
