"""Seeded instance generation for the four workloads.

Every workload is built from ``numpy.random.default_rng(seed)`` alone, so the
same seed gives the same instances; the program under test only ever sees
the generated problems.  Solve workloads are made of *rounds*: each round
holds one instance of every stratum (a fixed DAG shape, game and capacity
offset), and only the random wiring of each DAG changes with the seed.  A
run's composition is therefore identical across seeds, which keeps the
timings comparable from one seed to the next.  The number of rounds scales
with ``--seconds`` (see ``ROUND_SECONDS``).

Capacities are always stated as an offset from the minimum feasible one:
``max in-degree + 1`` for RBP and ``2`` for PRBP.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import PebblingProblem
from repro.bounds.analytic import matvec_prbp_optimal_cost
from repro.core.dag import ComputationalDAG
from repro.dags.attention import attention_dag
from repro.dags.fft import fft_dag
from repro.dags.linalg import matmul_dag, matvec_dag
from repro.dags.random_dags import random_layered_dag
from repro.dags.trees import kary_tree_dag, optimal_prbp_tree_cost
from repro.solvers.structured import attention_min_r

#: Approximate wall seconds of one round on a 2-core x86 container at the
#: seed commit; ``rounds = round(seconds / ROUND_SECONDS)``.
ROUND_SECONDS = {"exact": 2.2, "structured": 1.25, "heuristic": 0.9}

#: State budget passed to ``solve()`` on the exact workload, so that an
#: overrun costs about a second of A* before the greedy fallback.
EXACT_BUDGET = 20_000

#: (layer sizes, edge probability, game, capacity offset, weight), sorted by
#: typical solve time (6 ms to 0.4 s).  In-degree is capped at 2; with
#: probability 1 every node takes two of the three nodes above it, so the
#: wiring is random while the state space stays about the same size.  Each
#: stratum keeps the spread of its solve times small (log-sd at most about
#: 0.25 in sizing runs, the fastest excepted).  The weights put the median
#: solve in the middle of a weight-3 stratum and p90 in the slowest one, so
#: neither percentile sits on the boundary between two strata.
EXACT_STRATA: Tuple[Tuple[Tuple[int, ...], float, str, int, int], ...] = (
    ((3, 3, 3, 1), 1.0, "rbp", 0, 1),
    ((3, 3, 3, 2, 1), 1.0, "rbp", 1, 1),
    ((3, 3, 3, 2), 1.0, "rbp", 0, 1),
    ((3, 3, 3, 2, 1), 1.0, "rbp", 0, 1),
    ((3, 2, 2), 0.6, "rbp", 0, 1),
    ((2, 3, 2, 1), 0.6, "rbp", 0, 1),
    ((2, 2, 2, 2, 1), 0.6, "rbp", 0, 3),
    ((3, 3, 2), 0.6, "rbp", 0, 1),
    ((3, 3, 2, 1), 0.6, "rbp", 0, 1),
    ((3, 3, 2, 1), 0.6, "rbp", 1, 1),
    ((3, 2, 2), 0.6, "prbp", 1, 1),
    ((3, 3, 3, 1), 1.0, "prbp", 1, 1),
    ((3, 3, 3, 2, 1), 1.0, "prbp", 1, 3),
)

#: Layer profiles of the heuristic workload (40, 48, 80 and 120 nodes).
HEURISTIC_PROFILES: Tuple[Tuple[int, ...], ...] = ((8,) * 5, (6,) * 8, (10,) * 8, (12,) * 10)
#: Capacity offsets per profile and game.
HEURISTIC_OFFSETS: Tuple[Optional[int], ...] = (0, 3)
#: Profiles that also get an ``r = n`` stratum: every value fits, so the
#: greedy schedule meets the trivial bound and is reported optimal, as at the
#: top of a user's r-sweep.
HEURISTIC_ROOMY_PROFILES = (0, 2)

#: Service pool: heuristic-type profiles (40, 48 and 60 nodes), with this
#: many distinct problems per (profile, game, capacity offset) stratum ...
SERVICE_PROFILES: Tuple[Tuple[int, ...], ...] = ((8,) * 5, (6,) * 8, (10,) * 6)
SERVICE_PER_STRATUM = 49
#: ... plus every small critical tree, in both games at r = k + 1.
SERVICE_TREES: Tuple[Tuple[int, int], ...] = ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3))


@dataclass
class Item:
    """One instance: the problem plus what the output check compares against."""

    iid: str
    problem: PebblingProblem
    group: str
    #: The paper's optimum for this instance (Prop. 4.3 / 4.5), when one applies.
    reference: Optional[int] = None
    #: True when an earlier item of the run had the same DAG content.
    repeat: bool = False


def min_r(dag: ComputationalDAG, game: str) -> int:
    return dag.max_in_degree + 1 if game == "rbp" else 2


def instance_key(problem: PebblingProblem) -> str:
    """Content digest of an instance, computed by the benchmark itself."""
    dag = problem.dag
    fam = dag.family.as_dict() if dag.family is not None else None
    doc = [dag.n, [list(e) for e in dag.edges], problem.r, problem.game, fam]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


def _dag_key(dag: ComputationalDAG) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    return dag.n, tuple(dag.edges)


#: Draws allowed per distinct DAG before a stratum counts as exhausted.
_MAX_DRAWS = 1000


def _untagged_layered(
    sizes: Sequence[int], p: float, cap: int, rng: np.random.Generator, name: str
) -> ComputationalDAG:
    dag = random_layered_dag(list(sizes), edge_probability=p, max_in_degree=cap, rng=rng)
    return ComputationalDAG(dag.n, dag.edges, name=name)


def _distinct_layered(
    sizes: Sequence[int], p: float, cap: int, rng: np.random.Generator, name: str, seen: set
) -> ComputationalDAG:
    """A layered DAG whose exact edge set has not been drawn before in this run."""
    for _ in range(_MAX_DRAWS):
        dag = _untagged_layered(sizes, p, cap, rng, name)
        if _dag_key(dag) not in seen:
            seen.add(_dag_key(dag))
            return dag
    raise RuntimeError(f"no new DAG of shape {tuple(sizes)} in {_MAX_DRAWS} draws")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def build_exact(seed: int, seconds: float) -> List[Item]:
    rng = np.random.default_rng(seed)
    seen: set = set()
    items: List[Item] = []
    for rd in range(rounds_for("exact", seconds)):
        for si, (sizes, p, game, off, weight) in enumerate(EXACT_STRATA):
            for copy in range(weight):
                iid = f"exact-{rd:03d}-{si:02d}-{copy}"
                dag = _distinct_layered(sizes, p, 2, rng, iid, seen)
                problem = PebblingProblem(dag, min_r(dag, game) + off, game)
                shape = "x".join(map(str, sizes))
                items.append(Item(iid, problem, f"{shape}-{game}-r+{off}"))
    return items


def build_heuristic(seed: int, seconds: float) -> List[Item]:
    rng = np.random.default_rng(seed)
    seen: set = set()
    items: List[Item] = []
    for rd in range(rounds_for("heuristic", seconds)):
        for pi, sizes in enumerate(HEURISTIC_PROFILES):
            for game in ("rbp", "prbp"):
                offsets = HEURISTIC_OFFSETS + ((None,) if pi in HEURISTIC_ROOMY_PROFILES else ())
                for off in offsets:
                    iid = f"heur-{rd:03d}-{pi}-{game}-{off}"
                    dag = _distinct_layered(sizes, 0.3, 3, rng, iid, seen)
                    r = dag.n if off is None else min_r(dag, game) + off
                    group = f"n{dag.n}-{game}-" + ("r=n" if off is None else f"r+{off}")
                    items.append(Item(iid, PebblingProblem(dag, r, game), group))
    return items


def _tree_item(iid: str, k: int, depth: int) -> Item:
    dag = kary_tree_dag(k, depth)
    return Item(
        iid, PebblingProblem(dag, k + 1, "prbp"), f"tree-k{k}", optimal_prbp_tree_cost(k, depth)
    )


def _matvec_item(iid: str, m: int) -> Item:
    return Item(iid, PebblingProblem(matvec_dag(m), m + 3, "prbp"), "matvec", matvec_prbp_optimal_cost(m))


#: Small critical trees solved in every round (facade overhead).  The block
#: is two thirds of a round, so the median solve always falls inside it.
_FACADE_TREES = ((2, 4),) * 12 + ((3, 3),) * 8
_MEDIUM_TREES = ((2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 3), (4, 4))
_DEEP_TREES = ((2, 8), (2, 9), (2, 10), (3, 6), (4, 5))
#: Large DAG shapes of about 2,200-2,300 nodes, so a round's cost does not
#: hinge on which shape the seed picks.
_MATMUL_DIMS = ((12, 12, 13), (12, 13, 12), (13, 12, 12), (11, 12, 14))
_ATTENTION_DIMS = ((16, 6), (14, 8), (15, 7), (12, 12))


def build_structured(seed: int, seconds: float) -> List[Item]:
    rng = np.random.default_rng(seed)
    items: List[Item] = []

    def pick(options: Sequence, count: int = 1) -> list:
        idx = rng.choice(len(options), size=count, replace=False)
        return [options[int(i)] for i in idx]

    for rd in range(rounds_for("structured", seconds)):
        tag = f"struct-{rd:03d}"
        for i, (k, depth) in enumerate(_FACADE_TREES):
            items.append(_tree_item(f"{tag}-small{i}", k, depth))
        for i, (k, depth) in enumerate(pick(_MEDIUM_TREES, 2) + pick(_DEEP_TREES)):
            items.append(_tree_item(f"{tag}-tree{i}", k, depth))
        for i, m in enumerate((int(rng.integers(4, 9)), int(rng.integers(4, 9)), int(rng.integers(12, 21)))):
            items.append(_matvec_item(f"{tag}-mv{i}", m))
        # large DAGs: built once, swept over two capacities like a user's r-sweep
        fft = fft_dag(256)
        for r in pick((4, 8, 16, 32), 2):
            items.append(Item(f"{tag}-fft-r{r}", PebblingProblem(fft, r, "prbp"), "fft"))
        mm = matmul_dag(*pick(_MATMUL_DIMS)[0])
        for r in pick((4, 9, 16, 36), 2):
            items.append(Item(f"{tag}-mm-r{r}", PebblingProblem(mm, r, "prbp"), "matmul"))
        m, d = pick(_ATTENTION_DIMS)[0]
        att = attention_dag(m, d)
        lo = attention_min_r(d)
        for r in pick((lo, lo + 4, 2 * lo), 2):
            items.append(Item(f"{tag}-att-r{r}", PebblingProblem(att, r, "prbp"), "attention"))
    _mark_repeats(items)
    return items


def build_service_pool(seed: int) -> List[Item]:
    """The distinct problems the service workload draws its requests from."""
    rng = np.random.default_rng(seed)
    seen: set = set()
    pool: List[Item] = []
    for pi, sizes in enumerate(SERVICE_PROFILES):
        for game in ("rbp", "prbp"):
            for off in HEURISTIC_OFFSETS:
                for j in range(SERVICE_PER_STRATUM):
                    iid = f"pool-{pi}-{game}-{off}-{j:02d}"
                    dag = _distinct_layered(sizes, 0.3, 3, rng, iid, seen)
                    problem = PebblingProblem(dag, min_r(dag, game) + off, game)
                    pool.append(Item(iid, problem, f"n{dag.n}-{game}-r+{off}"))
    for k, depth in SERVICE_TREES:
        tree = _tree_item(f"pool-tree-{k}-{depth}", k, depth)
        pool.append(tree)
        rbp = PebblingProblem(tree.problem.dag, k + 1, "rbp")
        pool.append(Item(f"pool-tree-{k}-{depth}-rbp", rbp, f"tree-k{k}-rbp"))
    return pool


def _mark_repeats(items: List[Item]) -> None:
    seen: set = set()
    for item in items:
        key = _dag_key(item.problem.dag)
        item.repeat = key in seen
        seen.add(key)


BUILDERS = {"exact": build_exact, "structured": build_structured, "heuristic": build_heuristic}


def describe(items: Sequence[Item]) -> Dict[str, int]:
    """Instance counts per group, for the run summary."""
    out: Dict[str, int] = {}
    for item in items:
        out[item.group] = out.get(item.group, 0) + 1
    return out
