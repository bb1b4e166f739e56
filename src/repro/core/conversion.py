"""RBP → PRBP schedule conversion (Proposition 4.1).

Proposition 4.1 of the paper observes that any pebbling strategy in RBP can
be converted into a PRBP strategy of the same I/O cost: a compute step on a
node ``v`` is replaced by (at most) ``deg_in(v)`` consecutive partial compute
steps, one per in-edge; loads, saves and deletes translate one-to-one.  This
immediately gives ``OPT_PRBP <= OPT_RBP`` whenever ``r >= Δ_in + 1``.

The translation is purely syntactic: it maps the ``(op, node, arg)`` rows
of the RBP schedule to PRBP rows and never replays anything.  A legal RBP
schedule converts into a legal PRBP schedule; replaying the result
(``validate``, ``cost`` or ``stats``) is the check, and
:func:`repro.api.solve` does so once per solve.  Three details need care:

* In RBP, a red pebble on ``v`` means "the final value of ``v`` is in fast
  memory", and a save simply copies it to slow memory.  In PRBP, a red
  pebble that came from a load or a save is *light* red (state
  ``BLUE_LIGHT_RED``), and the PRBP save rule only applies to dark red
  pebbles.  An RBP save of such a node copies a value slow memory already
  holds — pure waste, but legal — so the converter keeps the I/O operation
  and emits an equally priced (useless but legal) ``load`` instead.  It
  tracks the nodes whose red pebble came from a load or a save; a compute
  into the node or a delete ends that.
* A PRBP delete of a dark red pebble is only legal once all of the node's
  out-edges are marked.  A valid one-shot RBP schedule deletes an unsaved
  value only after computing all its consumers (re-loading it would need a
  blue pebble), so the translated delete is legal too.
* Sliding computes (Appendix B.2) are rejected: they have no direct PRBP
  analogue (PRBP already aggregates in place).

The inverse direction does not hold in general — that is the whole point of
the paper — so no PRBP → RBP converter exists.
"""

from __future__ import annotations

from typing import List, Set

from .exceptions import IllegalMoveError
from .moves import OP_COMPUTE, OP_DELETE, OP_LOAD, OP_NAMES, OP_SAVE, MoveRow
from .strategy import PRBPSchedule, RBPSchedule
from .variants import GameVariant

__all__ = ["convert_rbp_to_prbp"]


def convert_rbp_to_prbp(schedule: RBPSchedule) -> PRBPSchedule:
    """Convert an RBP schedule into a PRBP schedule of the same I/O cost.

    Redundant saves become loads, as described in the module docstring.
    Nothing is replayed here: a legal ``schedule`` gives a legal result, and
    the result's ``validate``/``cost``/``stats`` replay it.
    """
    preds = schedule.dag.predecessors
    rows: List[MoveRow] = []
    light_red: Set[int] = set()  # nodes whose red pebble came from a load or a save
    for row in schedule.rows:
        op, v, slide = row
        if op == OP_COMPUTE:
            if slide >= 0:
                raise IllegalMoveError(
                    "cannot convert a sliding compute move to PRBP (Proposition 4.1 applies "
                    "to the standard compute rule only)"
                )
            rows.extend([(OP_COMPUTE, u, v) for u in preds(v)])
            light_red.discard(v)
        elif op == OP_SAVE:
            rows.append((OP_LOAD, v, -1) if v in light_red else row)
            light_red.add(v)
        elif op == OP_LOAD:
            rows.append(row)
            light_red.add(v)
        elif op == OP_DELETE:
            rows.append(row)
            light_red.discard(v)
        else:  # RBP has no clear rule
            raise IllegalMoveError(f"unexpected RBP move kind {OP_NAMES[op]!r}")
    return PRBPSchedule.from_rows(
        schedule.dag,
        schedule.r,
        rows,
        variant=GameVariant(
            one_shot=schedule.variant.one_shot,
            allow_delete=schedule.variant.allow_delete,
            compute_cost=0.0,
        ),
        description=f"converted from RBP ({schedule.description or 'unnamed'})",
    )
