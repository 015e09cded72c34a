"""Weakest liberal preconditions and verification conditions.

``wlp`` is purely syntactic: it builds the precondition formula by
substitution and never simplifies.  Two treatments of loops are
available:

* with a ``side`` list, the classical annotated-loop rule: the loop
  must carry an invariant I and contributes just I.  Its two
  obligations must hold on every store, not only where the loop
  starts, so they go to ``side`` instead of into the formula:
  preservation ``(B ∧ I) ⇒ wlp(body, I)`` and exit ``(¬B ∧ I) ⇒ Q``,
  for every loop at any depth.  ``pre ⇒ wlp(program, post, side)``
  together with every obligation in ``side`` is the verification
  condition of the triple.

* without one, discovery's approximation: an annotated loop
  postcondition of the shape ``v = rhs`` acts as an assignment summary,
  so the loop contributes ``Q{v := rhs}``, provided Q mentions no
  body-assigned variable other than v and rhs mentions none at all.
  A loop with no such summary is an ``UnannotatedLoop`` error: its
  invariant, if it has one, is a putative formula over generalisation
  variables, and standing for the loop it would drop Q.

Block-scoped locals must not occur in the postcondition being pushed
through the block; that is a hard error rather than a silent capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Assign,
    Block,
    Expr,
    If,
    Op,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
    assigned_vars,
    free_vars,
    substitute,
)


class WlpError(Exception):
    pass


class UnannotatedLoop(WlpError):
    """A loop needed an invariant (or usable summary) but carried none."""


class LocalsInPostcondition(WlpError):
    """Block locals occur free in the postcondition pushed through it."""


@dataclass(frozen=True)
class Obligation:
    """One loop's preservation or exit condition, with the loops whose
    invariant its consequent carries: for preservation the loops first
    reached in the body (the loop itself where the body can finish
    without one), for exit the loops first reached after the loop."""

    loop: While
    kind: str  # "preservation" or "exit"
    formula: Expr
    establishes: tuple[While, ...]


def wlp(st: Stmt, q: Expr, side: list[Obligation] | None = None) -> Expr:
    """Weakest liberal precondition of `st` for postcondition `q`.

    With a `side` list, every loop contributes its invariant and appends
    its preservation and exit obligations to `side`.  Without one, a
    loop must be summarised by its post and contributes that summary:
    an approximation for discovery, which checks no loop.
    """
    return _wlp(st, q, (), side)


def first_loops(st: Stmt, after: tuple[While, ...] = ()) -> tuple[While, ...]:
    """The loops a run of `st` reaches first, plus `after` if some path
    through `st` meets no loop; each loop node once."""
    match st:
        case While():
            return (st,)
        case Seq(a, b):
            return first_loops(a, first_loops(b, after))
        case If(_, t, e):
            ft = first_loops(t, after)
            return ft + tuple(c for c in first_loops(e, after) if not any(c is d for d in ft))
        case Block(_, body):
            return first_loops(body, after)
        case _:
            return after


def _wlp(st: Stmt, q: Expr, after: tuple[While, ...], side: list[Obligation] | None) -> Expr:
    """wlp, given the loops first reached after `st` (read only to
    attribute the obligations appended to `side`)."""
    match st:
        case Skip():
            return q
        case Assign(var, rhs):
            return substitute(q, {var: rhs})
        case Seq(a, b):
            pulled = _wlp(b, q, after, side)
            if side is not None and not isinstance(a, (Skip, Assign)):  # loops in `a` read it
                after = first_loops(b, after)
            return _wlp(a, pulled, after, side)
        case If(cond, t, e):
            pt = _wlp(t, q, after, side)
            pe = _wlp(e, q, after, side)
            return Op("∧", (Op("⇒", (cond, pt)), Op("⇒", (Op("¬", (cond,)), pe))))
        case Block(locs, body):
            clash = set(locs) & free_vars(q)
            if clash:
                raise LocalsInPostcondition(
                    f"block locals {sorted(clash)} occur in the postcondition"
                )
            return _wlp(body, q, after, side)
        case While(cond, body, invariant, post):
            if side is None:
                summary = _summary_substitution(post, body, q)
                if summary is None:
                    where = "" if st.line is None else f" at line {st.line}"
                    raise UnannotatedLoop(f"the loop{where} has no postcondition usable as a summary")
                return substitute(q, summary)
            if invariant is None:
                raise UnannotatedLoop("loop has no invariant")
            kept = _wlp(body, invariant, (st,), side)
            preservation = Op("⇒", (Op("∧", (cond, invariant)), kept))
            side.append(Obligation(st, "preservation", preservation, first_loops(body, (st,))))
            exit_ = Op("⇒", (Op("∧", (Op("¬", (cond,)), invariant)), q))
            side.append(Obligation(st, "exit", exit_, after))
            return invariant
        case _:
            raise TypeError(f"not a Stmt: {st!r}")


def _summary_substitution(post: Expr | None, body: Stmt, q: Expr) -> dict[str, Expr] | None:
    """If a loop post `v = rhs` can summarise the loop for q, return the
    substitution {v: rhs}; otherwise None."""
    match post:
        case Op("=", (Var(v), rhs)):
            assigned = assigned_vars(body)
            if v not in assigned:
                return None
            if free_vars(q) & assigned <= {v} and not (free_vars(rhs) & assigned):
                return {v: rhs}
    return None
