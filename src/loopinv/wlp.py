"""Weakest liberal preconditions and verification conditions.

``wlp`` is purely syntactic: it builds the precondition formula by
substitution and never simplifies.  Two treatments of loops are
available:

* ``loop_mode="invariant"`` — the classical annotated-loop rule: the
  loop must carry an invariant I and contributes
  ``I ∧ ((B ∧ I) ⇒ wlp(body, I)) ∧ ((¬B ∧ I) ⇒ Q)``.

* ``loop_mode="substitute"`` — an annotated loop postcondition of the
  shape ``v = rhs`` acts as an assignment summary: the loop contributes
  ``Q{v := rhs}``, provided Q mentions no body-assigned variable other
  than v and rhs mentions none at all.  When those side conditions fail
  the loop falls back to the invariant rule.

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
    conjoin,
    free_vars,
    substitute,
)


class WlpError(Exception):
    pass


class UnannotatedLoop(WlpError):
    """A loop needed an invariant (or usable summary) but carried none."""


class LocalsInPostcondition(WlpError):
    """Block locals occur free in the postcondition pushed through it."""


LOOP_MODES = ("invariant", "substitute")


def wlp(st: Stmt, q: Expr, loop_mode: str = "invariant") -> Expr:
    """Weakest liberal precondition of `st` for postcondition `q`."""
    if loop_mode not in LOOP_MODES:
        raise ValueError(f"loop_mode must be one of {LOOP_MODES}")
    match st:
        case Skip():
            return q
        case Assign(var, rhs):
            return substitute(q, {var: rhs})
        case Seq(a, b):
            return wlp(a, wlp(b, q, loop_mode), loop_mode)
        case If(cond, t, e):
            return Op(
                "∧",
                (
                    Op("⇒", (cond, wlp(t, q, loop_mode))),
                    Op("⇒", (Op("¬", (cond,)), wlp(e, q, loop_mode))),
                ),
            )
        case Block(locs, body):
            clash = set(locs) & free_vars(q)
            if clash:
                raise LocalsInPostcondition(
                    f"block locals {sorted(clash)} occur in the postcondition"
                )
            return wlp(body, q, loop_mode)
        case While(cond, body, invariant, post):
            if loop_mode == "substitute" and post is not None:
                summary = _summary_substitution(post, body, q)
                if summary is not None:
                    return substitute(q, summary)
            if invariant is None:
                raise UnannotatedLoop(
                    "loop has no invariant"
                    + (" and its postcondition is not usable as a summary" if post is not None else "")
                )
            return conjoin(
                [
                    invariant,
                    Op("⇒", (Op("∧", (cond, invariant)), wlp(body, invariant, loop_mode))),
                    Op("⇒", (Op("∧", (Op("¬", (cond,)), invariant)), q)),
                ]
            )
        case _:
            raise TypeError(f"not a Stmt: {st!r}")


def _summary_substitution(post: Expr, body: Stmt, q: Expr) -> dict[str, Expr] | None:
    """If a loop post `v = rhs` can summarise the loop for q, return the
    substitution {v: rhs}; otherwise None (caller falls back)."""
    match post:
        case Op("=", (Var(v), rhs)):
            assigned = assigned_vars(body)
            if v not in assigned:
                return None
            if free_vars(q) & assigned <= {v} and not (free_vars(rhs) & assigned):
                return {v: rhs}
    return None


def top_conjuncts(p: Expr) -> list[Expr]:
    """Flatten the top-level ∧-structure into a list.

    Implications are atomic (never split); any non-conjunction, True
    included, yields a singleton list.
    """
    match p:
        case Op("∧", (a, b)):
            return top_conjuncts(a) + top_conjuncts(b)
        case _:
            return [p]


@dataclass(frozen=True)
class VCSet:
    """The three proof obligations for one annotated loop."""

    establishment: Expr  # the precondition implies the invariant after the prefix
    preservation: Expr  # the invariant survives one body iteration
    sufficiency: Expr  # invariant plus exit condition implies the post


def vcs_for_loop(pre: Expr, prefix: Stmt, loop: While, post: Expr) -> VCSet:
    """Verification conditions for an invariant-annotated loop.

    `pre` holds before `prefix`, the statements that run up to the loop
    (``Skip()`` when there are none), so establishment is
    pre ⇒ wlp(prefix, I); `post` is what must hold after the loop exits.
    """
    if loop.invariant is None:
        raise UnannotatedLoop("cannot build VCs without an invariant")
    inv = loop.invariant
    return VCSet(
        establishment=Op("⇒", (pre, wlp(prefix, inv))),
        preservation=Op("⇒", (Op("∧", (loop.cond, inv)), wlp(loop.body, inv))),
        sufficiency=Op("⇒", (Op("∧", (Op("¬", (loop.cond,)), inv)), post)),
    )
