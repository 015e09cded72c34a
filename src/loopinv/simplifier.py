"""Rule-based predicate simplification under a context assumption.

``simplify(context, p)`` normalises the conjuncts of ``p`` while assuming
``context`` holds.  Context conjuncts act as *facts*: they license
rewrites but are never emitted, so the output speaks only about ``p``.

The rule library:

* R1  negation pushing over relations: ¬(a<b)→a≥b, ¬(a>b)→a≤b,
      ¬(a≤b)→a>b, ¬(a≥b)→a<b, ¬(a=b)→a≠b, ¬¬A→A.
* R2  re-association of +, *, ∧, ∨ to the right: (x+y)+z → x+(y+z).
      Literals are never folded (1+1 stays 1+1), keeping derivations
      syntactically traceable.
* R3  bound tightening: under fact a<b, a+1 ≥ b becomes a+1 = b.
* R4  parity/division: under fact x%2=1, x/2=e becomes x=(2*e)+1, and
      x/2≤0 becomes x=1 when x>0 is also known; under fact x%2=0,
      x/2=e becomes x=2*e.
* R5  implication handling: a top-level conjunct A ⇒ C either collapses
      to True — when facts ∧ A ∧ C has no satisfying store with all
      variables ≤ refutation_bound, i.e. the guarded path is infeasible
      within the tested box — or has A absorbed into the facts while C's
      conjuncts are simplified.  The collapse is a *bounded heuristic*:
      dropping an implication whose antecedent is satisfiable weakens
      the formula, which is acceptable here because every discovered
      invariant is re-checked downstream; such events are logged with
      heuristic=True and excluded from equivalence checking.  Absorption
      itself is bookkeeping, not a rewrite, and is not logged.
* R6  unit laws: A∧True→A, True∧A→A, A∧A→A; relations on numeric
      literals are evaluated (3≥0 → True).

Application order is deterministic: per conjunct, R5 first (top level
only), then bottom-up passes of R1, R2, then the conjunct-level R3/R4,
then R6, repeated to a fixed point or until max_rewrite_steps fires have
been spent (a "budget" event is logged and the current form returned).
Facts derived from negated antecedents are normalised with R1 plus the
parity flips x%2≠1 → x%2=0 and x%2≠0 → x%2=1 so R4 can see them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluator import eval_expr, first_store
from .terms import Ctor, Expr, Num, Op, REL_OPS, TRUE, conjoin, free_vars
from .wlp import top_conjuncts

RULE_NAMES = ("R1", "R2", "R3", "R4", "R5", "R6")


@dataclass(frozen=True)
class SimpConfig:
    refutation_bound: int = 8
    max_rewrite_steps: int = 10_000
    disabled_rules: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.refutation_bound < 1 or self.max_rewrite_steps < 1:
            raise ValueError("bounds must be positive")
        unknown = self.disabled_rules - set(RULE_NAMES)
        if unknown:
            raise ValueError(f"unknown rules {sorted(unknown)}")


@dataclass(frozen=True)
class RewriteEvent:
    """One fired rewrite: `before` became `after` given `facts`.

    Events with heuristic=True (R5 path collapses, budget exhaustion)
    are not equivalence-preserving rewrites and are excluded from the
    semantic-preservation property.
    """

    rule: str
    facts: tuple[Expr, ...]
    before: Expr
    after: Expr
    heuristic: bool = False


_NEG_FLIP = {"<": "≥", ">": "≤", "≤": ">", "≥": "<", "=": "≠"}
_RIGHT_ASSOC = ("+", "*", "∧", "∨")


def refuted(conjuncts: list[Expr], bound: int) -> bool:
    """Whether no store with all variables ≤ bound satisfies every
    conjunct; a store where evaluation fails is no witness."""
    names = sorted(set().union(*(free_vars(c) for c in conjuncts)) if conjuncts else set())
    return first_store(names, conjuncts, [], bound)[0] is None


def _normalize_fact(e: Expr) -> Expr:
    """Push negations (R1 closure) and flip %2-disequalities so fact
    matching in R3/R4 is purely structural.  Facts are never output, so
    this is silent."""
    match e:
        case Op("¬", (Op(rel, (a, b)),)) if rel in _NEG_FLIP:
            return _normalize_fact(Op(_NEG_FLIP[rel], (a, b)))
        case Op("¬", (Op("¬", (a,)),)):
            return _normalize_fact(a)
        case Op("≠", (Op("%", (x, Num(2))) as lhs, Num(1))):
            return Op("=", (lhs, Num(0)))
        case Op("≠", (Op("%", (x, Num(2))) as lhs, Num(0))):
            return Op("=", (lhs, Num(1)))
    return e


class _Simplifier:
    def __init__(self, cfg: SimpConfig, log: list[RewriteEvent] | None):
        self.cfg = cfg
        self.log = log
        self.steps = 0
        self.exhausted = False
        self._refute_cache: dict[tuple[Expr, ...], bool] = {}

    def enabled(self, rule: str) -> bool:
        return rule not in self.cfg.disabled_rules

    def _spend(self) -> bool:
        if self.steps >= self.cfg.max_rewrite_steps:
            self.exhausted = True
            return False
        self.steps += 1
        return True

    def _fire(self, rule: str, facts: list[Expr], before: Expr, after: Expr, heuristic: bool = False) -> None:
        if self.log is not None:
            self.log.append(RewriteEvent(rule, tuple(facts), before, after, heuristic))

    # -- per-conjunct pipeline ---------------------------------------------

    def conjunct(self, c: Expr, facts: list[Expr]) -> list[Expr]:
        while not self.exhausted:
            if isinstance(c, Op) and c.op == "⇒" and self.enabled("R5"):
                return self._implication(c, facts)
            c2 = self._structural(c, facts)
            if c2 == c:
                break
            c = c2
        return [c]

    def _implication(self, c: Op, facts: list[Expr]) -> list[Expr]:
        antecedent, consequent = c.args
        probe = facts + top_conjuncts(antecedent) + top_conjuncts(consequent)
        key = tuple(probe)
        if key not in self._refute_cache:
            self._refute_cache[key] = refuted(probe, self.cfg.refutation_bound)
        if self._refute_cache[key]:
            if self._spend():
                self._fire("R5", facts, c, TRUE, heuristic=True)
            return [TRUE]
        extended = list(facts)
        for f in top_conjuncts(antecedent):
            f = _normalize_fact(f)
            if f != TRUE and f not in extended:
                extended.append(f)
        out: list[Expr] = []
        for cc in top_conjuncts(consequent):
            out.extend(self.conjunct(cc, extended))
        return out

    def _structural(self, c: Expr, facts: list[Expr]) -> Expr:
        if self.enabled("R1"):
            c = self._walk(c, facts, self._r1)
        if self.enabled("R2"):
            c = self._walk(c, facts, self._r2)
        if self.enabled("R3"):
            c = self._r3(c, facts)
        if self.enabled("R4"):
            c = self._r4(c, facts)
        if self.enabled("R6"):
            c = self._walk(c, facts, self._r6)
        return c

    def _walk(self, e: Expr, facts: list[Expr], rule) -> Expr:
        """Innermost-first: rewrite children left to right, then this node."""
        match e:
            case Op(op, args):
                e = Op(op, tuple(self._walk(a, facts, rule) for a in args))
        return rule(e, facts)

    # -- individual rules ----------------------------------------------------

    def _r1(self, e: Expr, facts: list[Expr]) -> Expr:
        while True:
            match e:
                case Op("¬", (Op(rel, (a, b)),)) if rel in _NEG_FLIP:
                    after: Expr = Op(_NEG_FLIP[rel], (a, b))
                case Op("¬", (Op("¬", (a,)),)):
                    after = a
                case _:
                    return e
            if not self._spend():
                return e
            self._fire("R1", facts, e, after)
            e = after

    def _r2(self, e: Expr, facts: list[Expr]) -> Expr:
        while (
            isinstance(e, Op)
            and e.op in _RIGHT_ASSOC
            and isinstance(e.args[0], Op)
            and e.args[0].op == e.op
        ):
            (a, b), c = e.args[0].args, e.args[1]
            after = Op(e.op, (a, Op(e.op, (b, c))))
            if not self._spend():
                return e
            self._fire("R2", facts, e, after)
            # The rotated-in right child (b ⊕ c) may itself be left-nested.
            e = Op(e.op, (a, self._r2(Op(e.op, (b, c)), facts)))
        return e

    def _r3(self, c: Expr, facts: list[Expr]) -> Expr:
        match c:
            case Op("≥", (Op("+", (a, Num(1))), b)) if Op("<", (a, b)) in facts:
                after = Op("=", (c.args[0], b))
                if self._spend():
                    self._fire("R3", facts, c, after)
                    return after
        return c

    def _r4(self, c: Expr, facts: list[Expr]) -> Expr:
        def fact(f: Expr) -> bool:
            return f in facts

        def odd(x: Expr) -> bool:
            return fact(Op("=", (Op("%", (x, Num(2))), Num(1))))

        def even(x: Expr) -> bool:
            return fact(Op("=", (Op("%", (x, Num(2))), Num(0))))

        def positive(x: Expr) -> bool:
            return fact(Op(">", (x, Num(0)))) or fact(Op("<", (Num(0), x)))

        after: Expr | None = None
        match c:
            case Op("=", (Op("/", (x, Num(2))), e)):
                if odd(x):
                    after = Op("=", (x, Op("+", (Op("*", (Num(2), e)), Num(1)))))
                elif even(x):
                    after = Op("=", (x, Op("*", (Num(2), e))))
            case Op("≤", (Op("/", (x, Num(2))), Num(0))):
                if odd(x) and positive(x):
                    after = Op("=", (x, Num(1)))
        if after is not None and self._spend():
            self._fire("R4", facts, c, after)
            return after
        return c

    def _r6(self, e: Expr, facts: list[Expr]) -> Expr:
        while True:
            match e:
                case Op(rel, (Num(), Num())) if rel in REL_OPS:
                    after: Expr = TRUE if eval_expr(e, {}) else Ctor("False")
                case Op("∧", (Ctor("True"), b)):
                    after = b
                case Op("∧", (a, Ctor("True"))):
                    after = a
                case Op("∧", (a, b)) if a == b:
                    after = a
                case _:
                    return e
            if not self._spend():
                return e
            self._fire("R6", facts, e, after)
            e = after


def simplify(
    context: Expr,
    p: Expr,
    cfg: SimpConfig | None = None,
    log: list[RewriteEvent] | None = None,
) -> Expr:
    """Simplify `p` assuming `context`; both must be boolean-sorted.

    Returns a right-nested conjunction of simplified conjuncts of `p`
    (True conjuncts dropped, duplicates kept once); the context is never
    part of the output.  When `log` is given, every fired rewrite is
    appended to it as a RewriteEvent.
    """
    cfg = cfg or SimpConfig()
    s = _Simplifier(cfg, log)
    facts: list[Expr] = []
    for f in top_conjuncts(context):
        f = _normalize_fact(f)
        if f != TRUE and f not in facts:
            facts.append(f)

    out: list[Expr] = []
    for c in top_conjuncts(p):
        out.extend(s.conjunct(c, facts))
    if s.exhausted:
        s._fire("budget", facts, p, p, heuristic=True)

    keep: list[Expr] = []
    for c in out:
        if c != TRUE and c not in keep:
            keep.append(c)
    return conjoin(keep) if keep else TRUE
