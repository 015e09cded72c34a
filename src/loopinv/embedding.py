"""Homeomorphic embedding and most-specific generalisation.

The embedding relation ⊴ is the structural well-quasi-order used to stop
the invariant search from diverging: in any infinite sequence of terms
over a finite alphabet some earlier term embeds in a later one.  Rules:

* variable:  x ⊴ y for any two free variables;
* diving:    e ⊴ f(..., t, ...) whenever e ⊴ t;
* coupling:  f(s1..sn) ⊴ f(t1..tn) whenever each si ⊴ ti.

Two terms are *coupled* when the final rule is a top-level coupling —
same head functor with argwise embedding.  Numerals are atomic heads
ordered as their unary view (Num n is Succ applied n times to Zero)
would order them: m ⊴ n exactly when m ≤ n, and the two are coupled
when moreover both are successors or both are zero.  So 1 ⊴ 2 and the
two are coupled, while 0 ⊴ 1 only by diving.

Generalisation ⊓ recurses through equal functors and introduces one
fresh variable per mismatched position (no sharing).  The most specific
generalisation △ then merges generalisation variables that abstract the
same pair of subterms on both sides, keeping the earliest.  Both return
substitutions that reproduce the inputs exactly — the defining law

    substitute(generalised, theta_left) == left   (same for right)

is enforced property-style in the tests.  Numerals are atomic to
generalisation: 1 vs 1+1 yields a fresh variable, not Succ surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import TRUE, Case, Ctor, Expr, Num, Op, Var, substitute


@dataclass
class FreshSupply:
    """Deterministic source of generalisation-variable names.

    Skips anything in `avoid` (program variables, typically); remembers
    everything it hands out in `created` so callers can tell
    generalisation variables apart from program variables later.
    """

    prefix: str = "g"
    avoid: frozenset[str] = frozenset()
    counter: int = 0
    created: list[str] = field(default_factory=list)  # in creation order

    def fresh(self) -> str:
        while True:
            self.counter += 1
            name = f"{self.prefix}{self.counter}"
            if name not in self.avoid:
                self.created.append(name)
                return name


# ---------------------------------------------------------------------------
# The functor view: head symbol plus immediate subterms.


def view(e: Expr) -> tuple[tuple, tuple[Expr, ...]]:
    """Decompose into (head key, children) for embedding and
    generalisation.  A numeral is an atomic head (`embeds` and `coupled`
    order numerals by value); Var has no view (the variable rule handles
    it)."""
    match e:
        case Num(n):
            return ("num", n), ()
        case Ctor(name):
            return ("ctor", name), ()
        case Op(op, args):
            return ("op", op), args
        case Case(cond, then, other):
            return ("case",), (cond, then, other)
        case _:
            raise TypeError(f"no view for {e!r}")


def embeds(e1: Expr, e2: Expr) -> bool:
    """The homeomorphic embedding e1 ⊴ e2."""
    memo: dict[tuple[Expr, Expr], bool] = {}

    def go(a: Expr, b: Expr) -> bool:
        key = (a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = out = _embeds(a, b, go)
        return out

    return go(e1, e2)


def _embeds(a: Expr, b: Expr, go) -> bool:
    if isinstance(a, Var) and isinstance(b, Var):
        return True  # variable rule
    if isinstance(b, Num):  # only a numeral no larger embeds in a numeral
        return isinstance(a, Num) and a.value <= b.value
    if not isinstance(b, Var):
        _, b_args = view(b)
        if any(go(a, t) for t in b_args):  # diving
            return True
    if isinstance(a, Var) or isinstance(b, Var):
        return False
    ka, a_args = view(a)
    kb, b_args = view(b)
    if ka == kb and len(a_args) == len(b_args):  # coupling
        return all(go(s, t) for s, t in zip(a_args, b_args))
    return False


def coupled(e1: Expr, e2: Expr) -> bool:
    """e1 ⊴ e2 with a coupling at the top: same head functor, argwise ⊴."""
    if isinstance(e1, Var) or isinstance(e2, Var):
        return False
    if isinstance(e1, Num) and isinstance(e2, Num):  # both successors, or both zero
        m, n = e1.value, e2.value
        return m <= n and (m > 0 or n == 0)
    k1, args1 = view(e1)
    k2, args2 = view(e2)
    return k1 == k2 and len(args1) == len(args2) and all(embeds(s, t) for s, t in zip(args1, args2))


# ---------------------------------------------------------------------------
# Generalisation


@dataclass
class GenResult:
    generalised: Expr
    theta_left: dict[str, Expr]
    theta_right: dict[str, Expr]


def _rebuild(e: Expr, args: tuple[Expr, ...]) -> Expr:
    """Put new children into e's shape (same head as e)."""
    match e:
        case Op(op, _):
            return Op(op, args)
        case Case():
            return Case(*args)
        case _:
            return e  # leaves: Num, Ctor, Var


def generalise(e1: Expr, e2: Expr, fresh: FreshSupply) -> GenResult:
    """The generalisation ⊓: recurse through equal heads, fresh variable
    per mismatch.  Identical subterms generalise to themselves."""
    theta_left: dict[str, Expr] = {}
    theta_right: dict[str, Expr] = {}

    def go(a: Expr, b: Expr) -> Expr:
        if a == b:
            return a
        if not (isinstance(a, Var) or isinstance(b, Var)):
            ka, a_args = view(a)
            kb, b_args = view(b)
            if ka == kb and len(a_args) == len(b_args):
                return _rebuild(a, tuple(go(s, t) for s, t in zip(a_args, b_args)))
        v = fresh.fresh()
        theta_left[v] = a
        theta_right[v] = b
        return Var(v)

    return GenResult(go(e1, e2), theta_left, theta_right)


def msg(e1: Expr, e2: Expr, fresh: FreshSupply) -> GenResult:
    """Most specific generalisation △: generalise, then repeatedly unify
    generalisation variables that abstract the same subterm pair on both
    sides, preferring the earliest-created name."""
    out = generalise(e1, e2, fresh)
    while True:
        names = list(out.theta_left)  # creation order
        merge: tuple[str, str] | None = None
        for i, v1 in enumerate(names):
            for v2 in names[i + 1 :]:
                if (
                    out.theta_left[v1] == out.theta_left[v2]
                    and out.theta_right[v1] == out.theta_right[v2]
                ):
                    merge = (v1, v2)
                    break
            if merge:
                break
        if merge is None:
            return out
        keep, drop = merge
        out.generalised = substitute(out.generalised, {drop: Var(keep)})
        del out.theta_left[drop]
        del out.theta_right[drop]


def msg_list(es: list[Expr], fresh: FreshSupply) -> Expr:
    """Fold △ over a list, ignoring True entries; empty folds to True."""
    work = [e for e in es if e != TRUE]
    if not work:
        return TRUE
    acc = work[0]
    for e in work[1:]:
        acc = msg(acc, e, fresh).generalised
    return acc
