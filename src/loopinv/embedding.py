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

Both relations, and generalisation below, read a term through
`terms.view` as a head applied to its children, the one functor view
that `substitute`, `free_vars` and `renaming_of` share.

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

from .terms import TRUE, Expr, Num, Var, rebuild, substitute, view


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
                return rebuild(a, tuple(go(s, t) for s, t in zip(a_args, b_args)))
        v = fresh.fresh()
        theta_left[v] = a
        theta_right[v] = b
        return Var(v)

    return GenResult(go(e1, e2), theta_left, theta_right)


def msg(e1: Expr, e2: Expr, fresh: FreshSupply) -> GenResult:
    """Most specific generalisation △: generalise, then unify generalisation
    variables that abstract the same subterm pair on both sides into the
    earliest-created one."""
    out = generalise(e1, e2, fresh)
    earliest: dict[tuple[Expr, Expr], str] = {}
    merge: dict[str, Expr] = {}
    for v in out.theta_left:  # creation order
        keep = earliest.setdefault((out.theta_left[v], out.theta_right[v]), v)
        if keep != v:
            merge[v] = Var(keep)
    out.generalised = substitute(out.generalised, merge)
    for drop in merge:
        del out.theta_left[drop]
        del out.theta_right[drop]
    return out


def msg_list(es: list[Expr], fresh: FreshSupply) -> Expr:
    """Fold △ over a list, ignoring True entries; empty folds to True."""
    work = [e for e in es if e != TRUE]
    if not work:
        return TRUE
    acc = work[0]
    for e in work[1:]:
        acc = msg(acc, e, fresh).generalised
    return acc
