"""Concrete semantics over the naturals.

Arithmetic conventions: subtraction is monus (truncating at zero),
division and modulus are euclidean and raise a division error when the
divisor is zero (0/0 included), and 0^0 = 1.  A product or power wider
than ``MAX_BITS`` bits raises an overflow error, which every caller
treats like a division error; without the cap a witness candidate such
as ``g^g`` walked along a run builds integers of millions of digits
before it is refuted.  Boolean connectives are short-circuit, so
`false ∧ 1/0 = 0` evaluates to false.

Expressions are compiled (Feeley & Lapalme, "Using Closures for Code
Generation", 1987): a node's first evaluation builds a closure over its
children's closures and keeps it in the node's instance dict, which
dataclass ``==``, ``hash`` and ``repr`` ignore.

Statement execution is pure: the input store is never mutated.  Fuel
counts loop-body iterations only (straight-line code is free).  One
loop node may be watched: each completed visit to it is recorded as the
store at every test of its guard, from entry to exit, which is how
trajectory collection is implemented.

Every bounded check over a box of stores is one search, ``first_store``.
Where an equation that must hold pins a variable, that variable is
solved for (``_solve_for``, inverting ``+`` and ``*``) rather than
enumerated; the witness search uses the same inversion to judge step
errors.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .terms import (
    NAT_OPS, Assign, Block, Case, Ctor, Expr, If, Num, Op, Seq, Skip, Stmt, Var, While,
    free_vars, view,
)

Store = dict[str, int]
Visit = tuple[Store, ...]  # one visit to a loop: the store at each test of its guard

MAX_BITS = 4096  # the widest result of `*` or `^`; a wider one is an Overflow


class EvalError(Exception):
    """Expression evaluation failed; kind ∈ {DivByZero, Overflow, UnboundVar}."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class ExecOutcome:
    pass


@dataclass(frozen=True)
class Finished(ExecOutcome):
    store: dict
    visits: tuple[Visit, ...]  # the watched loop's, in order of exit


@dataclass(frozen=True)
class FuelExhausted(ExecOutcome):
    pass


@dataclass(frozen=True)
class ExecError(ExecOutcome):
    kind: str


Compiled = Callable[[Store], int | bool]


def eval_expr(e: Expr, store: Store) -> int | bool:
    try:
        return _compiled(e)(store)
    except KeyError as err:  # a variable's closure looked it up in vain
        raise EvalError("UnboundVar", err.args[0]) from None


def _compiled(e: Expr) -> Compiled:
    """The closure that evaluates `e`: compiled on first use from its
    children's closures and kept in the node's instance dict."""
    run = getattr(e, "_closure", None)
    if run is None:
        if type(e) not in _COMPILERS:
            raise TypeError(f"not an Expr: {e!r}")
        children, make = _COMPILERS[type(e)]
        run = make(e, *map(_compiled, children(e)))
        object.__setattr__(e, "_closure", run)  # frozen fields, writable instance dict
    return run


def _times(a: Compiled, b: Compiled) -> Compiled:
    def run(s):
        if (v := a(s) * b(s)).bit_length() > MAX_BITS:
            raise EvalError("Overflow", f"* result wider than {MAX_BITS} bits")
        return v

    return run


def _power(a: Compiled, b: Compiled) -> Compiled:
    def run(s):
        x, y = a(s), b(s)
        # x ≥ 2^(bitlen(x)-1): reject what must be too wide before computing.
        too_wide = (x.bit_length() - 1) * y > MAX_BITS
        if too_wide or (v := x**y).bit_length() > MAX_BITS:  # 0^0 = 1
            raise EvalError("Overflow", f"^ result wider than {MAX_BITS} bits")
        return v

    return run


def _euclidean(op: str, f: Callable[[int, int], int]) -> Callable[..., Compiled]:
    def make(a: Compiled, b: Compiled) -> Compiled:
        def run(s):
            x, y = a(s), b(s)
            if y == 0:
                raise EvalError("DivByZero", f"{op} by zero")
            return f(x, y)

        return run

    return make


def ceiling(e: Expr, bound: int) -> int | None:
    """An upper bound on `e`'s value over the stores with every variable
    at most `bound`, a formula counting as 1; None when `e` may fail to
    evaluate on one of them: a product or power that may be wider than
    `MAX_BITS` (the checks of `_times` and `_power`), or a division or
    modulus by anything but a nonzero numeral."""
    match e:
        case Var():
            return bound
        case Num(value):
            return value
        case Op("/" | "%", (_, divisor)) if not (isinstance(divisor, Num) and divisor.value):
            return None
    tops = [ceiling(a, bound) for a in view(e)[1]]
    if None in tops:
        return None
    match e:
        case Op("+"):
            return tops[0] + tops[1]
        case Op("-" | "/" | "%"):
            return tops[0]
        case Op("*"):
            top = tops[0] * tops[1]
            return top if top.bit_length() <= MAX_BITS else None
        case Op("^"):
            x, y = tops  # x**y < 2**(bitlen(x)*y); 0**0 = 1
            return max(x**y, 1) if x.bit_length() * y <= MAX_BITS else None
        case Case():
            return max(tops[1:])
    return 1  # a constructor, relation or connective


# Operator → factory of its closure from the operands' closures.  Operands
# run left to right, so the left one's error is the one raised.
_OPS: dict[str, Callable[..., Compiled]] = {
    "¬": lambda a: lambda s: not a(s),
    "∧": lambda a, b: lambda s: a(s) and bool(b(s)),
    "∨": lambda a, b: lambda s: a(s) or bool(b(s)),
    "⇒": lambda a, b: lambda s: (not a(s)) or bool(b(s)),
    "+": lambda a, b: lambda s: a(s) + b(s),
    "-": lambda a, b: lambda s: max(a(s) - b(s), 0),  # monus
    "*": _times,
    "^": _power,
    "/": _euclidean("/", operator.floordiv),
    "%": _euclidean("%", operator.mod),
    "<": lambda a, b: lambda s: a(s) < b(s),
    ">": lambda a, b: lambda s: a(s) > b(s),
    "≤": lambda a, b: lambda s: a(s) <= b(s),
    "≥": lambda a, b: lambda s: a(s) >= b(s),
    "=": lambda a, b: lambda s: a(s) == b(s),
    "≠": lambda a, b: lambda s: a(s) != b(s),
}


# The arithmetic operators on values, for callers that hold their operands'
# values rather than expressions: each is its operator's closure over the two
# halves of a pair, so `ARITHMETIC["-"]((2, 5))` is 0, and the conventions
# above keep one owner.
ARITHMETIC: dict[str, Callable[[tuple[int, int]], int]] = {
    op: _OPS[op](operator.itemgetter(0), operator.itemgetter(1)) for op in NAT_OPS
}


def _const(v: object) -> Callable[[object], object]:
    return lambda _: v


# Node type → (its children, factory of its closure from the node and the
# children's closures).
_COMPILERS: dict[type, tuple[Callable, Callable[..., Compiled]]] = {
    Var: (_const(()), lambda e: operator.itemgetter(e.name)),
    Num: (_const(()), lambda e: _const(e.value)),
    Ctor: (_const(()), lambda e: _const(e.name == "True")),
    Op: (operator.attrgetter("args"), lambda e, *args: _OPS[e.op](*args)),
    Case: (
        operator.attrgetter("cond", "then", "other"),
        lambda e, c, then, other: lambda s: then(s) if c(s) else other(s),
    ),
}


def holds(e: Expr, store: Store) -> bool:
    """Truth of a boolean expression; evaluation errors count as false."""
    try:
        v = eval_expr(e, store)
    except EvalError:
        return False
    if not isinstance(v, bool):
        raise ValueError(f"holds() needs a boolean expression, got value {v!r}")
    return v


def stores(names: list[str], bound: int) -> Iterator[Store]:
    """Every store over `names` with values ≤ bound, once each: smallest
    maximum first, lexicographic among stores with the same maximum (the
    depth-bounded order of SmallCheck).  A bounded check that stops at
    its first failing store thus reports one with the smallest maximum,
    and a search for a satisfying store ends near the origin, where
    witnesses tend to live.  No names give the one empty store."""
    if not names:
        yield {}
    for m in range(bound + 1):
        for values in itertools.product(range(m + 1), repeat=len(names)):
            if m in values:
                yield dict(zip(names, values))


_ANY, _NONE = -1, -2  # besides one natural, what an equation admits for a variable


def _occurrences(e: Expr, g: str) -> int:
    if isinstance(e, Var):
        return int(e.name == g)
    return sum(_occurrences(a, g) for a in view(e)[1])


Inversion = tuple[Expr, tuple[tuple[str, Expr], ...], bool]


def _inversion(c: Expr, g: str) -> Inversion | None:
    """How to solve the conjunct `c` for `g`: (other, path, exact).
    Evaluate `other`, the side without `g`, then undo each (operator,
    other operand) of `path`, the walk from the root of the side holding
    `g` down towards `g`.  The walk stops at `g` (`exact`) or at the
    first node that is not + or *, where the inversion cannot tell.  None
    unless `c` is an equation with `g` once on one side and not on the
    other."""
    if not (isinstance(c, Op) and c.op == "="):
        return None
    side, other = c.args
    if g not in free_vars(side):
        side, other = other, side
    if _occurrences(side, g) != 1 or g in free_vars(other):
        return None
    path = []
    while side != Var(g):
        if not (isinstance(side, Op) and side.op in ("+", "*")):
            return other, tuple(path), False
        op, (a, b) = side.op, side.args
        side, rest = (a, b) if g in free_vars(a) else (b, a)
        path.append((op, rest))
    return other, tuple(path), True


def _plan(c: Expr, g: str) -> tuple[bool, Inversion | None]:
    """Whether the conjunct `c` mentions `g`, and its `_inversion` for
    `g`: worked out on first use and kept in c's instance dict, since the
    step search asks for them on every store where a step fails, and
    `first_store` on every store it enumerates."""
    plans = getattr(c, "_plans", None)
    if plans is None:
        plans = {}
        object.__setattr__(c, "_plans", plans)  # frozen fields, writable instance dict
    plan = plans.get(g)
    if plan is None:
        plan = plans[g] = (g in free_vars(c), _inversion(c, g))
    return plan


def _solve_for(c: Expr, g: str, env: Store) -> int | None:
    """The values of `g` that make the conjunct `c` hold at `env`: one
    natural, _ANY (every natural) or _NONE.  None when this cannot tell:
    `c` is not an equation with `g` once on one side under + and * only,
    or the rest of it does not evaluate at `env`.  A shape outside + and
    * still gives _NONE or _ANY when the operands above it already do."""
    inversion = _plan(c, g)[1]
    if inversion is None:
        return None
    other, path, exact = inversion
    try:
        target = eval_expr(other, env)
        for op, rest in path:
            r = eval_expr(rest, env)
            if op == "+":
                if target < r:
                    return _NONE
                target -= r
            elif r == 0:
                return _ANY if target == 0 else _NONE
            elif target % r:
                return _NONE
            else:
                target //= r
    except EvalError:
        return None
    return target if exact else None


def _admitted(conjuncts: list[Expr], g: str, env: Store) -> int | None:
    """What the conjuncts mentioning `g` jointly admit for it at `env`:
    one natural, _ANY or _NONE; None when some conjunct cannot tell and
    the others leave more than one value."""
    result, unknown = _ANY, False
    for c in conjuncts:
        if not _plan(c, g)[0]:
            continue
        v = _solve_for(c, g, env)
        if v is None:
            unknown = True
        elif result == _ANY:
            result = v
        elif v != _ANY and v != result:
            result = _NONE
    return None if unknown and result == _ANY else result




def first_store(
    names: list[str], holding: list[Expr], failing: list[Expr], bound: int
) -> tuple[Store | None, int]:
    """The first store of `stores(names, bound)` where every formula of
    `holding` holds and none of `failing` does, and its 1-based position
    in that order; (None, the number of stores) when no store qualifies.

    A variable that an equation of `holding` solves for exactly is
    pinned: the other variables are enumerated, and the pinned one takes
    the one value that `_admitted` gives there, or none, or every value
    when it cannot tell.  Each store skipped has a holding formula false
    or failing to evaluate, so it does not qualify.  The qualifying store
    with the smallest (maximum, values) is kept, which is the store the
    plain scan stops at; its position is counted, not scanned for."""

    def qualifies(store: Store) -> bool:
        return all(holds(c, store) for c in holding) and not any(holds(f, store) for f in failing)

    pin = next((g for g in names if any(_pins(c, g) for c in holding)), None)
    if pin is None:
        for position, store in enumerate(stores(names, bound), 1):
            if qualifies(store):
                return store, position
        return None, (bound + 1) ** len(names)
    around = [c for c in holding if _plan(c, pin)[0]]
    best: tuple[int, tuple[int, ...]] | None = None  # (maximum, values in names order)
    for env in stores([n for n in names if n != pin], bound):
        top = max(env.values(), default=0)
        if best is not None and top > best[0]:
            break  # every store from here on has a larger maximum
        admitted = _admitted(around, pin, env)
        if admitted in (None, _ANY):
            tries = range(bound + 1)
        else:  # _NONE, or one natural that may lie beyond the bound
            tries = [admitted] if 0 <= admitted <= bound else []
        for v in tries:
            values = tuple(v if n == pin else env[n] for n in names)
            key = (max(top, v), values)
            if best is not None and key >= best:
                break  # a larger value of the pinned variable gives a larger key
            if qualifies(dict(zip(names, values))):
                best = key
                break
    if best is None:
        return None, (bound + 1) ** len(names)
    return dict(zip(names, best[1])), _position(*best)


def _pins(c: Expr, g: str) -> bool:
    """Whether `c` is an equation that `_solve_for` solves exactly for `g`."""
    inversion = _plan(c, g)[1]
    return inversion is not None and inversion[2]


def _position(top: int, values: tuple[int, ...]) -> int:
    """The 1-based position in `stores` order of the store with these
    values, `top` their maximum: after the top**n stores of smaller
    maximum and the stores of maximum `top` that first differ at some i
    by a smaller value, with any rest after a prefix that holds `top`,
    and a rest that holds it otherwise."""
    n, position, seen = len(values), top ** len(values) + 1, False
    for i, v in enumerate(values):
        rest = n - i - 1
        position += v * ((top + 1) ** rest - (0 if seen else top**rest))
        seen = seen or v == top
    return position


class _OutOfFuel(Exception):
    pass


def exec_stmt(st: Stmt, store: Store, fuel: int, watch: While | None = None) -> ExecOutcome:
    """Run a statement on a copy of `store`; fuel bounds loop iterations.
    Visits to the loop node `watch` of `st`, matched by identity, are recorded."""
    s = dict(store)
    budget = [fuel]
    visits: list[Visit] = []
    try:
        _run(st, s, budget, watch, visits)
    except _OutOfFuel:
        return FuelExhausted()
    except EvalError as err:
        return ExecError(err.kind)
    return Finished(s, tuple(visits))


def _run(st: Stmt, s: Store, budget: list[int], watch: While | None, visits: list[Visit]) -> None:
    match st:
        case Skip():
            return
        case Assign(var, rhs):
            s[var] = eval_expr(rhs, s)
        case Seq(a, b):
            _run(a, s, budget, watch, visits)
            _run(b, s, budget, watch, visits)
        case If(cond, t, e):
            _run(t if eval_expr(cond, s) else e, s, budget, watch, visits)
        case Block(locs, body):
            saved = {v: s[v] for v in locs if v in s}
            for v in locs:
                s[v] = 0
            _run(body, s, budget, watch, visits)
            for v in locs:
                if v in saved:
                    s[v] = saved[v]
                else:
                    del s[v]
        case While(cond, body):
            states = [dict(s)] if st is watch else None
            while eval_expr(cond, s):
                if budget[0] <= 0:
                    raise _OutOfFuel()
                budget[0] -= 1
                _run(body, s, budget, watch, visits)
                if states is not None:
                    states.append(dict(s))
            if states is not None:
                visits.append(tuple(states))
        case _:
            raise TypeError(f"not a Stmt: {st!r}")
