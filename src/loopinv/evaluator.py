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
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .terms import (
    NAT_OPS, Assign, Block, Case, Ctor, Expr, If, Num, Op, Seq, Skip, Stmt, Var, While
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
