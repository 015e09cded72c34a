"""Concrete semantics over the naturals.

Arithmetic conventions: subtraction is monus (truncating at zero),
division and modulus are euclidean and raise a division error when the
divisor is zero (0/0 included), and 0^0 = 1.  A product or power wider
than ``MAX_BITS`` bits raises an overflow error, which every caller
treats like a division error; without the cap a witness candidate such
as ``g^g`` walked along a run builds integers of millions of digits
before it is refuted.  Boolean connectives are short-circuit, so
`false ∧ 1/0 = 0` evaluates to false.

Statement execution is pure: the input store is never mutated.  Fuel
counts loop-body iterations only (straight-line code is free).  One
loop node may be watched: each completed visit to it is recorded as the
store at every test of its guard, from entry to exit, which is how
trajectory collection is implemented.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .terms import Assign, Block, Case, Ctor, Expr, If, Num, Op, Seq, Skip, Stmt, Var, While

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


def eval_expr(e: Expr, store: Store) -> int | bool:
    match e:
        case Var(name):
            try:
                return store[name]
            except KeyError:
                raise EvalError("UnboundVar", name) from None
        case Num(value):
            return value
        case Ctor(name):
            return name == "True"
        case Op("¬", (a,)):
            return not eval_expr(a, store)
        case Op("∧", (a, b)):
            return eval_expr(a, store) and bool(eval_expr(b, store))
        case Op("∨", (a, b)):
            return eval_expr(a, store) or bool(eval_expr(b, store))
        case Op("⇒", (a, b)):
            return (not eval_expr(a, store)) or bool(eval_expr(b, store))
        case Op(op, (a, b)):
            x = eval_expr(a, store)
            y = eval_expr(b, store)
            match op:
                case "+":
                    return x + y
                case "-":
                    return max(x - y, 0)  # monus
                case "*":
                    v = x * y
                    if v.bit_length() > MAX_BITS:
                        raise EvalError("Overflow", f"* result wider than {MAX_BITS} bits")
                    return v
                case "/":
                    if y == 0:
                        raise EvalError("DivByZero", "/ by zero")
                    return x // y
                case "%":
                    if y == 0:
                        raise EvalError("DivByZero", "% by zero")
                    return x % y
                case "^":
                    # x ≥ 2^(bitlen(x)-1): reject what must be too wide before computing.
                    too_wide = (x.bit_length() - 1) * y > MAX_BITS
                    if too_wide or (v := x**y).bit_length() > MAX_BITS:  # 0^0 = 1
                        raise EvalError("Overflow", f"^ result wider than {MAX_BITS} bits")
                    return v
                case "<":
                    return x < y
                case ">":
                    return x > y
                case "≤":
                    return x <= y
                case "≥":
                    return x >= y
                case "=":
                    return x == y
                case "≠":
                    return x != y
        case Case(cond, then, other):
            return eval_expr(then if eval_expr(cond, store) else other, store)
    raise TypeError(f"not an Expr: {e!r}")


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
    """Every store over `names` with values ≤ bound, in lexicographic order."""
    for values in itertools.product(range(bound + 1), repeat=len(names)):
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
