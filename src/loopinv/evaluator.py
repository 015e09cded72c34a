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
trajectory collection is implemented.  Statements are compiled the same
way: a statement node's first run builds a closure over its parts'
closures, kept in its instance dict, that runs it in place on a copy of
the store with a record of the run (``_Run``: the fuel left, the watched
loop and its visits).

Every bounded check over a box of stores is one search, ``first_store``,
and the box is the free variables of the formulas it tests: no caller
works it out.  It walks the box one variable at a time (``_walk``, which
also enumerates ``stores``), backtracking with early checks (Bitner &
Reingold, "Backtrack programming techniques", 1975): a variable that an
equation pins is solved for (``_inversion``, inverting ``+`` and ``*``)
once the equation's other variables are bound rather than enumerated,
and each formula is tested as soon as its variables are bound.  Each
call compiles its walk once: every step's checks become one closure
over the formulas' closures, and every solve one closure over the
equations' inversions, which are compiled closures kept on the
equation's node.  The witness search uses the same inversion to judge
step errors.
"""

from __future__ import annotations

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


Check = Callable[[Store], bool]


def holds(e: Expr, store: Store) -> bool:
    """Truth of a boolean expression, as `_checks` tells it for one formula."""
    return _checks([(_compiled(e), True)])(store)


def _checks(tests: list[tuple[Compiled, bool]]) -> Check:
    """Whether each formula, given as its compiled closure, has the wanted
    truth at a store, tested in order up to the first that has not: one
    closure for a caller that tests the same formulas at many stores.  An
    evaluation error counts as false, and a non-boolean value raises
    ValueError."""

    def run(store: Store) -> bool:
        for test, want in tests:
            try:
                v = test(store)
            except (EvalError, KeyError):  # KeyError: a variable looked up in vain
                v = False
            if v is not want:
                if type(v) is not bool:
                    raise ValueError(f"holds() needs a boolean expression, got value {v!r}")
                return False
        return True

    return run


def conjunction(formulas: list[Expr]) -> Check:
    """`holds` of every formula, in order, as one closure (`_checks`):
    false at the first that is false or fails to evaluate."""
    return _checks([(_compiled(f), True) for f in formulas])


def valuation(exprs: dict[str, Expr]) -> Callable[[Store], dict[str, int | None]]:
    """The values of `exprs` at a store, by name, as one closure over
    their compiled closures; None where one fails to evaluate."""
    compiled = [(name, _compiled(e)) for name, e in exprs.items()]

    def run(store: Store) -> dict[str, int | None]:
        values: dict[str, int | None] = {}
        for name, value in compiled:
            try:
                values[name] = value(store)
            except (EvalError, KeyError):
                values[name] = None
        return values

    return run


def stores(names: list[str], bound: int) -> Iterator[Store]:
    """Every store over `names` with values ≤ bound, once each: smallest
    maximum first, lexicographic among stores with the same maximum (the
    depth-bounded order of SmallCheck).  A bounded check that stops at
    its first failing store thus reports one with the smallest maximum,
    and a search for a satisfying store ends near the origin, where
    witnesses tend to live.  No names give the one empty store.  This is
    `_walk` with every variable enumerated in order and nothing tested."""
    steps = [(n, None, None, i == len(names) - 1) for i, n in enumerate(names)]
    for m in range(bound + 1):
        for store in _walk(steps, m, m, {}):
            yield dict(store)


Solving = Callable[[Store], tuple[int | None, Check | None]]

# (variable, the closure that solves for it or None to enumerate it, the
# check of the formulas its binding completes or None for none, whether it is
# the last enumerated).  Solving gives what the equations it is solved from
# admit, and the check of those of them still to test, or None (`_solving`).
Step = tuple[str, Solving | None, Check | None, bool]


def _walk(steps: list[Step], m: int, top: int, store: Store, d: int = 0, reached: bool = False) -> Iterator[Store]:
    """The stores that extend `store` by binding the variables of
    steps[d:] in turn, depth first, each in increasing order, where the
    enumerated variables have maximum `m`.  An enumerated variable takes
    every value ≤ m; a solved one the value ≤ top that its equations
    admit, none if they admit none, or every value ≤ top if they admit
    any or cannot tell.  A branch is cut as soon as one of its step's
    checks is not met.  `store` is reused: the caller copies what it
    keeps."""
    if d == len(steps):
        if reached or m == 0:  # no enumerated values have maximum 0
            yield store
        return
    g, solve, check, closing = steps[d]
    pending = None
    if solve is None:
        tries = (m,) if closing and not reached else range(m + 1)
    else:
        v, pending = solve(store)
        tries = range(top + 1) if v is None or v == _ANY else (v,) if 0 <= v <= top else ()
    for v in tries:
        store[g] = v
        if (pending is None or pending(store)) and (check is None or check(store)):
            yield from _walk(steps, m, top, store, d + 1, reached or (solve is None and v == m))


_ANY, _NONE = -1, -2  # besides one natural, what an equation admits for a variable


def _occurrences(e: Expr, g: str) -> int:
    if isinstance(e, Var):
        return int(e.name == g)
    return sum(_occurrences(a, g) for a in view(e)[1])


Solve = Callable[[Store], int | None]


def _inversion(c: Expr, g: str) -> tuple[Solve, bool] | None:
    """How to solve the conjunct `c` for `g`: the closure that gives the
    values of `g` that make `c` hold at a store, and whether it is exact.
    None unless `c` is an equation with `g` once on one side and not on
    the other.  The closure evaluates `other`, the side without `g`, then
    undoes each (operator, other operand) of the path from the root of the
    side holding `g` down towards `g`, giving one natural, _ANY (every
    natural) or _NONE.  The path stops at `g` (exact) or at the first
    node that is not + or *, where the closure cannot tell (None) unless
    the operands above already give _NONE or _ANY; an operand that fails
    to evaluate cannot tell either.  A product would have to be wider
    than `MAX_BITS` to reach a target that wide, so that gives _NONE, and
    an exact natural makes `c` hold."""
    if not (isinstance(c, Op) and c.op == "="):
        return None
    side, other = c.args
    if g not in free_vars(side):
        side, other = other, side
    if _occurrences(side, g) != 1 or g in free_vars(other):
        return None
    target, undo = _compiled(other), []
    while isinstance(side, Op) and side.op in ("+", "*"):  # g is in `side`
        (a, b), plus = side.args, side.op == "+"
        side, rest = (a, b) if g in free_vars(a) else (b, a)
        undo.append((plus, _compiled(rest)))
    exact = isinstance(side, Var)

    def run(store: Store) -> int | None:
        try:
            value = target(store)
            for plus, rest in undo:
                r = rest(store)
                if plus:
                    if value < r:
                        return _NONE
                    value -= r
                elif r == 0:
                    return _ANY if value == 0 else _NONE
                elif value % r or value.bit_length() > MAX_BITS:
                    return _NONE
                else:
                    value //= r
        except (EvalError, KeyError):
            return None
        return value if exact else None

    return run, exact


def _plan(c: Expr, g: str) -> tuple[bool, Solve | None, bool]:
    """Whether the conjunct `c` mentions `g`, and its `_inversion` for
    `g` (None and False for none): worked out on first use and kept in
    c's instance dict, since the step search asks for them on every store
    where a step fails, and `first_store` on every call."""
    plans = getattr(c, "_plans", None)
    if plans is None:
        plans = {}
        object.__setattr__(c, "_plans", plans)  # frozen fields, writable instance dict
    plan = plans.get(g)
    if plan is None:
        plan = plans[g] = (g in free_vars(c), *(_inversion(c, g) or (None, False)))
    return plan


def _admission(conjuncts: list[Expr], g: str) -> Callable[[Store], tuple[int | None, int]]:
    """The closure that gives what the conjuncts mentioning `g` jointly
    admit for it at a store: one natural, _ANY or _NONE; None when some
    conjunct cannot tell and the others leave more than one value.  With
    it comes the bit mask of those conjuncts (bit i for the i-th) whose
    exact inversion gave a natural: they hold where `g` takes it."""
    solves = []
    for c in conjuncts:
        mentions, solve, _ = _plan(c, g)
        if mentions:
            solves.append((1 << len(solves), solve or _const(None)))

    def run(store: Store) -> tuple[int | None, int]:
        result, unknown, told = _ANY, False, 0
        for bit, solve in solves:
            v = solve(store)
            if v is None:
                unknown = True
                continue
            if v >= 0:
                told |= bit
            if result == _ANY:
                result = v
            elif v != _ANY and v != result:
                result = _NONE
        return None if unknown and result == _ANY else result, told

    return run


def _admitted(conjuncts: list[Expr], g: str, env: Store) -> int | None:
    """What the conjuncts mentioning `g` jointly admit for it at `env`
    (see `_admission`)."""
    return _admission(conjuncts, g)(env)[0]


def _solving(around: list[Expr], g: str) -> Solving:
    """The closure that solves for `g` from the equations `around`: what
    they admit at a store (`_admission`), and the check of those of them
    that `g`'s value must still meet, None for none.  An equation whose
    exact inversion gave the value holds there and is not tested; one
    that cannot tell is, also where another gave the value."""
    admit, pending = _admission(around, g), {}

    def run(store: Store) -> tuple[int | None, Check | None]:
        v, told = admit(store)
        if told not in pending:
            untold = [(_compiled(c), True) for i, c in enumerate(around) if not told >> i & 1]
            pending[told] = _checks(untold) if untold else None
        return v, pending[told]

    return run


def first_store(holding: list[Expr], failing: list[Expr], bound: int) -> tuple[Store | None, int]:
    """The first store of `stores(names, bound)`, `names` the sorted free
    variables of the formulas, where every formula of `holding` holds and
    none of `failing` does, and its 1-based position in that order; (None,
    the number of stores) when no store qualifies.

    The box is walked (`_walk`) in an elimination order, whose steps are
    compiled once per call: each step's checks into one closure over the
    formulas' closures, and each solved step's equations into one closure
    over their inversions.  A pinned variable is solved for as soon as
    the other variables of an equation that pins it are bound.  When none
    can be, a variable is enumerated: one that no equation of `holding`
    pins if any is left, the one whose binding completes the most
    formulas (fail first), then the first by name.  Each formula is
    tested at the first step where all its variables are bound, so a
    branch where a holding formula is false or fails to evaluate, or a
    failing formula holds, is cut there; no store cut or skipped
    qualifies.  (An equation that gave a solved variable's value by exact
    inversion holds by construction and is not tested.)  The enumerated variables go through the `stores`
    order, so each of their stores is walked once, smallest maximum
    first, until that maximum passes the qualifying store with the
    smallest (maximum, values), which is kept: the store the plain scan
    stops at.  Its position is counted, not scanned for."""
    steps, closed = _elimination(holding, failing)
    names = sorted(step[0] for step in steps)
    best: tuple[int, tuple[int, ...]] | None = None  # (maximum, values in names order)
    if closed({}):
        for m in range(bound + 1):
            if best is not None and m > best[0]:
                break  # every store from here on has a larger maximum
            for store in _walk(steps, m, bound if best is None else best[0], {}):
                values = tuple(store[n] for n in names)
                key = (max(values, default=0), values)
                if best is None or key < best:
                    best = key
    if best is None:
        return None, (bound + 1) ** len(names)
    return dict(zip(names, best[1])), _position(*best)


def _elimination(holding: list[Expr], failing: list[Expr]) -> tuple[list[Step], Check]:
    """`first_store`'s steps over the free variables of the formulas,
    compiled, and the check of the formulas without variables."""
    wanted = [(f, True) for f in holding] + [(f, False) for f in failing]
    free = [free_vars(f) for f, _ in wanted]
    tests = [(_compiled(f), want) for f, want in wanted]
    names = sorted(frozenset().union(*free))
    # Each equation's variables that it can be solved for, to whether exactly (pinned).
    solvable = [{g: _plan(c, g)[2] for g in vs if _plan(c, g)[1]} for c, vs in zip(holding, free)]
    pinned = [g for g in names if any(s.get(g) for s in solvable)]
    done: set[str] = set()
    steps = []

    def rank(g: str) -> tuple[bool, int]:  # unpinned first, then the most formulas completed
        return g not in pinned, sum(g in vs and vs - {g} <= done for vs in free)

    while len(done) < len(names):
        ready = [(i, s) for i, s in enumerate(solvable) if len(free[i] - done) == 1]
        g = next((g for g in pinned if g not in done and any(s.get(g) for _, s in ready)), None)
        around = None if g is None else [i for i, s in ready if g in s]
        g = g or max((g for g in names if g not in done), key=rank)
        done.add(g)
        steps.append((g, around, [i for i, vs in enumerate(free) if g in vs and vs <= done]))
    last = max((d for d, step in enumerate(steps) if step[1] is None), default=None)

    def check(tested: list[int]) -> Check | None:
        return _checks([tests[i] for i in tested]) if tested else None

    return [
        (g, None, check(tested), d == last) if around is None
        else (g, _solving([holding[i] for i in around], g), check([i for i in tested if i not in around]), False)
        for d, (g, around, tested) in enumerate(steps)
    ], _checks([tests[i] for i, vs in enumerate(free) if not vs])


def _position(top: int, values: tuple[int, ...]) -> int:
    """The 1-based position in `stores` order of the store with these
    values, `top` their maximum: after the top**n stores of smaller
    maximum (none for the empty store) and the stores of maximum `top`
    that first differ at some i by a smaller value, with any rest after a
    prefix that holds `top`, and a rest that holds it otherwise."""
    n, seen = len(values), False
    position = top**n + 1 if values else 1
    for i, v in enumerate(values):
        rest = n - i - 1
        position += v * ((top + 1) ** rest - (0 if seen else top**rest))
        seen = seen or v == top
    return position


class _OutOfFuel(Exception):
    pass


class _Run:
    """What one execution carries besides the store: the fuel left, the
    identity of the watched loop (None for none) and its visits."""

    __slots__ = ("fuel", "watch", "visits")

    def __init__(self, fuel: int, watch: While | None):
        self.fuel, self.watch, self.visits = fuel, None if watch is None else id(watch), []


def exec_stmt(st: Stmt, store: Store, fuel: int, watch: While | None = None) -> ExecOutcome:
    """Run a statement on a copy of `store`; fuel bounds loop iterations.
    Visits to the loop node `watch` of `st`, matched by identity, are
    recorded.  The statement runs as the closure it is compiled to on its
    first run (`_compiled_stmt`)."""
    s = dict(store)
    run = _Run(fuel, watch)
    try:
        _compiled_stmt(st)(s, run)
    except _OutOfFuel:
        return FuelExhausted()
    except EvalError as err:
        return ExecError(err.kind)
    except KeyError:  # a variable's closure looked it up in vain
        return ExecError("UnboundVar")
    return Finished(s, tuple(run.visits))


Executed = Callable[[Store, _Run], None]


def _compiled_stmt(st: Stmt) -> Executed:
    """The closure that runs `st` on a store, in place: compiled on first
    use from its parts' closures and kept in the node's instance dict, as
    `_compiled` keeps an expression's."""
    run = getattr(st, "_closure", None)
    if run is not None:
        return run
    match st:
        case Skip():
            def run(s, r):
                pass

        case Assign(var, rhs):
            value = _compiled(rhs)

            def run(s, r):
                s[var] = value(s)

        case Seq(a, b):
            first, second = _compiled_stmt(a), _compiled_stmt(b)

            def run(s, r):
                first(s, r)
                second(s, r)

        case If(cond, a, b):
            test, then, other = _compiled(cond), _compiled_stmt(a), _compiled_stmt(b)

            def run(s, r):
                (then if test(s) else other)(s, r)

        case Block(locs, body):
            fresh, inner = dict.fromkeys(locs, 0), _compiled_stmt(body)  # `VAR x, x` is one x

            def run(s, r):
                saved = {v: s[v] for v in fresh if v in s}
                s.update(fresh)
                inner(s, r)
                for v in fresh:
                    if v in saved:
                        s[v] = saved[v]
                    else:
                        del s[v]

        case While(cond, body):
            # The node's id: a closure holding the node itself would make a cycle.
            me, test, inner = id(st), _compiled(cond), _compiled_stmt(body)

            def run(s, r):
                states = [dict(s)] if r.watch == me else None
                while test(s):
                    if r.fuel <= 0:
                        raise _OutOfFuel()
                    r.fuel -= 1
                    inner(s, r)
                    if states is not None:
                        states.append(dict(s))
                if states is not None:
                    r.visits.append(tuple(states))

        case _:
            raise TypeError(f"not a Stmt: {st!r}")
    object.__setattr__(st, "_closure", run)  # frozen fields, writable instance dict
    return run
