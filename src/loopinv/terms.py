"""Term language shared by programs and assertions.

A single first-order expression type serves both program arithmetic and
boolean assertions: variables, numerals, the boolean constants, operator
applications, and the two-way conditional ``Case`` that the witness
search builds for conditional steps.  Nothing binds a variable, so
substituting for free names can never capture.

Numerals are ``Num`` nodes; the embedding orders them by value, as it
would order unary successor chains.

Besides the nodes, this module holds what every other module shares
about them: building and splitting conjunctions (``conjoin`` and
``top_conjuncts``), the structural traversals, sorts, and the variable
analyses of statements, which fold over one scoped walk.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


class SortError(Exception):
    """An expression is not well-sorted over {nat, bool}."""


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Num(Expr):
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
            raise ValueError(f"numerals are naturals, got {self.value!r}")


@dataclass(frozen=True)
class Ctor(Expr):
    """A boolean constant."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in ("True", "False"):
            raise ValueError(f"unknown constructor {self.name!r}")


NAT_OPS = ("+", "-", "*", "/", "%", "^")
REL_OPS = ("<", ">", "≤", "≥", "=", "≠")
BOOL_BINOPS = ("∧", "∨", "⇒")
ALL_OPS = NAT_OPS + REL_OPS + BOOL_BINOPS + ("¬",)


@dataclass(frozen=True)
class Op(Expr):
    op: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        arity = 1 if self.op == "¬" else 2
        if len(self.args) != arity:
            raise ValueError(f"{self.op} takes {arity} args, got {len(self.args)}")


@dataclass(frozen=True)
class Case(Expr):
    """The conditional expression: `then` where `cond` holds, else `other`."""

    cond: Expr
    then: Expr
    other: Expr


TRUE = Ctor("True")
FALSE = Ctor("False")


def conjoin(conjuncts: list[Expr]) -> Expr:
    """Right-nested conjunction of a list; [] is True and [e] is e."""
    if not conjuncts:
        return TRUE
    out = conjuncts[-1]
    for c in reversed(conjuncts[:-1]):
        out = Op("∧", (c, out))
    return out


def top_conjuncts(p: Expr) -> list[Expr]:
    """Flatten the top-level ∧-structure into a list: the inverse of `conjoin`.

    Implications are atomic (never split); any non-conjunction, True
    included, yields a singleton list.
    """
    match p:
        case Op("∧", (a, b)):
            return top_conjuncts(a) + top_conjuncts(b)
        case _:
            return [p]


# ---------------------------------------------------------------------------
# Traversals

Subst = dict[str, Expr]


def view(e: Expr) -> tuple[tuple, tuple[Expr, ...]]:
    """Decompose into (head key, children): the functor view that every
    structural traversal shares.  A numeral is an atomic head (the
    embedding orders numerals by value); Var has no view (each traversal
    handles variables itself)."""
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


def rebuild(e: Expr, args: tuple[Expr, ...]) -> Expr:
    """Put new children into e's shape (same head as e)."""
    match e:
        case Op(op, _):
            return Op(op, args)
        case Case():
            return Case(*args)
        case _:
            return e  # leaves: Num, Ctor, Var


def substitute(e: Expr, theta: Subst) -> Expr:
    """Simultaneously replace free named variables per theta.

    Simultaneous means a binding's result is never re-substituted.
    """
    if not theta:
        return e
    if isinstance(e, Var):
        return theta.get(e.name, e)
    return rebuild(e, tuple(substitute(a, theta) for a in view(e)[1]))


def free_vars(e: Expr) -> frozenset[str]:
    """The variables of `e`: worked out on first use and kept in the
    node's instance dict, which dataclass ``==``, ``hash`` and ``repr``
    ignore (as the evaluator keeps a node's closure)."""
    names = e.__dict__.get("_free")
    if names is None:
        if isinstance(e, Var):
            names = frozenset((e.name,))
        else:
            names = frozenset().union(*map(free_vars, view(e)[1]))
        object.__setattr__(e, "_free", names)  # frozen fields, writable instance dict
    return names


def renaming_of(e1: Expr, e2: Expr, renameable: frozenset[str] | set[str]) -> dict[str, str] | None:
    """If e1 equals e2 with some bijective renaming of `renameable` names,
    return that renaming as a map from e2's names to e1's; otherwise None.

    Names outside `renameable` are rigid and must match exactly; a
    renameable name never maps to a rigid one or vice versa.
    """
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def walk(a: Expr, b: Expr) -> bool:
        match (a, b):
            case (Var(x), Var(y)):
                x_ren, y_ren = x in renameable, y in renameable
                if not x_ren and not y_ren:
                    return x == y
                if x_ren and y_ren:
                    if y in mapping:
                        return mapping[y] == x
                    if x in used:
                        return False  # injectivity
                    mapping[y] = x
                    used.add(x)
                    return True
                return False
            case (Var(), _) | (_, Var()):
                return False
        ka, a_args = view(a)
        kb, b_args = view(b)
        return ka == kb and len(a_args) == len(b_args) and all(walk(s, t) for s, t in zip(a_args, b_args))

    return mapping if walk(e1, e2) else None


# ---------------------------------------------------------------------------
# Sorts

NAT, BOOL = "nat", "bool"


def sort_of(e: Expr) -> str:
    """Infer the sort (nat or bool) of a first-order expression.

    Program variables are nat-sorted; operators have fixed signatures.
    Raises SortError for ill-sorted terms.
    """
    match e:
        case Var(_) | Num(_):
            return NAT
        case Ctor():
            return BOOL
        case Op("¬", (a,)):
            if sort_of(a) != BOOL:
                raise SortError("¬ applied to a natural")
            return BOOL
        case Op(op, (a, b)) if op in NAT_OPS or op in REL_OPS:
            if sort_of(a) != NAT or sort_of(b) != NAT:
                raise SortError(f"{op} needs natural operands")
            return NAT if op in NAT_OPS else BOOL
        case Op(op, (a, b)) if op in BOOL_BINOPS:
            if sort_of(a) != BOOL or sort_of(b) != BOOL:
                raise SortError(f"{op} needs boolean operands")
            return BOOL
        case Case(cond, then, other):
            if sort_of(cond) != BOOL:
                raise SortError("case condition must be boolean")
            sort = sort_of(then)
            if sort_of(other) != sort:
                raise SortError("case branches disagree on sort")
            return sort
        case _:
            raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Stmt:
    """Base class for statement nodes."""


@dataclass(frozen=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    rhs: Expr


@dataclass(frozen=True)
class Seq(Stmt):
    first: Stmt
    second: Stmt


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt


@dataclass(frozen=True)
class Block(Stmt):
    locals: tuple[str, ...]
    body: Stmt


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Stmt
    invariant: Expr | None = None
    # A postcondition asserted immediately after the loop in the source
    # (`WHILE b DO s {q}`); engines use it to summarise inner loops.
    post: Expr | None = None
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Triple:
    pre: Expr
    program: Stmt
    post: Expr


# The variable analyses below are folds over one scoped walk, `scopes`, the
# one place that decides that a block hides its locals.  The other statement
# walks are the semantics (`evaluator._run`, `wlp._wlp`), discovery's rebuild
# (`engine.annotate_program`), and control-flow analyses that a pre-order fold
# cannot express (`solver.input_vars`, `wlp.first_loops`, `solver._top_branch`).


def scopes(st: Stmt, hidden: frozenset[str] = frozenset()) -> Iterator[tuple[Stmt, frozenset[str]]]:
    """`st` and every statement nested in it in pre-order (a statement before
    its parts, parts in source order), each with the block locals in scope
    around it: `hidden` and those of the blocks in `st` that enclose it."""
    yield st, hidden
    match st:
        case Seq(a, b) | If(_, a, b):
            yield from scopes(a, hidden)
            yield from scopes(b, hidden)
        case Block(locs, body):
            yield from scopes(body, hidden | frozenset(locs))
        case While(_, body):
            yield from scopes(body, hidden)


def _own_vars(st: Stmt) -> frozenset[str]:
    """The variables `st` mentions itself, not in its parts: an assignment's
    target and right-hand side, a branch's or loop's condition (not its annotations)."""
    match st:
        case Assign(var, rhs):
            return free_vars(rhs) | {var}
        case If(cond, _, _) | While(cond, _):
            return free_vars(cond)
    return frozenset()


def substatements(st: Stmt) -> Iterator[Stmt]:
    """`st` and every statement nested in it, in pre-order."""
    return (s for s, _ in scopes(st))


def assigned_vars(st: Stmt) -> frozenset[str]:
    """Variables a statement can observably assign (block locals excluded,
    since they are restored on block exit)."""
    return frozenset(s.var for s, hidden in scopes(st) if isinstance(s, Assign) and s.var not in hidden)


def program_vars(t: Triple) -> frozenset[str]:
    """Every variable the triple's executable parts or contracts mention,
    block locals included (loop annotations excluded)."""
    names = free_vars(t.pre) | free_vars(t.post)
    return names.union(*(_own_vars(s) | hidden for s, hidden in scopes(t.program)))


def global_vars(t: Triple) -> frozenset[str]:
    """The variables that a store holds before the program runs: those the
    contracts mention, and those the program mentions outside the blocks
    that declare them."""
    names = free_vars(t.pre) | free_vars(t.post)
    return names.union(*(_own_vars(s) - hidden for s, hidden in scopes(t.program)))
