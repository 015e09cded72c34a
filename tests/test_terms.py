"""Term and statement representation: substitution, free variables,
renamings, sorts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopinv.parser import parse_program
from loopinv.terms import (
    FALSE,
    TRUE,
    Assign,
    Block,
    Case,
    Ctor,
    If,
    Num,
    Op,
    Seq,
    Skip,
    SortError,
    Triple,
    Var,
    While,
    assigned_vars,
    conjoin,
    free_vars,
    global_vars,
    program_vars,
    rebuild,
    renaming_of,
    scopes,
    sort_of,
    substatements,
    substitute,
    view,
)


def v(name):
    return Var(name)


def plus(a, b):
    return Op("+", (a, b))


def eq(a, b):
    return Op("=", (a, b))


# --- construction guards ---------------------------------------------------


def test_num_rejects_negative_and_bool():
    with pytest.raises(ValueError):
        Num(-1)
    with pytest.raises(ValueError):
        Num(True)


def test_op_arity_checked():
    with pytest.raises(ValueError):
        Op("+", (Num(1),))
    with pytest.raises(ValueError):
        Op("¬", (Num(1), Num(2)))
    with pytest.raises(ValueError):
        Op("??", (Num(1), Num(2)))


def test_ctor_names_checked():
    assert Ctor("True") == TRUE
    with pytest.raises(ValueError):
        Ctor("Cons")
    with pytest.raises(ValueError):
        Ctor("Succ")


# --- substitution ----------------------------------------------------------


def test_substitute_simultaneous():
    # {x:=y, y:=x} swaps rather than chains.
    e = plus(v("x"), v("y"))
    out = substitute(e, {"x": v("y"), "y": v("x")})
    assert out == plus(v("y"), v("x"))


def test_substitute_no_capture_needed_for_first_order_terms():
    e = eq(v("x"), Num(0))
    assert substitute(e, {}) == e
    assert substitute(e, {"z": Num(1)}) == e


def test_free_vars():
    e = Op("∧", (eq(v("x"), Num(0)), eq(v("y"), v("x"))))
    assert free_vars(e) == {"x", "y"}


def test_conjoin_right_nested():
    a, b, c = (eq(v(n), Num(0)) for n in "abc")
    assert conjoin([a, b, c]) == Op("∧", (a, Op("∧", (b, c))))
    assert conjoin([a]) == a
    assert conjoin([]) == TRUE


# --- renamings -------------------------------------------------------------


def test_renaming_of_maps_renameable_vars():
    e1 = plus(v("x"), v("g3"))
    e2 = plus(v("x"), v("g1"))
    assert renaming_of(e1, e2, {"g1", "g3"}) == {"g1": "g3"}


def test_renaming_of_is_bijective():
    e1 = plus(v("g1"), v("g1"))
    e2 = plus(v("g2"), v("g3"))
    assert renaming_of(e1, e2, {"g1", "g2", "g3"}) is None


def test_renaming_of_rigid_vars_must_match_exactly():
    assert renaming_of(v("x"), v("y"), {"g1"}) is None
    assert renaming_of(v("x"), v("x"), set()) == {}


def test_renaming_never_crosses_rigid_boundary():
    # A renameable variable may not map to a rigid one or vice versa.
    assert renaming_of(v("g1"), v("x"), {"g1"}) is None
    assert renaming_of(v("x"), v("g1"), {"g1"}) is None


def test_renaming_of_identity_on_equal_terms():
    e = Op("∧", (eq(plus(v("x"), v("g1")), v("n")), TRUE))
    assert renaming_of(e, e, {"g1"}) == {"g1": "g1"}


# --- sorts -----------------------------------------------------------------


def test_sort_of_arithmetic_and_boolean():
    assert sort_of(plus(v("x"), Num(1))) == "nat"
    assert sort_of(eq(v("x"), Num(1))) == "bool"
    assert sort_of(Op("∧", (TRUE, FALSE))) == "bool"


def test_sort_errors():
    with pytest.raises(SortError):
        sort_of(plus(TRUE, Num(1)))
    with pytest.raises(SortError):
        sort_of(Op("∧", (Num(1), TRUE)))
    with pytest.raises(SortError):
        sort_of(Op("¬", (Num(3),)))


def test_case_sort_checks_scrutinee_and_branches():
    good = Case(eq(v("x"), Num(0)), Num(1), Num(2))
    assert sort_of(good) == "nat"
    with pytest.raises(SortError):
        sort_of(Case(Num(3), Num(1), Num(2)))


# --- statements ------------------------------------------------------------


def test_assigned_vars_excludes_block_locals():
    body = Block(("t",), Seq(Assign("t", Num(0)), Assign("x", v("t"))))
    assert assigned_vars(body) == {"x"}


def test_program_vars_covers_all_parts():
    t = Triple(
        eq(v("n"), v("n")),
        Seq(Assign("x", Num(0)), While(Op("<", (v("x"), v("n"))), Assign("x", plus(v("x"), Num(1))))),
        eq(v("x"), v("n")),
    )
    assert program_vars(t) == {"n", "x"}


def test_global_vars_leave_out_names_only_a_block_declares():
    body_local = parse_program(
        "{n >= 0} WHILE x < n DO BEGIN VAR t; t := x + 1; x := t END {x = n}"
    )
    assert global_vars(body_local) == {"n", "x"}
    assert program_vars(body_local) == {"n", "t", "x"}
    shadowing = parse_program("{n >= 0} t := 9; BEGIN VAR t, u; u := t END; y := t {n >= 0}")
    assert global_vars(shadowing) == {"n", "t", "y"}


def test_scopes_pair_each_statement_with_the_block_locals_around_it():
    t = parse_program("{n >= 0} t := 9; BEGIN VAR t, u; u := t END; y := t {n >= 0}")
    assigns = [(s.var, hidden) for s, hidden in scopes(t.program) if isinstance(s, Assign)]
    assert assigns == [("t", set()), ("u", {"t", "u"}), ("y", set())]


def test_while_line_does_not_affect_equality():
    a = While(TRUE, Skip(), line=3)
    b = While(TRUE, Skip(), line=7)
    assert a == b


# --- properties ------------------------------------------------------------


_names = st.sampled_from(["x", "y", "z", "g1"])


def exprs(depth=3):
    base = st.one_of(_names.map(Var), st.integers(0, 9).map(Num))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["+", "*", "-"]), kids, kids).map(
                lambda t: Op(t[0], (t[1], t[2]))
            ),
        ),
        max_leaves=2**depth,
    )


@given(exprs())
def test_substitute_identity(e):
    assert substitute(e, {n: Var(n) for n in free_vars(e)}) == e


def _ref_free_vars(e):
    return {e.name} if isinstance(e, Var) else set().union(*map(_ref_free_vars, view(e)[1]))


def _fresh(e):
    """A copy of `e` built anew, node by node."""
    match e:
        case Var(name):
            return Var(name)
        case Num(value):
            return Num(value)
    return rebuild(e, tuple(map(_fresh, view(e)[1])))


@given(exprs(), st.dictionaries(_names, exprs(1), max_size=2))
def test_free_vars_are_kept_on_the_node(e, theta):
    twin = _fresh(e)
    names = free_vars(e)
    assert names == _ref_free_vars(e) and free_vars(e) is names
    assert "_free" in vars(e) and "_free" not in vars(twin)
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin)
    # Nodes built from kept ones carry no set of their own yet.
    out = substitute(e, theta)
    assert free_vars(out) == _ref_free_vars(out)
    if isinstance(e, Op):
        first = Var("w")
        assert free_vars(rebuild(e, (first, *e.args[1:]))) == {"w"} | _ref_free_vars(e.args[1])


@given(exprs())
def test_renaming_of_self_is_identity_map(e):
    r = renaming_of(e, e, {"g1"})
    assert r is not None and all(k == val for k, val in r.items())


# Statements over few names, so that blocks often shadow an outer name and
# nest inside loops and branches; loop annotations are drawn too, since
# no variable analysis may read them.
def stmts():
    conds = st.tuples(exprs(2), exprs(2)).map(lambda t: Op("<", t))
    base = st.one_of(st.just(Skip()), st.tuples(_names, exprs(2)).map(lambda t: Assign(*t)))
    annotation = st.none() | conds
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda t: Seq(*t)),
            st.tuples(conds, kids, kids).map(lambda t: If(*t)),
            st.tuples(conds, kids, annotation, annotation).map(lambda t: While(*t)),
            st.tuples(st.lists(_names, unique=True, max_size=2).map(tuple), kids).map(lambda t: Block(*t)),
        ),
        max_leaves=12,
    )


# The separate recursions that each analysis had before they became folds
# over one scoped walk, kept as the reference the folds must agree with.


def _ref_assigned_vars(s):
    match s:
        case Skip():
            return frozenset()
        case Assign(var, _):
            return frozenset((var,))
        case Seq(a, b):
            return _ref_assigned_vars(a) | _ref_assigned_vars(b)
        case If(_, t, e):
            return _ref_assigned_vars(t) | _ref_assigned_vars(e)
        case Block(locs, body):
            return _ref_assigned_vars(body) - frozenset(locs)
        case While(_, body):
            return _ref_assigned_vars(body)


def _ref_substatements(s):
    yield s
    match s:
        case Seq(a, b) | If(_, a, b):
            yield from _ref_substatements(a)
            yield from _ref_substatements(b)
        case Block(_, body) | While(_, body):
            yield from _ref_substatements(body)


def _ref_program_vars(t):
    names = set(free_vars(t.pre) | free_vars(t.post))
    for s in _ref_substatements(t.program):
        match s:
            case Assign(var, rhs):
                names |= {var} | free_vars(rhs)
            case If(cond, _, _) | While(cond, _):
                names |= free_vars(cond)
            case Block(locs, _):
                names.update(locs)
    return frozenset(names)


def _ref_global_vars(t):
    def outer(s):
        match s:
            case Assign(var, rhs):
                return free_vars(rhs) | {var}
            case Seq(a, b):
                return outer(a) | outer(b)
            case If(cond, a, b):
                return free_vars(cond) | outer(a) | outer(b)
            case While(cond, body):
                return free_vars(cond) | outer(body)
            case Block(locs, body):
                return outer(body) - set(locs)
            case _:
                return frozenset()

    return free_vars(t.pre) | free_vars(t.post) | outer(t.program)


@given(stmts(), exprs(2), exprs(2))
def test_statement_analyses_match_their_recursive_definitions(program, lhs, rhs):
    t = Triple(Op("≤", (lhs, rhs)), program, Op("=", (rhs, lhs)))
    assert [id(s) for s in substatements(program)] == [id(s) for s in _ref_substatements(program)]
    assert assigned_vars(program) == _ref_assigned_vars(program)
    assert program_vars(t) == _ref_program_vars(t)
    assert global_vars(t) == _ref_global_vars(t)
