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
    renaming_of,
    sort_of,
    substitute,
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


@given(exprs())
def test_renaming_of_self_is_identity_map(e):
    r = renaming_of(e, e, {"g1"})
    assert r is not None and all(k == val for k, val in r.items())
