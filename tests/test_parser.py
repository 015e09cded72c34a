"""Parsing, precedence, sort checking at parse time, and the
pretty-printer round trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopinv.parser import ParseError, parse_expression, parse_program, pretty
from loopinv.terms import (
    Assign,
    Block,
    If,
    Num,
    Op,
    Seq,
    Skip,
    Var,
    While,
    free_vars,
)


def p(text):
    return parse_expression(text)


# --- precedence and associativity ------------------------------------------


def test_mul_binds_tighter_than_add():
    assert p("a + b * c") == Op("+", (Var("a"), Op("*", (Var("b"), Var("c")))))


def test_pow_binds_tighter_than_mul():
    assert p("a * b ^ c") == Op("*", (Var("a"), Op("^", (Var("b"), Var("c")))))


def test_left_associative_arithmetic():
    assert p("a - b - c") == Op("-", (Op("-", (Var("a"), Var("b"))), Var("c")))


def test_implication_right_associative():
    e = p("a = 0 => b = 0 => c = 0")
    assert e.op == "⇒" and e.args[1].op == "⇒"


def test_and_binds_tighter_than_or():
    e = p("a = 0 \\/ b = 0 /\\ c = 0")
    assert e.op == "∨" and e.args[1].op == "∧"


def test_not_binds_tightest():
    # ¬ grabs the atom, so negating a relation needs parentheses.
    e = p("~ a = 0")
    assert e.op == "=" and e.args[0].op == "¬"
    e = p("~(a = 0) /\\ b = 0")
    assert e.op == "∧" and e.args[0].op == "¬"


def test_relations_do_not_chain():
    with pytest.raises(ParseError):
        p("a < b < c")


def test_ascii_and_unicode_spellings_agree():
    assert p("x <= y") == p("x ≤ y")
    assert p("x != y") == p("x ≠ y")
    assert p("a = 0 /\\ b = 0") == p("a = 0 ∧ b = 0")
    assert p("a = 0 => b = 0") == p("a = 0 ⇒ b = 0")


def test_keywords_case_insensitive():
    prog = parse_program("{n >= 0} skip {n >= 0}")
    assert prog.program == Skip()
    prog = parse_program("{n >= 0} SKIP {n >= 0}")
    assert prog.program == Skip()


def test_identifiers_must_be_lowercase():
    with pytest.raises(ParseError):
        p("X + 1")


def test_comments_ignored():
    prog = parse_program("-- a comment\n{n >= 0} skip -- trailing\n{n >= 0}")
    assert prog.program == Skip()


# --- sort checking at parse time -------------------------------------------


def test_assertions_must_be_boolean():
    with pytest.raises(ParseError):
        parse_program("{n + 1} skip {n >= 0}")


def test_assignment_rhs_must_be_natural():
    with pytest.raises(ParseError):
        parse_program("{n >= 0} x := n >= 0 {n >= 0}")


def test_if_condition_must_be_boolean():
    with pytest.raises(ParseError):
        parse_program("{n >= 0} IF n THEN skip ELSE skip {n >= 0}")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_program("{n >= 0}\nx := ;\n{n >= 0}")
    assert "2:" in str(err.value)


# --- statements ------------------------------------------------------------


def test_seq_folds_right():
    prog = parse_program("{n >= 0} x := 1; y := 2; z := 3 {n >= 0}")
    assert prog.program == Seq(Assign("x", Num(1)), Seq(Assign("y", Num(2)), Assign("z", Num(3))))


def test_if_without_else_sugars_to_skip():
    prog = parse_program("{n >= 0} IF n = 0 THEN x := 1 {n >= 0}")
    assert prog.program == If(Op("=", (Var("n"), Num(0))), Assign("x", Num(1)), Skip())


def test_plain_begin_end_is_grouping():
    prog = parse_program("{n >= 0} BEGIN x := 1; y := 2 END {n >= 0}")
    assert prog.program == Seq(Assign("x", Num(1)), Assign("y", Num(2)))


def test_begin_var_introduces_block():
    prog = parse_program("{n >= 0} BEGIN VAR t; t := 1; x := t END {n >= 0}")
    assert isinstance(prog.program, Block)
    assert prog.program.locals == ("t",)


def test_while_optional_invariant_annotation():
    src = "{n >= 0} WHILE x < n DO {x <= n} x := x + 1 {x = n}"
    prog = parse_program(src)
    loop = prog.program
    assert isinstance(loop, While)
    assert loop.invariant == Op("≤", (Var("x"), Var("n")))
    assert prog.post == Op("=", (Var("x"), Var("n")))


def test_inner_loop_post_annotation_absorbed():
    src = """{n >= 0}
WHILE x < n DO
BEGIN
  WHILE z < k DO z := z + 1 {z = k};
  x := x + 1
END
{x = n}"""
    prog = parse_program(src)
    outer = prog.program
    inner = outer.body.first
    assert isinstance(inner, While)
    assert inner.post == Op("=", (Var("z"), Var("k")))
    assert prog.post == Op("=", (Var("x"), Var("n")))


def test_while_records_line_number():
    src = "{n >= 0}\nx := 0;\nWHILE x < n DO x := x + 1\n{x = n}"
    prog = parse_program(src)
    assert prog.program.second.line == 3


# --- pretty-printing -------------------------------------------------------


def test_pretty_minimal_parens():
    assert pretty(p("a + b * c")) == "a+b*c"
    assert pretty(p("(a + b) * c")) == "(a+b)*c"
    assert pretty(p("a - (b - c)")) == "a-(b-c)"
    assert pretty(p("a = 0 /\\ (b = 0 \\/ c = 0)")) == "a=0 ∧ (b=0 ∨ c=0)"


def test_pretty_spaces_boolean_not_arithmetic():
    assert pretty(p("x + 1 = n /\\ y * k = k ^ n")) == "x+1=n ∧ y*k=k^n"


def test_pretty_conditional_expression():
    from loopinv.terms import Case

    c = Case(p("x % 2 = 1"), Var("a"), Var("b"))
    assert pretty(c) == "if x%2=1 then a else b"


_names = st.sampled_from(["x", "y", "z", "n", "k"])


def exprs():
    nat = st.recursive(
        st.one_of(_names.map(Var), st.integers(0, 20).map(Num)),
        lambda kids: st.tuples(st.sampled_from(["+", "-", "*", "/", "%", "^"]), kids, kids).map(
            lambda t: Op(t[0], (t[1], t[2]))
        ),
        max_leaves=16,
    )
    rel = st.tuples(st.sampled_from(["<", ">", "≤", "≥", "=", "≠"]), nat, nat).map(
        lambda t: Op(t[0], (t[1], t[2]))
    )
    return st.recursive(
        rel,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["∧", "∨", "⇒"]), kids, kids).map(
                lambda t: Op(t[0], (t[1], t[2]))
            ),
            kids.map(lambda e: Op("¬", (e,))),
        ),
        max_leaves=8,
    )


@given(exprs())
def test_pretty_parse_round_trip(e):
    assert parse_expression(pretty(e)) == e


@given(exprs())
def test_round_trip_preserves_free_vars(e):
    assert free_vars(parse_expression(pretty(e))) == free_vars(e)
