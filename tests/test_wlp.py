"""Weakest liberal preconditions: the structural rows, the two loop
modes, and verification-condition sets."""

import pytest

from loopinv.parser import parse_expression, parse_program, pretty
from loopinv.terms import Op, Skip, Var, While
from loopinv.wlp import (
    LocalsInPostcondition,
    UnannotatedLoop,
    top_conjuncts,
    vcs_for_loop,
    wlp,
)


def e(text):
    return parse_expression(text)


def prog(src):
    return parse_program(src).program


def test_skip_returns_post_unchanged():
    assert wlp(Skip(), e("x = 1")) == e("x = 1")


def test_assignment_substitutes():
    st = prog("{n >= 0} x := x + 1 {n >= 0}")
    assert wlp(st, e("x = n")) == e("x + 1 = n")


def test_assignment_does_no_simplification():
    st = prog("{n >= 0} x := 0 {n >= 0}")
    # 0 = 0 stays as written; simplification is a separate pass.
    assert wlp(st, e("x = 0")) == e("0 = 0")


def test_seq_composes_right_to_left():
    st = prog("{n >= 0} x := y; y := 0 {n >= 0}")
    assert wlp(st, e("x = y")) == e("y = 0")


def test_if_splits_into_guarded_implications():
    st = prog("{n >= 0} IF x = 0 THEN y := 1 ELSE y := 2 {n >= 0}")
    out = wlp(st, e("y = 1"))
    assert out == e("(x = 0 => 1 = 1) /\\ (~(x = 0) => 2 = 1)")


def test_block_hides_locals():
    st = prog("{n >= 0} BEGIN VAR t; t := 1; x := t END {n >= 0}")
    assert wlp(st, e("x = 1")) == e("1 = 1")


def test_block_rejects_post_mentioning_local():
    st = prog("{n >= 0} BEGIN VAR t; t := 1; x := t END {n >= 0}")
    with pytest.raises(LocalsInPostcondition):
        wlp(st, e("t = 1"))


def test_unannotated_loop_rejected():
    st = prog("{n >= 0} WHILE x < n DO x := x + 1 {n >= 0}")
    with pytest.raises(UnannotatedLoop):
        wlp(st, e("x = n"))


def test_invariant_mode_builds_classical_condition():
    src = "{n >= 0} WHILE x < n DO {x <= n} x := x + 1 {x = n}"
    st = prog(src)
    out = wlp(st, e("x = n"), "invariant")
    inv, guard, exitc = top_conjuncts(out)
    assert inv == e("x <= n")
    assert guard == e("x < n /\\ x <= n => x + 1 <= n")
    assert exitc == e("~(x < n) /\\ x <= n => x = n")


def test_substitute_mode_uses_summary_equation():
    # The trailing assertion is absorbed as the loop's own summary
    # because another statement follows it.
    src = """{n >= 0}
WHILE z < k DO
BEGIN
  z := z + 1;
  v := v + y
END
{v = y * k};
x := 0
{n >= 0}"""
    loop = prog(src).first
    assert isinstance(loop, While) and loop.post is not None
    out = wlp(loop, e("v = y ^ 2"), "substitute")
    assert out == e("y * k = y ^ 2")


def test_substitute_mode_falls_back_when_summary_unusable():
    # Post mentions z, which the body also assigns: the summary cannot
    # stand for the whole effect, so the classical row applies.
    src = "{n >= 0} WHILE z < k DO {z <= k} z := z + 1 {z = k}"
    loop = prog(src)
    out = wlp(loop, e("z = k"), "substitute")
    assert len(top_conjuncts(out)) == 3


def test_substitute_mode_without_any_annotation_fails():
    loop = While(e("z < k"), prog("{n >= 0} z := z + 1 {n >= 0}"))
    with pytest.raises(UnannotatedLoop):
        wlp(loop, e("z = k"), "substitute")


def test_top_conjuncts_treats_implications_as_atomic():
    f = e("(a = 0 => b = 0) /\\ c = 0 /\\ d = 0")
    parts = top_conjuncts(f)
    assert len(parts) == 3
    assert parts[0] == e("a = 0 => b = 0")


def test_vcs_for_loop_three_conditions():
    loop = prog("{n >= 0} WHILE x < n DO {x <= n /\\ y = k ^ x} BEGIN x := x + 1; y := y * k END {y = k ^ n}")
    prefix = prog("{n >= 0} x := 0; y := 1 {n >= 0}")
    vcs = vcs_for_loop(e("n >= 0"), prefix, loop, e("y = k ^ n"))
    assert vcs.establishment == e("n >= 0 => 0 <= n /\\ 1 = k ^ 0")
    assert vcs_for_loop(e("n >= 0"), Skip(), loop, e("y = k ^ n")).establishment == Op(
        "⇒", (e("n >= 0"), loop.invariant)
    )
    assert pretty(vcs.preservation) == "x<n ∧ (x≤n ∧ y=k^x) ⇒ x+1≤n ∧ y*k=k^(x+1)"
    assert pretty(vcs.sufficiency) == "¬(x<n) ∧ (x≤n ∧ y=k^x) ⇒ y=k^n"

