"""Weakest liberal preconditions: the structural rows, the two loop
rules, and the verification conditions of annotated loops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from loopinv.evaluator import Finished, exec_stmt, holds, stores
from loopinv.parser import parse_expression, parse_program, pretty
from loopinv.terms import Op, Skip, While, free_vars, substatements, top_conjuncts
from loopinv.wlp import (
    LocalsInPostcondition,
    UnannotatedLoop,
    first_loops,
    wlp,
)


def e(text):
    return parse_expression(text)


def prog(src):
    return parse_program(src).program


def conditions(triple):
    """The global condition pre ⇒ wlp(program, post) and the loops'
    obligations, as verify checks them."""
    side = []
    pulled = wlp(triple.program, triple.post, side)
    return Op("⇒", (triple.pre, pulled)), side


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
    # Preservation and exit are obligations over every store, not
    # conjuncts evaluated where the loop starts.
    src = "{n >= 0} WHILE x < n DO {x <= n} x := x + 1 {x = n}"
    side = []
    assert wlp(prog(src), e("x = n"), side) == e("x <= n")
    preservation, exit_ = side
    assert preservation.formula == e("x < n /\\ x <= n => x + 1 <= n")
    assert exit_.formula == e("~(x < n) /\\ x <= n => x = n")


def test_invariant_rule_ignores_a_usable_summary():
    # A summary is the loop's claimed effect, not a checked one: with
    # obligations collected, the loop contributes its invariant.
    src = "{n >= 0} WHILE z < k DO {z <= k} z := z + 1 {z = k}"
    side = []
    assert wlp(prog(src), e("x = k"), side) == e("z <= k")
    assert [vc.kind for vc in side] == ["preservation", "exit"]
    assert side[1].formula == e("~(z < k) /\\ z <= k => x = k")


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
    out = wlp(loop, e("v = y ^ 2"))
    assert out == e("y * k = y ^ 2")


def test_substitute_mode_rejects_an_unusable_summary():
    # Post mentions z, which the body also assigns: the summary cannot
    # stand for the whole effect, and the invariant would drop the post.
    src = "{n >= 0} WHILE z < k DO {z <= k} z := z + 1 {z = k}"
    loop = prog(src)
    with pytest.raises(UnannotatedLoop):
        wlp(loop, e("z = k"))


def test_substitute_mode_without_any_annotation_fails():
    loop = While(e("z < k"), prog("{n >= 0} z := z + 1 {n >= 0}"))
    with pytest.raises(UnannotatedLoop):
        wlp(loop, e("z = k"))


def test_top_conjuncts_treats_implications_as_atomic():
    f = e("(a = 0 => b = 0) /\\ c = 0 /\\ d = 0")
    parts = top_conjuncts(f)
    assert len(parts) == 3
    assert parts[0] == e("a = 0 => b = 0")


def test_loop_obligations_preservation_and_exit():
    program = "x := 0; y := 1; WHILE x < n DO {x <= n /\\ y = k ^ x} BEGIN x := x + 1; y := y * k END"
    triple = parse_program("{n >= 0} " + program + " {y = k ^ n}")
    glob, (preservation, exit_) = conditions(triple)
    loop = triple.program.second.second
    assert glob == e("n >= 0 => 0 <= n /\\ 1 = k ^ 0")  # establishment
    assert first_loops(triple.program) == (loop,)
    assert preservation.loop is exit_.loop is loop
    assert (preservation.kind, exit_.kind) == ("preservation", "exit")
    assert pretty(preservation.formula) == "x<n ∧ (x≤n ∧ y=k^x) ⇒ x+1≤n ∧ y*k=k^(x+1)"
    assert preservation.establishes == (loop,)
    assert pretty(exit_.formula) == "¬(x<n) ∧ (x≤n ∧ y=k^x) ⇒ y=k^n"
    assert exit_.establishes == ()


def test_obligations_of_nested_loops_carry_the_enclosing_invariant():
    triple = parse_program(
        "{n >= 0} x := 0; WHILE x < n DO {x <= n} BEGIN y := 0; "
        "WHILE y < x DO {y <= x} y := y + 1; x := x + 1 END {x = n}"
    )
    outer = triple.program.second
    inner = outer.body.second.first
    _, (inner_kept, inner_exit, outer_kept, outer_exit) = conditions(triple)
    assert [(vc.loop, vc.kind) for vc in (inner_kept, inner_exit, outer_kept, outer_exit)] == [
        (inner, "preservation"),
        (inner, "exit"),
        (outer, "preservation"),
        (outer, "exit"),
    ]
    assert first_loops(triple.program) == (outer,)
    # The outer body runs y := 0, then the inner loop, whose exit carries
    # the outer invariant through x := x + 1.
    assert outer_kept.establishes == (inner,)
    assert inner_exit.formula == e("~(y < x) /\\ y <= x => x + 1 <= n")
    assert inner_exit.establishes == (outer,)
    assert outer_exit.establishes == ()


def test_loops_under_both_branches_are_carried_once():
    triple = parse_program(
        "{n >= 0} x := 0; IF n > 0 THEN x := 1 ELSE SKIP; "
        "WHILE x < n DO {x <= n} x := x + 1 {x = n}"
    )
    assert first_loops(triple.program) == (triple.program.second.second,)


# --- bounded soundness of the generator ---------------------------------------------

SHAPES = {
    "sequence": "x := 0; WHILE x < n DO {%s} x := x + 1; y := 0; WHILE y < %s DO {%s} y := y + 1",
    "nested": "x := 0; WHILE x < n DO {%s} BEGIN y := 0; WHILE y < %s DO {%s} y := y + 1; x := x + 1 END",
}
OUTER = ["x <= n", "x < n", "x = 0", "true"]
INNER = [
    "y <= x", "y <= n", "y <= x /\\ x <= n", "y <= x /\\ x = n", "y <= n /\\ x = n",
    "y <= n /\\ x < n", "y <= x /\\ x < n", "y <= n /\\ x <= n",
]
POSTS = ["x = n", "y = n", "y = x", "x = n /\\ y = n", "y <= n"]
BOUND = 4


def test_conditions_that_hold_up_to_the_bound_hold_on_every_run():
    # Only counters and copies: no value exceeds n, so the stores up to
    # the bound include every store that a run from a pre-store reaches.
    verified = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        hst.sampled_from(sorted(SHAPES)),
        hst.sampled_from(OUTER),
        hst.sampled_from(["x", "n"]),
        hst.sampled_from(INNER),
        hst.sampled_from(POSTS),
    )
    def check(shape, outer, limit, inner, post):
        triple = parse_program(f"{{n >= 0}} {SHAPES[shape] % (outer, limit, inner)} {{{post}}}")
        glob, side = conditions(triple)
        if not all(
            holds(formula, store)
            for formula in [glob, *(vc.formula for vc in side)]
            for store in stores(sorted(free_vars(formula)), BOUND)
        ):
            return
        verified.append(triple)
        loops = [st for st in substatements(triple.program) if isinstance(st, While)]
        for store in stores(["n", "x", "y"], BOUND):
            for loop in loops:
                outcome = exec_stmt(triple.program, store, fuel=1_000, watch=loop)
                assert isinstance(outcome, Finished)
                assert holds(triple.post, outcome.store)
                for visit in outcome.visits:
                    assert all(holds(loop.invariant, s) for s in visit), (pretty(loop.invariant), visit)

    check()
    # 34 of the 640 combinations verify, so 300 draws give about 16; the
    # draws follow the test's source, and 5 leaves room for any of them.
    assert len(verified) >= 5  # the implication was exercised, not vacuous
