"""The derivation engine: iterate the postcondition backward through the
loop body, generalise on growth, stop at a renaming.

The golden traces below freeze the exact approximation sequences for
the bundled exponentiation programs.
"""

import pytest

from loopinv.engine import EngineConfig, EngineFailure, annotate_program, find_invariant
from loopinv.parser import parse_program, pretty
from loopinv.simplifier import SimpConfig
from loopinv.terms import While


def discover(src, **cfg_kw):
    triple = parse_program(src)
    cfg = EngineConfig(**cfg_kw) if cfg_kw else None
    return annotate_program(triple, cfg)


def trace_lines(d):
    return [(s.kind, pretty(s.formula)) for s in d.trace.steps]


EXP_SIMPLE = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  x := x + 1;
  y := y * k
END
{y = k ^ n}"""


def test_simple_exponentiation_golden_trace():
    _, ds = discover(EXP_SIMPLE)
    assert len(ds) == 1
    d = ds[0]
    assert trace_lines(d) == [
        ("Init", "x≥n ∧ y=k^n"),
        ("WLPStep", "x+1=n ∧ y*k=k^n"),
        ("WLPStep", "x+(1+1)=n ∧ y*(k*k)=k^n"),
        ("GeneraliseStep", "x+g1=n ∧ y*g2=k^n"),
        ("WLPStep", "x+(1+g1)=n ∧ y*(k*g2)=k^n"),
        ("GeneraliseStep", "x+g3=n ∧ y*g4=k^n"),
        ("RenamingFound", "x+g3=n ∧ y*g4=k^n"),
    ]
    assert pretty(d.putative) == "x+g3=n ∧ y*g4=k^n"
    assert d.genvars == ("g3", "g4")
    assert d.failure is None
    assert d.node.invariant == d.putative


EXP_BINARY = """{n >= 0}
x := n;
y := 1;
z := k;
WHILE x > 0 DO
BEGIN
  IF x % 2 = 1 THEN y := y * z;
  z := z * z;
  x := x / 2
END
{y = k ^ n}"""


def test_binary_exponentiation_golden_trace():
    _, ds = discover(EXP_BINARY)
    d = ds[0]
    assert trace_lines(d) == [
        ("Init", "x≤0 ∧ y=k^n"),
        ("WLPStep", "x=1 ∧ y*z=k^n"),
        ("WLPStep", "x=g1 ∧ y*(z*g2)=k^n"),
        ("WLPStep", "x=g3 ∧ y*(z*(z*g4))=k^n"),
        ("GeneraliseStep", "x=g5 ∧ y*(z*g6)=k^n"),
        ("RenamingFound", "x=g5 ∧ y*(z*g6)=k^n"),
    ]
    # The even branch refutes against the guard on the first pull-back.
    assert "collapsed to True: 1" in d.trace.steps[1].note
    assert d.genvars == ("g5", "g6")


EXP_NESTED = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  z := 0;
  v := 0;
  WHILE z < k DO
  BEGIN
    z := z + 1;
    v := v + y
  END
  {v = y * k};
  x := x + 1;
  y := v
END
{y = k ^ n}"""


def test_loops_on_one_line_are_listed_in_source_order():
    src = (
        "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x = n}; "
        "y := 0; WHILE y < x DO y := y + 1 {y = n}"
    )
    _, ds = discover(src)
    assert [d.line for d in ds] == [1, 1]
    assert [pretty(d.node.cond) for d in ds] == ["x<n", "y<x"]


def test_nested_loops_inner_trace_and_outer_reuse():
    _, ds = discover(EXP_NESTED)
    assert [d.line for d in ds] == [4, 8]
    outer, inner = ds
    assert trace_lines(inner) == [
        ("Init", "z≥k ∧ v=y*k"),
        ("WLPStep", "z+1=k ∧ v+y=y*k"),
        ("WLPStep", "z+(1+1)=k ∧ v+(y+y)=y*k"),
        ("GeneraliseStep", "z+g1=k ∧ v+g2=y*k"),
        ("WLPStep", "z+(1+g1)=k ∧ v+(y+g2)=y*k"),
        ("GeneraliseStep", "z+g3=k ∧ v+g4=y*k"),
        ("RenamingFound", "z+g3=k ∧ v+g4=y*k"),
    ]
    assert inner.genvars == ("g3", "g4")
    # The outer loop pulls through the inner summary and replays the
    # plain-exponentiation derivation with its own fresh variables.
    assert pretty(outer.putative) == "x+g7=n ∧ y*g8=k^n"
    assert outer.genvars == ("g7", "g8")


EXP_SWAPPED = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  x := x + 1;
  y := k * y
END
{y = k ^ n}"""


def test_swapped_operand_loses_the_accumulator():
    _, ds = discover(EXP_SWAPPED)
    d = ds[0]
    assert pretty(d.putative) == "x+g3=n ∧ k*g2=k^n"
    assert d.genvars == ("g2", "g3")
    assert "y" not in pretty(d.putative)


# --- engine failure modes -------------------------------------------------


def test_iteration_budget_raises_with_trace():
    triple = parse_program(EXP_SIMPLE)
    loop = triple.program.second.second
    assert isinstance(loop, While)
    with pytest.raises(EngineFailure) as err:
        find_invariant(loop, triple.post, EngineConfig(max_iterations=2))
    assert err.value.kind == "IterationBudget"
    assert err.value.trace is not None
    assert err.value.trace.steps[-1].kind == "Budget"


def test_annotate_records_budget_failure_instead_of_raising():
    _, ds = discover(EXP_SIMPLE, max_iterations=2)
    d = ds[0]
    assert d.failure is not None and d.failure.kind == "IterationBudget"
    assert d.putative is None


def test_all_branches_true_failure():
    src = "{n >= 0} WHILE x > 0 DO x := 0 {x = 0}"
    _, ds = discover(src)
    assert ds[0].failure is not None
    assert ds[0].failure.kind == "AllBranchesTrue"


def test_generalisation_fixed_point_detected():
    # The body jumps by two, so no exact renaming of an earlier
    # approximation ever appears; the engine must notice that
    # generalising stopped changing the formula.
    src = "{n >= 0} WHILE x < n DO x := x + 2 {x = n}"
    _, ds = discover(src)
    d = ds[0]
    assert d.failure is None
    assert d.trace.steps[-1].kind == "RenamingFound"
    assert d.trace.steps[-1].note == "generalisation reached a fixed point"
    assert pretty(d.putative) == "g1≥n ∧ g1=n"


def test_inner_loop_without_annotation_reports_missing_post():
    src = """{n >= 0}
WHILE x < n DO
BEGIN
  WHILE z < k DO z := z + 1;
  x := x + 1
END
{x = n}"""
    _, ds = discover(src)
    inner = [d for d in ds if d.line == 4][0]
    assert inner.failure is not None
    assert inner.failure.kind == "MissingPostcondition"


def test_rule_toggles_change_the_derivation():
    # Without bound tightening the first pull-back keeps x+1 >= n, so the
    # golden sequence cannot appear.
    _, ds = discover(EXP_SIMPLE, simp=SimpConfig(disabled_rules=frozenset({"R3"})))
    d = ds[0]
    formulas = [pretty(s.formula) for s in d.trace.steps]
    assert "x+1=n ∧ y*k=k^n" not in formulas
    # Without the literal relations of R6, the body's `y := 0` leaves 0=0
    # in every approximation, and the invariant keeps it.
    reset = "{n >= 0} x := 0; y := 0; WHILE x < n DO BEGIN y := 0; x := x + 1 END {x = n /\\ y = 0}"
    _, ds = discover(reset, simp=SimpConfig(disabled_rules=frozenset({"R6"})))
    assert all(pretty(s.formula).endswith(" ∧ 0=0") for s in ds[0].trace.steps[1:])
    assert pretty(ds[0].putative) == "x+g2=n ∧ 0=0"
    assert pretty(discover(reset)[1][0].putative) == "x+g2=n"


def test_annotated_node_identity_preserved():
    annotated, ds = discover(EXP_SIMPLE)
    loop_in_program = annotated.program.second.second
    assert ds[0].node is loop_in_program
