"""End-to-end acceptance checks.

Each criterion is one or more ``test_criterion_NN_*`` functions; the
conftest plugin prints an aggregated ``CRITERION n: PASS/FAIL`` line per
criterion after the run.  Golden formulas are compared modulo a single
consistent renaming of generalisation variables (placeholders ``ga``,
``gb``, ... in the expected strings), never by raw string equality.
"""

import itertools
import random
import time

import pytest
from test_simplifier import rewrite_preserves_meaning

from loopinv.embedding import FreshSupply, coupled, embeds, msg
from loopinv.engine import annotate_program
from loopinv.evaluator import Finished, exec_stmt, holds
from loopinv.cli import main
from loopinv.parser import parse_expression, parse_program, pretty
from loopinv.solver import (
    Assignment,
    SolverConfig,
    SolverFailure,
    VerifiedUpToBound,
    check_requirements,
    diagnose_lost_variables,
    solve,
)
from loopinv.terms import (
    Assign,
    Case,
    If,
    Num,
    Op,
    Seq,
    Skip,
    Triple,
    Var,
    While,
    free_vars,
    renaming_of,
    substitute,
)
from loopinv.wlp import wlp


def e(text):
    return parse_expression(text)


def _genvar_like(*exprs):
    names = set().union(*(free_vars(x) for x in exprs))
    return {v for v in names if v[0] == "g"}


def assert_matches(actual, expected_src, mapping):
    """actual == parse(expected_src) modulo renaming of g-variables,
    consistently with (and extending) `mapping`."""
    expected = e(expected_src)
    ren = renaming_of(actual, expected, _genvar_like(actual, expected))
    assert ren is not None, f"{pretty(actual)} !~ {expected_src}"
    for placeholder, name in ren.items():
        assert mapping.setdefault(placeholder, name) == name, (
            f"placeholder {placeholder} maps to both "
            f"{mapping[placeholder]} and {name}"
        )
    assert len(set(mapping.values())) == len(mapping), "renaming not injective"


def assert_golden_trace(trace, golden):
    assert len(trace.steps) == len(golden), [
        (s.kind, pretty(s.formula)) for s in trace.steps
    ]
    mapping: dict = {}
    for step, (kind, formula_src, note) in zip(trace.steps, golden):
        assert step.kind == kind
        assert step.note == note
        assert_matches(step.formula, formula_src, mapping)
    return mapping


def load(programs, name):
    return parse_program((programs / name).read_text(encoding="utf-8"))


PULL = "pulled back through the body; paths: 1"
PULL2 = "pulled back through the body; paths: 2"
INIT = "negated guard conjoined with the postcondition"

SIMPLE_GOLDEN = [
    ("Init", "x >= n /\\ y = k ^ n", INIT),
    ("WLPStep", "x + 1 = n /\\ y * k = k ^ n", PULL),
    ("WLPStep", "x + (1 + 1) = n /\\ y * (k * k) = k ^ n", PULL),
    ("GeneraliseStep", "x + ga = n /\\ y * gb = k ^ n", "generalised against approximation 2"),
    ("WLPStep", "x + (1 + ga) = n /\\ y * (k * gb) = k ^ n", PULL),
    ("GeneraliseStep", "x + gc = n /\\ y * gd = k ^ n", "generalised against approximation 3"),
    ("RenamingFound", "x + gc = n /\\ y * gd = k ^ n", "renaming of approximation 3"),
]

BINARY_GOLDEN = [
    ("Init", "x <= 0 /\\ y = k ^ n", INIT),
    ("WLPStep", "x = 1 /\\ y * z = k ^ n", PULL2 + "; collapsed to True: 1"),
    ("WLPStep", "x = ga /\\ y * (z * gb) = k ^ n", PULL2),
    ("WLPStep", "x = gc /\\ y * (z * (z * gd)) = k ^ n", PULL2),
    ("GeneraliseStep", "x = ge /\\ y * (z * gf) = k ^ n", "generalised against approximation 3"),
    ("RenamingFound", "x = ge /\\ y * (z * gf) = k ^ n", "renaming of approximation 3"),
]

INNER_GOLDEN = [
    ("Init", "z >= k /\\ v = y * k", INIT),
    ("WLPStep", "z + 1 = k /\\ v + y = y * k", PULL),
    ("WLPStep", "z + (1 + 1) = k /\\ v + (y + y) = y * k", PULL),
    ("GeneraliseStep", "z + ga = k /\\ v + gb = y * k", "generalised against approximation 2"),
    ("WLPStep", "z + (1 + ga) = k /\\ v + (y + gb) = y * k", PULL),
    ("GeneraliseStep", "z + gc = k /\\ v + gd = y * k", "generalised against approximation 3"),
    ("RenamingFound", "z + gc = k /\\ v + gd = y * k", "renaming of approximation 3"),
]


# --- criterion 1: simple exponentiation, full pipeline -------------------------


def test_criterion_01_simple_exponentiation_end_to_end(programs):
    started = time.perf_counter()
    triple = load(programs, "exp_simple.imp")
    annotated, (d,) = annotate_program(triple)
    assert_golden_trace(d.trace, SIMPLE_GOLDEN)

    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    g_count, g_power = d.genvars  # in order of appearance in the putative
    a = report.assignment
    assert a.initial == {g_count: Var("n"), g_power: e("k ^ n")}
    assert a.step == {g_count: e(f"{g_count} - 1"), g_power: e(f"{g_power} / k")}
    assert a.final == {g_count: Num(0), g_power: Num(1)}
    assert report.verdict == VerifiedUpToBound(bound=6)
    assert time.perf_counter() - started < 10.0


# --- criterion 2: binary exponentiation ------------------------------------------


def test_criterion_02_binary_trace_collapses_even_branch(programs):
    started = time.perf_counter()
    triple = load(programs, "exp_binary.imp")
    _, (d,) = annotate_program(triple)
    mapping = assert_golden_trace(d.trace, BINARY_GOLDEN)
    # The very first pull-back discharges the even branch to True.
    assert "collapsed to True: 1" in d.trace.steps[1].note
    assert_matches(d.putative, "x = ge /\\ y * (z * gf) = k ^ n", mapping)
    assert time.perf_counter() - started < 30.0


def test_criterion_02_solver_finds_conditional_step(programs):
    """A passing assignment here needs a conditional step: the power
    accumulator is divided by z only on odd iterations.  The search must
    produce one and have it verify within the bound."""
    triple = load(programs, "exp_binary.imp")
    annotated, (d,) = annotate_program(triple)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert any(isinstance(s, Case) for s in report.assignment.step.values())
    assert isinstance(report.verdict, VerifiedUpToBound)


# --- criterion 3: nested loops ------------------------------------------------------


def test_criterion_03_nested_loops_both_solved(programs):
    triple = load(programs, "exp_nested.imp")
    annotated, discoveries = annotate_program(triple)
    by_line = {d.line: d for d in discoveries}
    outer, inner = by_line[7], by_line[11]

    assert_golden_trace(inner.trace, INNER_GOLDEN)
    assert_golden_trace(outer.trace, SIMPLE_GOLDEN)

    inner_report = solve(annotated, inner.node, inner.putative, inner.genvars, inner.post)
    g_count, g_sum = inner.genvars
    a = inner_report.assignment
    assert a.initial[g_count] == Var("k")
    assert a.initial[g_sum] in (e("k * y"), e("y * k"))
    assert a.step == {g_count: e(f"{g_count} - 1"), g_sum: e(f"{g_sum} - y")}
    assert a.final == {g_count: Num(0), g_sum: Num(0)}
    assert inner_report.verdict == VerifiedUpToBound(bound=6)
    assert inner_report.stats.candidates_tried == 621

    outer_report = solve(annotated, outer.node, outer.putative, outer.genvars, outer.post)
    g_count, g_power = outer.genvars
    a = outer_report.assignment
    assert a.initial == {g_count: Var("n"), g_power: e("k ^ n")}
    assert a.step == {g_count: e(f"{g_count} - 1"), g_power: e(f"{g_power} / k")}
    assert a.final == {g_count: Num(0), g_power: Num(1)}
    assert outer_report.verdict == VerifiedUpToBound(bound=6)
    assert outer_report.stats.candidates_tried == 1059


# --- criterion 4: a variable generalised out of existence ----------------------------


def test_criterion_04_swapped_accumulator_diagnosed(capsys, programs):
    triple = load(programs, "exp_swapped.imp")
    annotated, (d,) = annotate_program(triple)
    assert_matches(d.putative, "x + ga = n /\\ k * gb = k ^ n", {})
    assert "y" not in free_vars(d.putative)
    assert diagnose_lost_variables(d.putative, d.node.body) == ("y",)
    with pytest.raises(SolverFailure) as err:
        solve(
            annotated,
            d.node,
            d.putative,
            d.genvars,
            d.post,
            SolverConfig(max_candidates=5_000),
        )
    assert err.value.requirement == 1

    code = main(["discover", str(programs / "exp_swapped.imp")])
    out = capsys.readouterr().out
    assert code == 2
    assert "no witnesses" in out
    assert "variable 'y' is updated in the loop body but absent" in out


# --- random-term generators ----------------------------------------------------------


def rand_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice("abcd")) if rng.random() < 0.5 else Num(rng.randrange(0, 4))
    return Op(rng.choice(["+", "-", "*", "/"]), (rand_term(rng, depth - 1), rand_term(rng, depth - 1)))


# --- criterion 5: generalisation laws --------------------------------------------------


def test_criterion_05_msg_substitutions_reproduce_inputs():
    rng = random.Random(5)
    failures = 0
    for _ in range(1000):
        t1, t2 = rand_term(rng, 5), rand_term(rng, 5)
        fresh = FreshSupply(avoid={"a", "b", "c", "d"})
        r = msg(t1, t2, fresh)
        if substitute(r.generalised, r.theta_left) != t1:
            failures += 1
        elif substitute(r.generalised, r.theta_right) != t2:
            failures += 1
    assert failures == 0


def test_criterion_05_msg_of_equal_terms_introduces_nothing():
    rng = random.Random(55)
    for _ in range(1000):
        t = rand_term(rng, 5)
        fresh = FreshSupply(avoid={"a", "b", "c", "d"})
        r = msg(t, t, fresh)
        assert r.generalised == t
        assert fresh.created == []
        assert r.theta_left == {} and r.theta_right == {}


# --- criterion 6: embedding ---------------------------------------------------------


def test_criterion_06_embedding_reflexive():
    rng = random.Random(6)
    assert all(embeds(t, t) for t in (rand_term(rng, 5) for _ in range(1000)))


def test_criterion_06_coupling_on_successive_approximations():
    assert coupled(
        e("x + 1 = n /\\ y * k = k ^ n"),
        e("x + (1 + 1) = n /\\ y * (k * k) = k ^ n"),
    )


def test_criterion_06_coupling_needs_equal_top_functors():
    assert not coupled(e("a + b"), e("a * b"))
    assert not coupled(e("a = b"), e("a < b"))
    assert not coupled(e("a + b = c"), e("a + b < c"))


# --- criterion 7: pulled-back conditions predict execution -----------------------------


def _rand_loop_free(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Assign(rng.choice("abc"), _rand_arith(rng, 2))
    if r < 0.55:
        return Seq(_rand_loop_free(rng, depth - 1), _rand_loop_free(rng, depth - 1))
    if r < 0.8:
        return If(_rand_rel(rng), _rand_loop_free(rng, depth - 1), _rand_loop_free(rng, depth - 1))
    return Skip()


def _rand_arith(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return Var(rng.choice("abc")) if rng.random() < 0.6 else Num(rng.randrange(0, 5))
    return Op(rng.choice("+-*"), (_rand_arith(rng, depth - 1), _rand_arith(rng, depth - 1)))


def _rand_rel(rng):
    return Op(rng.choice(["=", "<", "≤", ">", "≥", "≠"]), (_rand_arith(rng, 2), _rand_arith(rng, 2)))


def test_criterion_07_wlp_sound_on_random_programs():
    rng = random.Random(7)
    checked = violations = 0
    for _ in range(200):
        body = _rand_loop_free(rng, 4)
        post = _rand_rel(rng)
        pulled = wlp(body, post)
        for _ in range(20):
            store = {v: rng.randrange(0, 9) for v in "abc"}
            if not holds(pulled, store):
                continue
            checked += 1
            outcome = exec_stmt(body, store, fuel=1_000)
            assert isinstance(outcome, Finished)
            if not holds(post, outcome.store):
                violations += 1
    assert checked > 1000  # the implication was exercised, not vacuous
    assert violations == 0


# --- criterion 8: every logged rewrite preserves meaning --------------------------------


def test_criterion_08_corpus_rewrites_equivalent_under_facts(programs):
    log = []
    for path in sorted(programs.glob("*.imp")):
        annotate_program(parse_program(path.read_text(encoding="utf-8")), simp_log=log)
    exact = [ev for ev in log if not ev.heuristic]
    assert {ev.rule for ev in exact} >= {"R1", "R2", "R3", "R4"}
    assert {ev.rule for ev in log if ev.heuristic} == {"R5"}
    for ev in exact:
        ok, _skipped = rewrite_preserves_meaning(ev, bound=5)
        assert ok, f"{ev.rule}: {pretty(ev.before)} -> {pretty(ev.after)}"


# --- criterion 9: discovery terminates inside its budget --------------------------------


def _linear_update(rng, v, vars_):
    r = rng.random()
    if r < 0.4:
        return Assign(v, Op("+", (Var(v), Num(rng.randrange(1, 4)))))
    if r < 0.7:
        return Assign(v, Op("+", (Var(v), Var(rng.choice(vars_)))))
    if r < 0.9:
        w = rng.choice(vars_)
        return Assign(v, Op("+", (Var(v), Op("*", (Num(rng.randrange(2, 4)), Var(w))))))
    return Assign(v, Num(rng.randrange(0, 4)))


def _seq(stmts):
    out = stmts[-1]
    for st in reversed(stmts[:-1]):
        out = Seq(st, out)
    return out


def _rand_counting_loop(rng):
    vars_ = ["x", "y", "z"][: rng.randrange(1, 4)]
    inits = [Assign(v, Num(rng.randrange(0, 3))) for v in vars_]
    counter = vars_[0]
    body = [Assign(counter, Op("+", (Var(counter), Num(1))))]
    for v in vars_[1:]:
        if rng.random() < 0.8:
            body.append(_linear_update(rng, v, vars_))
    rng.shuffle(body)
    loop = While(Op("<", (Var(counter), Var("n"))), _seq(body))
    if len(vars_) == 1 or rng.random() < 0.3:
        post = Op("=", (Var(counter), Var("n")))
    else:
        v = rng.choice(vars_[1:])
        post = Op(
            "=",
            (Var(v), Op("+", (Op("*", (Num(rng.randrange(1, 4)), Var("n"))), Num(rng.randrange(0, 3))))),
        )
    return Triple(Op("≥", (Var("n"), Num(0))), _seq(inits + [loop]), post)


def test_criterion_09_no_iteration_budget_exhaustion(programs):
    for path in sorted(programs.glob("*.imp")):
        _, discoveries = annotate_program(parse_program(path.read_text(encoding="utf-8")))
        for d in discoveries:
            assert d.failure is None, (path.name, d.failure)
    rng = random.Random(9)
    succeeded = 0
    for _ in range(100):
        _, (d,) = annotate_program(_rand_counting_loop(rng))
        assert d.failure is None or d.failure.kind != "IterationBudget"
        succeeded += d.failure is None
    assert succeeded == 100


# --- criterion 10: classical conditions agree with the bounded checker -------------------


def test_criterion_10_annotated_loop_conditions_hold(programs):
    triple = load(programs, "exp_simple_annotated.imp")
    loop = triple.program.second.second
    assert isinstance(loop, While) and loop.invariant is not None

    side = []
    pulled = wlp(triple.program, triple.post, side)
    assert [vc.kind for vc in side] == ["preservation", "exit"]
    conditions_hold = True
    for formula in [Op("⇒", (triple.pre, pulled)), *(vc.formula for vc in side)]:
        names = sorted(free_vars(formula))
        for values in itertools.product(range(7), repeat=len(names)):
            if not holds(formula, dict(zip(names, values))):
                conditions_hold = False
    assert conditions_hold

    empty = Assignment(initial={}, step={}, final={})
    verdict = check_requirements(triple, loop, loop.invariant, empty, triple.post)
    assert isinstance(verdict, VerifiedUpToBound) == conditions_hold
    assert verdict == VerifiedUpToBound(bound=6)
