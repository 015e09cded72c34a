"""Rule-based predicate simplification under a context assumption.

The six golden input/output pairs below drive the whole design: they
are the exact shapes the derivation engine needs at each step of the
worked exponentiation examples, frozen here verbatim.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopinv.evaluator import holds
from loopinv.parser import parse_expression, pretty
from loopinv.simplifier import (
    RULE_NAMES,
    RewriteEvent,
    SimpConfig,
    refuted,
    simplify,
)
from loopinv.terms import TRUE, Num, Op, Var, free_vars


def e(text):
    return parse_expression(text)


def simp(ctx, p, **kw):
    return simplify(e(ctx), e(p), **kw)


# --- golden input/output pairs ----------------------------------------------


def test_negated_guard_normalises():
    assert simp("0 = 0", "~(x < n) /\\ y = k ^ n") == e("x >= n /\\ y = k ^ n")


def test_bound_tightening_under_strict_context():
    assert simp("x < n", "x + 1 >= n /\\ y * k = k ^ n") == e("x + 1 = n /\\ y * k = k ^ n")


def test_reassociation_to_the_right():
    got = simp("x < n", "(x + 1) + 1 = n /\\ (y * k) * k = k ^ n")
    assert got == e("x + (1 + 1) = n /\\ y * (k * k) = k ^ n")


def test_refuted_branch_collapses_to_true():
    assert simp("x > 0", "~(x % 2 = 1) => (x / 2 <= 0 /\\ y = k ^ n)") == TRUE


def test_absorbed_antecedent_feeds_parity_rules():
    got = simp("x > 0", "x % 2 = 1 => (x / 2 <= 0 /\\ y * z = k ^ n)")
    assert got == e("x = 1 /\\ y * z = k ^ n")


def test_division_equation_under_odd_context():
    got = simp("x > 0", "x % 2 = 1 => (x / 2 = v /\\ (y * z) * ((z * z) * w) = k ^ n)")
    assert got == e("x = (2 * v) + 1 /\\ y * (z * (z * (z * w))) = k ^ n")


# --- structural invariants ---------------------------------------------------


def _left_nested(expr) -> bool:
    match expr:
        case Op(op, (Op(inner, _), _)) if op == inner and op in ("+", "*", "∧", "∨"):
            return True
        case Op(_, args):
            return any(_left_nested(a) for a in args)
        case _:
            return False


GOLDEN_CALLS = [
    ("0 = 0", "~(x < n) /\\ y = k ^ n"),
    ("x < n", "x + 1 >= n /\\ y * k = k ^ n"),
    ("x < n", "(x + 1) + 1 = n /\\ (y * k) * k = k ^ n"),
    ("x > 0", "~(x % 2 = 1) => (x / 2 <= 0 /\\ y = k ^ n)"),
    ("x > 0", "x % 2 = 1 => (x / 2 <= 0 /\\ y * z = k ^ n)"),
    ("x > 0", "x % 2 = 1 => (x / 2 = v /\\ (y * z) * ((z * z) * w) = k ^ n)"),
]


@pytest.mark.parametrize("ctx,p", GOLDEN_CALLS)
def test_output_never_left_nested(ctx, p):
    assert not _left_nested(simp(ctx, p))


@pytest.mark.parametrize("ctx,p", GOLDEN_CALLS)
def test_idempotent_on_golden_calls(ctx, p):
    once = simp(ctx, p)
    assert simplify(e(ctx), once) == once


def test_true_absorption():
    assert simp("x < n", "0 = 0") == TRUE
    assert simplify(TRUE, TRUE) == TRUE


def test_literal_relations_evaluated():
    assert simp("0 = 0", "3 >= 0 /\\ x = 1") == e("x = 1")
    assert simp("0 = 0", "3 < 0 \\/ 0 = 0") == TRUE or simp("0 = 0", "3 >= 0") == TRUE


def test_duplicate_conjuncts_kept_once():
    assert simp("0 = 0", "x = 1 /\\ x = 1") == e("x = 1")


def test_no_literal_folding_in_display_form():
    # (1+1) is the derivation's display form; the simplifier must not
    # collapse it to 2.
    got = simp("x < n", "x + (1 + 1) = n")
    assert got == e("x + (1 + 1) = n")


# --- the rewrite log ----------------------------------------------------------


def test_log_records_rule_and_before_after():
    log: list[RewriteEvent] = []
    simp("0 = 0", "~(x < n)", log=log)
    assert any(ev.rule == "R1" for ev in log)
    ev = next(ev for ev in log if ev.rule == "R1")
    assert ev.before == e("~(x < n)") and ev.after == e("x >= n")
    assert not ev.heuristic


def test_refutation_collapse_logged_as_heuristic():
    log: list[RewriteEvent] = []
    simp("x > 0", "~(x % 2 = 1) => (x / 2 <= 0 /\\ y = k ^ n)", log=log)
    collapses = [ev for ev in log if ev.rule == "R5"]
    assert collapses and all(ev.heuristic for ev in collapses)
    assert collapses[0].after == TRUE


def rewrite_preserves_meaning(ev: RewriteEvent, bound: int) -> tuple[bool, int]:
    """Exhaustively compare a rewrite's sides under its facts.

    Rewrites fire on subterms of either sort, so boolean events compare
    truth values and natural events compare numbers.  Returns (ok,
    error_stores_skipped)."""
    from loopinv.evaluator import EvalError, eval_expr

    names = sorted(
        free_vars(ev.before)
        | free_vars(ev.after)
        | set().union(set(), *(free_vars(f) for f in ev.facts))
    )
    skipped = 0
    for values in itertools.product(range(bound + 1), repeat=len(names)):
        store = dict(zip(names, values))
        if not all(holds(f, store) for f in ev.facts):
            continue
        try:
            lhs = eval_expr(ev.before, store)
            rhs = eval_expr(ev.after, store)
        except EvalError:
            skipped += 1
            continue
        if lhs != rhs:
            return False, skipped
    return True, skipped


def test_non_heuristic_rewrites_preserve_meaning_under_context():
    # Every logged non-heuristic rewrite must agree with its input on
    # all small stores where both sides evaluate.
    for ctx, p in GOLDEN_CALLS:
        log: list[RewriteEvent] = []
        simp(ctx, p, log=log)
        assert log, "golden calls must fire at least one rewrite"
        for ev in log:
            if ev.heuristic:
                continue
            ok, _ = rewrite_preserves_meaning(ev, bound=3)
            assert ok, f"{ev.rule}: {pretty(ev.before)} vs {pretty(ev.after)}"


# --- configuration -----------------------------------------------------------


def test_rules_can_be_disabled():
    cfg = SimpConfig(disabled_rules=frozenset({"R1"}))
    got = simp("0 = 0", "~(x < n)", cfg=cfg)
    assert got == e("~(x < n)")


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError):
        SimpConfig(disabled_rules=frozenset({"R9"}))


def test_budget_exhaustion_flagged_and_best_effort():
    cfg = SimpConfig(max_rewrite_steps=1)
    log: list[RewriteEvent] = []
    out = simp("x < n", "(x + 1) + 1 >= n /\\ ~(~(y = 1))", cfg=cfg, log=log)
    assert any(ev.rule == "budget" and ev.heuristic for ev in log)
    assert out is not None  # best-effort form, not an exception


def test_rule_names_are_r1_to_r6():
    assert RULE_NAMES == ("R1", "R2", "R3", "R4", "R5", "R6")


# --- refutation helper --------------------------------------------------------


def test_refuted_finds_contradiction():
    assert refuted([e("x > 0"), e("x = 0")], bound=4) is True


def test_refuted_accepts_satisfiable():
    assert refuted([e("x > 0"), e("x % 2 = 0")], bound=4) is False


def test_refuted_counts_error_stores():
    # x=0 raises a division error: it is skipped, the scan goes on to the
    # witness x=1, and an erroring store is never taken as a witness.
    assert refuted([e("1 / x = 1")], bound=2) is False
    assert refuted([e("x = 0"), e("1 / x = 0")], bound=2) is True


def test_refuted_without_conjuncts_is_satisfied_by_the_empty_store():
    assert refuted([], bound=3) is False


# --- contextual facts ---------------------------------------------------------


def test_context_disequality_acts_like_parity_fact():
    # x%2 ≠ 1 in the context behaves as x%2 = 0 for the division rule.
    got = simp("~(x % 2 = 1)", "x / 2 = v")
    assert got == e("x = 2 * v")


def test_even_context_division():
    assert simp("x % 2 = 0", "x / 2 = v") == e("x = 2 * v")


def test_positive_spelling_of_guard_accepted():
    got = simp("0 < x", "x % 2 = 1 => x / 2 <= 0")
    assert got == e("x = 1")


# --- light random probing ------------------------------------------------------


_rel = st.tuples(
    st.sampled_from(["<", ">", "≤", "≥", "=", "≠"]),
    st.sampled_from([Var("x"), Var("y"), Num(0), Num(1)]),
    st.sampled_from([Var("x"), Var("y"), Num(0), Num(1)]),
).map(lambda t: Op(t[0], (t[1], t[2])))


@settings(max_examples=60)
@given(_rel, _rel)
def test_simplify_preserves_truth_on_random_conjunctions(a, b):
    p = Op("∧", (Op("¬", (a,)), b))
    out = simplify(TRUE, p)
    for x in range(4):
        for y in range(4):
            store = {"x": x, "y": y}
            assert holds(out, store) == holds(p, store)
