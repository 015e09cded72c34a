"""Bounded-testing witness search for generalisation variables."""

import dataclasses
import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopinv.engine import annotate_program
from loopinv.evaluator import MAX_BITS, EvalError, _admitted, eval_expr
from loopinv.parser import parse_expression, parse_program, pretty
from loopinv.solver import (
    Assignment,
    Failed,
    SolverConfig,
    SolverFailure,
    SolveStats,
    VerifiedUpToBound,
    _ANY,
    _NONE,
    LoopRun,
    _coarsen,
    _Pool,
    _entry_counterexample,
    _starts,
    _step_counterexample,
    _to_front,
    check_requirements,
    collect_trajectories,
    diagnose_lost_variables,
    input_vars,
    solve,
)
from loopinv import evaluator, solver
from loopinv.terms import Case, Num, Op, Var, While, free_vars, top_conjuncts, view


def e(text):
    return parse_expression(text)


def discovered(src):
    triple = parse_program(src)
    annotated, ds = annotate_program(triple)
    return annotated, ds[0]


EXP_SIMPLE = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  x := x + 1;
  y := y * k
END
{y = k ^ n}"""


# --- input variables ---------------------------------------------------------


def test_input_vars_read_before_write():
    t = parse_program("{0 = 0} x := n; y := x + k {0 = 0}")
    assert input_vars(t) == ["k", "n"]


def test_input_vars_includes_precondition():
    t = parse_program("{m >= 1} x := 0 {0 = 0}")
    assert input_vars(t) == ["m"]


def test_input_vars_branch_writes_must_agree():
    # x is written on only one branch, so reading it afterwards still
    # observes the initial value on the other path.
    t = parse_program("{0 = 0} IF k = 0 THEN x := 1 ELSE skip; y := x {0 = 0}")
    assert input_vars(t) == ["k", "x"]


def test_input_vars_loop_body_counts_as_reads():
    t = parse_program("{0 = 0} WHILE x < n DO y := y + 1 {0 = 0}")
    assert input_vars(t) == ["n", "x", "y"]


def test_input_vars_block_locals_not_inputs():
    t = parse_program("{0 = 0} BEGIN VAR t; t := 1; x := t END {0 = 0}")
    assert input_vars(t) == []


# --- trajectory collection -----------------------------------------------------


def test_trajectories_split_per_entry_and_align_transitions():
    annotated, d = discovered(EXP_SIMPLE)
    runs = collect_trajectories(annotated, d.node, SolverConfig(domain_bound=2))
    # inputs k,n in 0..2 all satisfy n >= 0: nine runs.
    assert len(runs) == 9
    run = next(r for r in runs if r.entry["n"] == 2 and r.entry["k"] == 2)
    assert run.entry["x"] == 0 and run.entry["y"] == 1
    assert len(run.transitions) == 2
    (pre1, post1), (pre2, post2) = run.transitions
    assert pre1 == run.entry
    assert post1 == pre2
    assert post2 == run.exit
    assert run.exit["y"] == 4


def test_inner_loop_entered_once_per_outer_iteration():
    src = """{n >= 0}
x := 0;
WHILE x < n DO
BEGIN
  z := 0;
  WHILE z < k DO z := z + 1 {z = k};
  x := x + 1
END
{x = n}"""
    t = parse_program(src)
    annotated, ds = annotate_program(t)
    inner = [d for d in ds if d.line == 6][0]
    runs = collect_trajectories(annotated, inner.node, SolverConfig(domain_bound=3))
    by_kn = {}
    for r in runs:
        by_kn.setdefault((r.entry["k"], r.entry["n"]), []).append(r)
    assert len(by_kn[(2, 3)]) == 3  # three outer iterations, three visits
    assert all(len(r.transitions) == 2 for r in by_kn[(2, 3)])


def test_nonterminating_inputs_are_skipped_and_counted():
    src = "{0 = 0} WHILE 0 < n DO n := n {0 = 0}"
    t = parse_program(src)
    loop = t.program
    stats = SolveStats()
    runs = collect_trajectories(t, loop, SolverConfig(domain_bound=3, exec_fuel=20), stats)
    assert stats.runs_skipped == 3  # n in 1..3 never finish
    assert len(runs) == 1  # n = 0 exits immediately, zero transitions
    assert runs[0].transitions == []


# --- template enumeration --------------------------------------------------------


def test_templates_ordered_by_size_then_structure():
    ops = ("+", "-")
    atoms = [Num(0), Var("a")]
    pool = _Pool(atoms, ops)
    assert list(pool(1)) == atoms
    size3 = list(pool(3))
    assert size3[:4] == [
        Op("+", (Num(0), Num(0))),
        Op("+", (Num(0), Var("a"))),
        Op("+", (Var("a"), Num(0))),
        Op("+", (Var("a"), Var("a"))),
    ]
    assert size3[4].op == "-"
    # Larger templates: an operator over two operands of depth ≤ 1,
    # left size ascending, then left, then right.
    size5 = list(pool(5))
    assert len(size5) == len(ops) * 2 * len(atoms) * len(size3)
    assert size5[0] == Op("+", (Num(0), size3[0]))
    assert size5[len(atoms) * len(size3)] == Op("+", (size3[0], Num(0)))
    size7 = list(pool(7))
    assert len(size7) == len(ops) * len(size3) ** 2
    assert size7[0] == Op("+", (size3[0], size3[0]))
    assert size7[len(size3) ** 2] == Op("-", (size3[0], size3[0]))


def capped(max_size):
    return tuple(s for s in (1, 3, 5, 7) if max_size is None or s <= max_size)


def scan(pools, max_size=None):
    """The witness search's candidate scan over `pools` with no front:
    every joint candidate of size at most `max_size`, in order."""
    t = parse_program("{0 = 0} WHILE x < 1 DO x := x + 1 {0 = 0}")
    search = solver._Search(t, t.program, e("x = g"), ("g",), SolverConfig(), SolveStats(), [])
    return search._survivors(pools, None, capped(max_size))


def test_tuples_draw_templates_lazily():
    drawn, built = [], []

    class Counting(_Pool):
        def __call__(self, n):
            for t in super().__call__(n):
                if n == 7:
                    drawn.append(t)
                yield t

    zero = Op("+", (Num(0), Num(0)))
    first7 = Op("+", (zero, zero))
    # A head pool is drawn from only as far as the scan has reached.
    heads = Counting([Num(0), Var("a")], ("+", "-"))
    got = next(tup for tup in scan([heads, _Pool([Num(1)], ("+",))]) if drawn)
    assert drawn == [first7] and got == (first7, Num(1))
    # The last pool's templates are built one at a time as they are reached.
    post_init = Op.__post_init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Op, "__post_init__", lambda node: post_init(node) or built.append(node))
        got = next(tup for tup in scan([_Pool([Num(0), Var("a")], ("+", "-"))]) if size(tup[0]) == 7)
    assert [t for t in built if size(t) == 7] == [first7] and got == (first7,)


def reference_tuples(pools, max_size=None):
    """Every tuple of each size combination, materialised."""
    combos = sorted(itertools.product(capped(max_size), repeat=len(pools)), key=sum)
    for combo in combos:
        yield from itertools.product(*(list(pool(s)) for pool, s in zip(pools, combo)))


@pytest.mark.parametrize(
    "atoms, max_size",
    [
        ([[Num(0), Var("a")], [Num(1)]], None),
        ([[Num(0)], [Var("a"), Var("b")], [Num(1), Num(2)]], 5),
        ([[Num(0), Var("a")], [Var("b")], [Num(2)]], 3),
    ],
)
def test_tuples_match_a_reference_enumeration(atoms, max_size):
    pools = [_Pool(a, ("+", "^")) for a in atoms]
    assert list(scan(pools, max_size)) == list(reference_tuples(pools, max_size))


def test_template_operators_must_be_arithmetic():
    # The front values a template by its operator's ARITHMETIC closure.
    with pytest.raises(ValueError, match="arithmetic"):
        SolverConfig(operator_pool=("+", "<"))


def test_tuple_candidates_ordered_by_total_size():
    pool = _Pool([Num(0), Num(1)], ("+",))
    pairs = list(scan([pool, pool], max_size=3))
    sizes = [
        (1 if isinstance(a, Num) else 3, 1 if isinstance(b, Num) else 3) for a, b in pairs
    ]
    assert sizes == sorted(sizes, key=sum)
    assert pairs[0] == (Num(0), Num(0))


def test_a_pool_builds_a_size_3_template_when_first_asked_for(monkeypatch):
    atoms, ops = [Num(0), Num(1), Var("a")], ("+", "-", "^")
    # The eager list the pool used to build when it was made.
    eager = [Op(op, (left, right)) for op in ops for left in atoms for right in atoms]
    built = []
    post_init = Op.__post_init__
    monkeypatch.setattr(Op, "__post_init__", lambda node: post_init(node) or built.append(node))
    pool = _Pool(atoms, ops)
    assert built == []
    kept = pool.lists[3][4]
    assert built == [kept] and kept == eager[4]
    assert pool.lists[3][4] is kept and len(built) == 1
    assert list(pool(3)) == eager
    assert all(pool.lists[3][j] is t for j, t in enumerate(pool(3))) and len(built) == len(eager)
    # A row of size 3 gives the kept nodes, in the same order.
    by_rows = [pool.template(row, j) for row in pool.rows(3) for j in range(len(atoms))]
    assert all(t is kept for t, kept in zip(by_rows, pool.lists[3], strict=True))
    with pytest.raises(IndexError):
        pool.lists[3][len(eager)]


def test_one_solve_builds_its_pools_once(monkeypatch):
    # One pool serves the initials and the finals, and each variable has
    # one step pool, however many initials reach the step search.
    made, searched = [], []
    init, find_step = _Pool.__init__, solver._Search._find_step
    monkeypatch.setattr(_Pool, "__init__", lambda pool, *args: made.append(pool) or init(pool, *args))
    monkeypatch.setattr(
        solver._Search, "_find_step", lambda search, *args: searched.append(args) or find_step(search, *args)
    )
    annotated, d = discovered((Path(__file__).resolve().parent.parent / "programs" / "exp_simple.imp").read_text(encoding="utf-8"))
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert report.verdict == VerifiedUpToBound(bound=6)
    assert len(searched) > 1
    assert len(made) == 1 + len(d.genvars)


# --- the worked example -----------------------------------------------------------


def test_simple_exponentiation_full_assignment():
    annotated, d = discovered(EXP_SIMPLE)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    a = report.assignment
    g_count, g_power = d.genvars
    assert a.initial[g_count] == Var("n")
    assert a.initial[g_power] == e("k ^ n")
    assert a.step[g_count] == Op("-", (Var(g_count), Num(1)))
    assert a.step[g_power] == Op("/", (Var(g_power), Var("k")))
    assert a.final[g_count] == Num(0)
    assert a.final[g_power] == Num(1)
    assert report.verdict == VerifiedUpToBound(bound=6)
    assert report.stats.candidates_tried == 675  # unconditional steps, joint finals
    assert report.stats.stores_tested == 3572  # refuting entries and runs first, stores smallest first
    # Division by k truncates the k=0 runs rather than rejecting.
    assert report.stats.step_truncations > 0


def test_check_outcomes_do_not_depend_on_run_order():
    # The search moves a refuting entry or run to the front of its lists;
    # that may change which counterexample is found, never whether one is,
    # nor the number of iterations a passing step validates.
    annotated, d = discovered(EXP_SIMPLE)
    runs = collect_trajectories(annotated, d.node, SolverConfig())
    conjuncts = top_conjuncts(d.putative)
    g_count, g_power = d.genvars
    initial = {g_count: Var("n"), g_power: e("k ^ n")}
    atoms = [Num(0), Num(1), Num(2), Var("k"), Var("n"), Var("x"), Var("y")]
    pools = [_Pool(atoms + [Var(g)], ("-", "/")) for g in d.genvars]
    steps = [dict(zip(d.genvars, tup)) for tup in itertools.islice(scan(pools), 400)]
    steps.append({g_count: e(f"{g_count} - 1"), g_power: e(f"{g_power} / k")})
    rng = random.Random(6)
    for _ in range(3):
        shuffled = rng.sample(runs, len(runs))
        entries = [r.entry for r in shuffled]
        starts = _starts(initial, shuffled)  # reused, as the search reuses it
        outcomes = set()
        for step in steps:
            ref, validated = _step_counterexample(
                conjuncts, step, _starts(initial, runs), SolveStats()
            )
            got, got_validated = _step_counterexample(conjuncts, step, starts, SolveStats())
            assert (got is None) == (ref is None)
            assert ref is not None or got_validated == validated
            outcomes.add(ref is None)
        assert outcomes == {True, False}
        wrong = {g_count: Var("n"), g_power: Var("y")}
        for init, holds_on_entry in ((wrong, False), (initial, True)):
            collected_order = [r.entry for r in runs]
            ref = _entry_counterexample(conjuncts, init, collected_order, SolveStats())
            got = _entry_counterexample(conjuncts, init, entries, SolveStats())
            assert (got is None) == (ref is None) == holds_on_entry


def test_solve_leaves_collected_runs_in_order(monkeypatch):
    # check_requirements reports the first counterexample in the order runs
    # are collected (smallest input first), so the search must reorder
    # only its own lists.
    collected = []

    def collect(*args, **kwargs):
        runs = collect_trajectories(*args, **kwargs)
        collected.append((runs, list(runs)))
        return runs

    monkeypatch.setattr(solver, "collect_trajectories", collect)
    annotated, d = discovered(EXP_SIMPLE)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert isinstance(report.verdict, VerifiedUpToBound)
    ((runs, before),) = collected
    assert all(a is b for a, b in zip(runs, before)) and len(runs) == len(before)


def test_nested_inner_assignment():
    src = """{n >= 0}
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
    t = parse_program(src)
    annotated, ds = annotate_program(t)
    inner = [d for d in ds if d.line == 8][0]
    report = solve(annotated, inner.node, inner.putative, inner.genvars, inner.post)
    a = report.assignment
    g_count, g_sum = inner.genvars
    assert a.initial[g_count] == Var("k")
    # k*y enumerates before y*k; they agree on every store.
    assert a.initial[g_sum] in (e("k * y"), e("y * k"))
    assert a.step[g_sum] == Op("-", (Var(g_sum), Var("y")))
    assert a.final == {g_count: Num(0), g_sum: Num(0)}
    assert report.verdict == VerifiedUpToBound(bound=6)


# --- failure modes ------------------------------------------------------------------


def test_swapped_accumulator_has_no_witnesses():
    src = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  x := x + 1;
  y := k * y
END
{y = k ^ n}"""
    annotated, d = discovered(src)
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


def test_initial_exists_but_no_step_possible():
    # With + as the only operator no template can decrease g, so the
    # counting component finds an initial but never a step.
    src = "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x = n}"
    annotated, d = discovered(src)
    assert pretty(d.putative) == f"x+{d.genvars[0]}=n"
    with pytest.raises(SolverFailure) as err:
        solve(
            annotated,
            d.node,
            d.putative,
            d.genvars,
            d.post,
            SolverConfig(operator_pool=("+",)),
        )
    assert err.value.requirement == 2


def test_base_conjunct_failing_on_entry():
    src = "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x = n}"
    annotated, d = discovered(src)
    bad = Op("∧", (e("x = 1"), d.putative))
    with pytest.raises(SolverFailure) as err:
        solve(annotated, d.node, bad, d.genvars, d.post)
    assert err.value.requirement == 1
    assert "x=1" in err.value.detail


def test_diagnose_reports_first_assignment_order():
    body = parse_program("{0 = 0} a := 1; b := a; a := 2; c := 3 {0 = 0}").program
    lost = diagnose_lost_variables(e("b = 0"), body)
    assert lost == ("a", "c")
    # A block local cannot occur in any invariant, so it is never lost.
    program = parse_program(
        "{n >= 0} x := 0; y := 0; WHILE x < n DO BEGIN VAR t; t := x + 1; x := t; y := y + t END"
        " {x = n /\\ y = n}"
    ).program
    loop = program.second.second
    assert isinstance(loop, While)
    assert diagnose_lost_variables(e("x + g3 = n"), loop.body) == ("y",)


def test_diagnose_orders_by_assignments_outside_shadowing_blocks():
    # The block's x := 1 assigns its local, not the loop's x, which is
    # first assigned after y.
    loop = parse_program(
        "{n >= 0} WHILE n > 0 DO BEGIN BEGIN VAR x; x := 1 END; y := 2; x := 3; n := n - 1 END {n = 0}"
    ).program
    assert isinstance(loop, While)
    assert diagnose_lost_variables(e("n = n"), loop.body) == ("y", "x")


def test_error_truncating_witness_verifies_degenerately(programs):
    """A step whose evaluation errors truncates the run only where the
    invariant leaves the next value undetermined.  Pin that down: the
    positive binary-exponentiation program verifies through the honest
    conditional step, whose division by z errors only on the k = 0 runs,
    where y = 0 leaves the power accumulator undetermined; those runs are
    the truncations counted."""
    src = (programs / "exp_binary_pos.imp").read_text(encoding="utf-8")
    t = parse_program(src)
    annotated, ds = annotate_program(t)
    d = ds[0]
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert isinstance(report.verdict, VerifiedUpToBound)
    assert report.stats.step_truncations > 0


# --- excused step errors, impossible invariants and coarsening ---------------------


def _solve_for(c, g, env):
    """What the one conjunct `c` admits for `g` at `env`."""
    return _admitted([c], g, env)


def test_solve_for_inverts_plus_and_times():
    env = {"x": 1, "y": 1, "z": 2, "k": 2, "n": 0}
    assert _solve_for(e("x + g = n + 3"), "g", env) == 2
    assert _solve_for(e("y * (z * g) = k ^ n"), "g", env) == _NONE
    assert _solve_for(e("y * g = k ^ n"), "g", env) == 1
    assert _solve_for(e("y * g = k ^ n"), "g", {**env, "y": 0, "k": 0, "n": 1}) == _ANY
    assert _solve_for(e("x + g = n"), "g", {**env, "n": 0}) == _NONE
    # Shapes the inversion does not cover cannot tell.
    assert _solve_for(e("x - g = n"), "g", env) is None
    assert _solve_for(e("g * g = n"), "g", env) is None
    assert _solve_for(e("g * g = n"), "g", {**env, "g": 3}) is None
    assert _solve_for(e("x + g <= n"), "g", env) is None
    # Operands above an unsupported shape can already rule every value
    # out, or in; an operand that fails to evaluate cannot tell.
    assert _solve_for(e("(g - 1) + 5 = 2"), "g", env) == _NONE
    assert _solve_for(e("(g - 1) * 0 = 3"), "g", env) == _NONE
    assert _solve_for(e("(g - 1) + 1 = 3"), "g", env) is None
    assert _solve_for(e("g + 1 / x = 3"), "g", {**env, "x": 0}) is None
    # A product of 2 and 2^(MAX_BITS - 1) overflows, so no g makes it hold.
    wide = f"2 ^ {MAX_BITS - 1}"
    assert _solve_for(e(f"g * {wide} = {wide} + {wide}"), "g", env) == _NONE
    assert _solve_for(e(f"g * {wide} = {wide}"), "g", env) == 1


def uncached_solve_for(c, g, env):
    """The equation solver before inversion plans, kept verbatim (helper
    included) as the oracle: it re-derives the equation's shape on every
    call.  It differs from the compiled inversion only where a product
    must be wider than MAX_BITS to reach its target (a natural here,
    _NONE there), which terms this small never reach."""

    def _occurrences(e, g):
        if isinstance(e, Var):
            return int(e.name == g)
        return sum(_occurrences(a, g) for a in view(e)[1])

    if not (isinstance(c, Op) and c.op == "="):
        return None
    side, other = c.args
    if g not in free_vars(side):
        side, other = other, side
    if _occurrences(side, g) != 1 or g in free_vars(other):
        return None
    try:
        target = eval_expr(other, env)
        while side != Var(g):
            if not (isinstance(side, Op) and side.op in ("+", "*")):
                return None
            op = side.op
            a, b = side.args
            side, rest = (a, b) if g in free_vars(a) else (b, a)
            r = eval_expr(rest, env)
            if op == "+":
                if target < r:
                    return _NONE
                target -= r
            elif r == 0:
                return _ANY if target == 0 else _NONE
            elif target % r:
                return _NONE
            else:
                target //= r
    except EvalError:
        return None
    return target


def _subterms(t):
    yield t
    if not isinstance(t, Var):
        for kid in view(t)[1]:
            yield from _subterms(kid)


def _g_count(t):
    return sum(s == Var("g") for s in _subterms(t))


def _binary(ops, left, right):
    return st.builds(lambda op, a, b: Op(op, (a, b)), ops, left, right)


# Terms over + - * / ^, with + and * drawn more often.  `closed` terms
# have no g; a chain has g once, under operators whose other operands are
# closed, so that most equations between the two can be inverted.
_ops = st.sampled_from(["+", "*", "+", "*", "-", "/", "^"])
_atoms = st.sampled_from([Num(0), Num(1), Num(2), Num(3), Var("x"), Var("y"), Var("z")])
closed = st.recursive(_atoms, lambda kids: _binary(_ops, kids, kids), max_leaves=3)
chains = st.recursive(
    st.just(Var("g")),
    lambda kids: _binary(_ops, kids, closed) | _binary(_ops, closed, kids),
    max_leaves=4,
)
sides = (
    closed
    | chains
    | st.recursive(_atoms | st.just(Var("g")), lambda kids: _binary(_ops, kids, kids), max_leaves=6)
    .filter(lambda t: _g_count(t) <= 2)
)
stores = st.fixed_dictionaries(
    {"x": st.integers(0, 4), "y": st.integers(0, 4)},
    optional={"z": st.integers(0, 4), "g": st.integers(0, 4)},
)


@settings(max_examples=300)
@given(
    st.tuples(chains, closed) | st.tuples(closed, chains) | st.tuples(sides, sides),
    st.sampled_from(["=", "=", "=", "≤"]),
    st.lists(stores, min_size=1, max_size=4),
)
def test_solve_for_matches_the_uncached_solver(args, rel, envs):
    # Stores may miss a variable and hold zero divisors; each plan is used
    # again on every store after the first, and twice on each.
    c = Op(rel, args)
    for env in envs:
        # A conjunct without g admits every value of it.
        expected = uncached_solve_for(c, "g", env) if "g" in free_vars(c) else _ANY
        assert _solve_for(c, "g", env) == expected
        assert _solve_for(c, "g", env) == expected


def test_inversion_plans_are_cached_on_the_conjunct(monkeypatch):
    c, twin = e("x + g * y = n"), e("x + g * y = n")
    before = (hash(c), repr(c))
    assert _solve_for(c, "g", {"x": 1, "y": 2, "n": 7}) == 3
    walked = []
    monkeypatch.setattr(evaluator, "free_vars", lambda t: walked.append(t) or free_vars(t))
    assert _solve_for(c, "g", {"x": 1, "y": 0, "n": 1}) == _ANY
    assert _solve_for(c, "g", {"x": 9, "y": 1, "n": 7}) == _NONE
    assert walked == []
    assert _solve_for(c, "x", {"g": 1, "y": 2, "n": 7}) == 5  # another variable, another plan
    assert walked
    assert (hash(c), repr(c)) == before and c == twin


def test_iterate_with_one_of_two_step_variables_failing():
    # b / z fails at z = 0; a + 1 evaluates, and y*b = k*a sees its next
    # value.  The step is evaluated once per variable, errors included: a
    # counting closure is planted where each step node keeps its compiled one.
    conjuncts = [e("x = a"), e("y * b = k * a")]
    step = {"a": e("a + 1"), "b": e("b / z")}
    pre, gvals = {"x": 0, "y": 0, "k": 0, "z": 0}, {"a": 0, "b": 1}
    evaluated = []
    for t in step.values():
        run = evaluator._compiled(t)
        object.__setattr__(t, "_closure", lambda s, t=t, run=run: evaluated.append(t) or run(s))

    def one_transition(post):
        return [(LoopRun((pre, post)), gvals)]

    # y = 0 and k*a = 0 leave b's next value free: the run is truncated.
    stats = SolveStats()
    starts = one_transition({"x": 1, "y": 0, "k": 0, "z": 0})
    assert _step_counterexample(conjuncts, step, starts, stats) == (None, 0)
    assert stats == SolveStats(step_truncations=1)
    assert evaluated == list(step.values())

    # y = 1 and k*a = 2*1 pin b to 2: the error rejects the step.
    stats = SolveStats()
    starts = one_transition({"x": 1, "y": 1, "k": 2, "z": 0})
    assert _step_counterexample(conjuncts, step, starts, stats) == ({**pre, **gvals}, 0)
    assert stats == SolveStats(eval_rejections=1)


SQUARE_OF_ODDS = """{n >= 0}
x := 0;
y := 0;
WHILE x < n DO
BEGIN
  y := y + 2 * x + 1;
  x := x + 1
END
{y = n * n}"""


def test_square_of_odds_search_effort_at_bound_3():
    """The coarsened square-of-odds invariant at bound 3, the setting the
    search-deep benchmark runs it under and where it takes most of that
    workload's time: the whole search effort is pinned, so that a faster
    search is seen to do the same work."""
    annotated, d = discovered(SQUARE_OF_ODDS)
    cfg = SolverConfig(domain_bound=3)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post, cfg)
    assert report.stats == SolveStats(
        candidates_tried=138719,
        stores_tested=106894,
        eval_rejections=33606,
        step_truncations=0,
        runs_collected=4,
        runs_skipped=0,
    )
    assert pretty(report.assignment.step["g4"]) == "g4-1-(x+x)"
    assert report.verdict == VerifiedUpToBound(3)


def test_coarsen_abstracts_smallest_enclosing_subterm():
    assert _coarsen(e("x = g5 /\\ y * (z * g6) = k ^ n"), "g6", ("g5", "g6")) == e(
        "x = g5 /\\ y * g6 = k ^ n"
    )
    # Not under an arithmetic operator, or sharing it with another genvar.
    assert _coarsen(e("x = g5"), "g5", ("g5",)) is None
    assert _coarsen(e("y * (g5 * g6) = n"), "g6", ("g5", "g6")) is None


def _binary_pos(programs):
    triple = parse_program((programs / "exp_binary_pos.imp").read_text(encoding="utf-8"))
    annotated, (d,) = annotate_program(triple)
    g_pos, g_pow = d.genvars
    coarse = e(f"x = {g_pos} /\\ y * {g_pow} = k ^ n")
    return annotated, d, g_pos, g_pow, coarse


def test_check_requirements_rejects_step_erroring_where_determined(programs):
    # 0/(1-k) errors on every run with k >= 1, where y*g = k^n pins g.
    annotated, d, g_pos, g_pow, coarse = _binary_pos(programs)
    degenerate = Assignment(
        initial={g_pos: Var("n"), g_pow: e("k ^ n")},
        step={g_pos: e(f"{g_pos} / 2"), g_pow: e("0 / (1 - k)")},
        final={g_pos: Num(0), g_pow: Num(1)},
    )
    verdict = check_requirements(annotated, d.node, coarse, degenerate, d.post)
    assert isinstance(verdict, Failed)
    assert verdict.requirement == 2


def test_check_requirements_accepts_honest_conditional_step(programs):
    annotated, d, g_pos, g_pow, coarse = _binary_pos(programs)
    odd = Case(e("x % 2 = 1"), e(f"{g_pow} / z"), Var(g_pow))
    honest = Assignment(
        initial={g_pos: Var("n"), g_pow: e("k ^ n")},
        step={g_pos: e(f"{g_pos} / 2"), g_pow: odd},
        final={g_pos: Num(0), g_pow: Num(1)},
    )
    stats = SolveStats()
    verdict = check_requirements(
        annotated, d.node, coarse, honest, d.post, stats=stats
    )
    assert verdict == VerifiedUpToBound(6)
    assert stats.step_truncations > 0  # the k = 0 runs, where y = 0


def test_derived_invariant_without_witness_is_coarsened(programs):
    annotated, d, g_pos, g_pow, coarse = _binary_pos(programs)
    assert pretty(d.putative) == f"x={g_pos} ∧ y*(z*{g_pow})=k^n"
    cfg = SolverConfig(operator_pool=("/", "^"))  # a small search space, same witness
    report = solve(annotated, d.node, d.putative, d.genvars, d.post, cfg)
    assert report.invariant == coarse
    assert pretty(report.assignment.step[g_pow]) == f"if x%2=1 then {g_pow}/z else {g_pow}"
    assert isinstance(report.verdict, VerifiedUpToBound)
    assert report.stats.candidates_tried == 6350


def test_swapped_accumulator_fails_before_any_candidate(programs):
    triple = parse_program((programs / "exp_swapped.imp").read_text(encoding="utf-8"))
    annotated, (d,) = annotate_program(triple)
    with pytest.raises(SolverFailure) as err:
        solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert err.value.requirement == 1
    assert err.value.stats.candidates_tried == 0
    assert "does not mention y" in err.value.detail


# --- the front check ------------------------------------------------------------------


def solve_outcome(triple, d, cfg):
    try:
        report = solve(triple, d.node, d.putative, d.genvars, d.post, cfg)
    except SolverFailure as err:
        return err.requirement, err.detail, err.stats
    return report.invariant, report.assignment, report.verdict, report.stats


def judging_nothing(mp):
    # The front's seam: with no front item to judge at, every candidate goes
    # on to the full check, as if there were no front check.
    mp.setattr(solver._Front, "current", lambda front: None)


def assert_front_changes_nothing(source, cfg, putative=None):
    # Judging candidates at the front store first changes no outcome and
    # no count: the full check alone must give the same ones.  With a
    # `putative` invariant over g, the program's first loop is solved for
    # it instead of for the invariants discovery derives.
    annotated, found = annotate_program(parse_program(source))
    loops = [d for d in found if d.putative is not None]
    if putative is not None:
        loops = [dataclasses.replace(found[0], putative=putative, genvars=("g",))]
    got = [solve_outcome(annotated, d, cfg) for d in loops]
    with pytest.MonkeyPatch.context() as mp:
        judging_nothing(mp)
        assert got == [solve_outcome(annotated, d, cfg) for d in loops]
    return got


def counting_loop(c, body, twin):
    """A loop counting x up to n while y accumulates, with its closed-form
    post, or that post plus one (an invalid twin)."""
    update, post = body
    post = post.format(c=c) + (" + 1" if twin else "")
    return (
        f"{{n >= 0}} x := 0; y := {c}; WHILE x < n DO BEGIN x := x + 1; y := {update} END "
        f"{{y = {post}}}"
    )


counting_loops = st.builds(
    counting_loop,
    st.integers(0, 2),
    st.sampled_from(
        [
            ("y + k", "n * k + {c}"),
            ("y * k", "{c} * k ^ n"),
            ("k * y", "{c} * k ^ n"),
            ("y + 2", "2 * n + {c}"),
            ("y * 2", "{c} * 2 ^ n"),
            ("y + x + x + 1", "n * n + {c}"),
            ("y - 1", "{c} - n"),
        ]
    ),
    st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(counting_loops, st.integers(1, 5_000))
def test_the_front_check_changes_no_outcome_on_counting_loops(source, budget):
    # A drawn budget runs out anywhere: inside a span counted in bulk, at a
    # survivor, or at a candidate the front run's later iterations refute.
    assert_front_changes_nothing(source, SolverConfig(domain_bound=3, max_candidates=budget))


PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
CORPUS = sorted(PROGRAMS.glob("*.imp"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_the_front_check_changes_no_outcome_on_the_corpus(path):
    # At bound 3 exp_binary_pos is solved through its conditional stage
    # within the budget, and exp_binary exhausts it.
    cfg = SolverConfig(domain_bound=3, max_candidates=60_000)
    assert_front_changes_nothing(path.read_text(encoding="utf-8"), cfg)


def size(t):
    return 1 + sum(size(a) for a in t.args) if isinstance(t, Op) else 1


def row_size(row):
    op, ls, _, rs = row
    return 1 if op is None else 1 + ls + rs


def scanning(monkeypatch):
    """Record each read of a row's summary at the front store: [row, first
    position, next survivor, the position the scan stopped at], where the
    row is that of the latest summary.  A read whose scan stops where it
    starts counts nothing."""
    scans, latest = [], []
    summary, next_, counts = solver._Level.summary, solver._Summary.next, solver._Summary.counts

    def summarising(level, genvars, heads, row):
        latest[:] = [row]
        return summary(level, genvars, heads, row)

    def surviving(rows, j, end):
        scans.append([*latest, j, next_(rows, j, end), j])
        return scans[-1][2]

    def counting(rows, a, b):
        scans[-1][3] = b
        return counts(rows, a, b)

    monkeypatch.setattr(solver._Level, "summary", summarising)
    monkeypatch.setattr(solver._Summary, "next", surviving)
    monkeypatch.setattr(solver._Summary, "counts", counting)
    return scans


@pytest.mark.parametrize(
    "cfg, stop_size",
    [
        (SolverConfig(domain_bound=2, max_candidates=1_000), 5),
        (SolverConfig(domain_bound=2, max_candidates=20_000, operator_pool=("+", "-")), 7),
    ],
)
def test_the_budget_runs_out_at_the_same_candidate_without_the_front(monkeypatch, cfg, stop_size):
    # Square-of-odds' step search runs out of budget inside a row of the
    # given size, after a survivor of that row, amid refuted templates
    # counted in bulk.
    scans = scanning(monkeypatch)
    [(_, detail, stats)] = assert_front_changes_nothing(SQUARE_OF_ODDS, cfg)
    assert "budget" in detail and stats.candidates_tried == cfg.max_candidates + 1
    row, start, survivor, stop = scans[-1]
    assert row_size(row) == stop_size and 0 < start < stop < survivor


def test_candidates_refuted_at_the_front_are_never_built(monkeypatch):
    # Square-of-odds' step search at bound 2 ends among the templates of
    # size 5, at g4-g4^x, which the runs of n <= 2 cannot tell from the
    # step the invariant asks for; only the candidates that reach the full
    # check become nodes.
    built, checked = [], []
    in_step_search = []
    post_init = Op.__post_init__
    find_step, preserves = solver._Search._find_step, solver._Search._preserves

    def building(node):
        post_init(node)
        if in_step_search and size(node) >= 5:
            built.append(node)

    def searching(search, comp, starts):
        in_step_search.append(True)
        try:
            return find_step(search, comp, starts)
        finally:
            in_step_search.pop()

    scans = scanning(monkeypatch)
    monkeypatch.setattr(Op, "__post_init__", building)
    monkeypatch.setattr(solver._Search, "_find_step", searching)
    monkeypatch.setattr(
        solver._Search, "_preserves", lambda *args: checked.append(args[-1]) or preserves(*args)
    )
    annotated, d = discovered(SQUARE_OF_ODDS)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post, SolverConfig(domain_bound=2))
    assert report.assignment.step["g4"] == e("g4 - g4 ^ x")
    assert sum(stop - start for row, start, _, stop in scans if row_size(row) >= 5) > 1_000
    assert 0 < len(built) <= sum(size(t) >= 5 for step in checked for t in step.values())


# g4-(1+x) passes the first iteration of square-of-odds' runs, where x is
# 0, and fails the second: the step the invariant asks for is g4-1-(x+x).
SECOND_ITERATION_FAILS = e("g4 - (1 + x)")


def test_a_step_failing_at_the_second_iteration_is_never_built(monkeypatch):
    annotated, d = discovered(SQUARE_OF_ODDS)
    cfg = SolverConfig(domain_bound=2, max_candidates=8_000)
    built, checked = [], []
    post_init, preserves = Op.__post_init__, solver._Search._preserves
    monkeypatch.setattr(Op, "__post_init__", lambda node: post_init(node) or built.append(node))
    monkeypatch.setattr(
        solver._Search, "_preserves", lambda *args: checked.append(args[-1]) or preserves(*args)
    )

    def seen():
        got = built.count(SECOND_ITERATION_FAILS), checked.count({"g4": SECOND_ITERATION_FAILS})
        built.clear()
        checked.clear()
        return got

    got = solve_outcome(annotated, d, cfg)
    assert seen() == (0, 0)
    with pytest.MonkeyPatch.context() as mp:
        judging_nothing(mp)
        assert solve_outcome(annotated, d, cfg) == got
    assert seen() == (1, 1)  # built, then refuted by the full check


def test_the_budget_runs_out_at_a_step_the_later_iterations_refute(monkeypatch):
    # The budget runs out just at g4-(1+x), which passes the front store
    # and which the walk along the front run would refute.
    scans = scanning(monkeypatch)
    cfg = SolverConfig(domain_bound=2, max_candidates=6_396)
    [(_, detail, stats)] = assert_front_changes_nothing(SQUARE_OF_ODDS, cfg)
    assert "budget" in detail and stats.candidates_tried == cfg.max_candidates + 1
    row, start, survivor, stop = scans[-1]
    pool = _Pool([Num(0), Num(1), Num(2), Var("n"), Var("x"), Var("y"), Var("g4")], cfg.operator_pool)
    assert start <= stop == survivor and pool.template(row, stop) == SECOND_ITERATION_FAILS


def front_says(front, pool, candidate):
    """What the front says of a candidate whose last template has size 1
    or 3: the counts of refuting it, or None when the full check decides."""
    *heads, last = candidate.values()
    for n in (1, 3):
        for row in pool.rows(n):
            for j in range(len(pool.lists[row[3]])):
                if pool.template(row, j) == last:
                    return front.judge(front.current(), heads, row, j)
    raise ValueError(f"{pretty(last)} is in no row of size 1 or 3")


def exp_simple_front(*judged):
    """exp_simple's conjuncts, its starts with the initials n and k^n, its
    step pool and a front over them whose judged items are the runs of the
    given (k, iterations), in that order."""
    annotated, d = discovered(EXP_SIMPLE)
    runs = collect_trajectories(annotated, d.node, SolverConfig())
    conjuncts = top_conjuncts(d.putative)
    g_count, g_power = d.genvars
    starts = _starts({g_count: Var("n"), g_power: e("k ^ n")}, runs)
    atoms = [Num(0), Num(1), Num(2), Var("k"), Var("n"), Var("x"), Var("y"), Var(g_power)]
    pool = _Pool(atoms, SolverConfig().operator_pool)
    prepare = functools.partial(solver._front_run, conjuncts, evaluator.conjunction(conjuncts), pool)
    front = solver._Front(d.genvars, starts, prepare)
    for k, transitions in reversed(judged):
        i = next(
            i for i, (run, _) in enumerate(starts)
            if run.entry["k"] == k and len(run.transitions) == transitions
        )
        _to_front(starts, i)
        front.current()
    return conjuncts, starts, pool, front


def full_check(conjuncts, step, starts):
    """The full check's counts on the given starts, which it may reorder."""
    stats = SolveStats()
    _step_counterexample(conjuncts, step, starts, stats)
    return stats.eval_rejections, stats.stores_tested, stats.step_truncations


def test_a_division_step_still_truncates_on_the_k0_runs():
    # On a k = 0 run, g4/k fails where y*g4 = k^n admits every value of g4:
    # the run is truncated, by value at the front as in the full check.
    conjuncts, starts, pool, front = exp_simple_front((0, 1))
    step = {"g3": e("g3 - 1"), "g4": e("g4 / k")}
    assert front_says(front, pool, step) is None  # the one judged run passes
    stats = SolveStats()
    refuting, validated = _step_counterexample(conjuncts, step, starts, stats)
    assert refuting is None and validated > 0 and stats.step_truncations > 0
    # Where x + g3 = n pins g3's next value, the error of g3/k refutes.
    assert front_says(front, pool, {"g3": e("g3 / k"), "g4": e("g4 / k")}) == (1, 0, 0)
    # Behind the truncated run, a k = 1 run refutes g3 at its first
    # iteration; the truncation is counted once, as the full check counts it.
    conjuncts, starts, pool, front = exp_simple_front((0, 1), (1, 1))
    judged, k1_run = starts[:2], starts[1]
    step = {"g3": Var("g3"), "g4": e("g4 / k")}
    assert front_says(front, pool, step) == (0, 1, 1) == full_check(conjuncts, step, judged)
    assert starts[:2] == judged and judged[0] is k1_run  # both moved it to the front


def test_a_step_truncating_at_a_later_iteration_passes_the_run_by_value():
    # On a k = 0 run with n = 2, g4/(1-x) passes the first iteration, where
    # y = 0 afterwards admits every g4, and fails at the second, where it
    # divides by 0 and y = 0 still admits every g4: the run truncates there,
    # and the front passes it by value, as the full check goes on to the
    # other runs.
    conjuncts, starts, pool, front = exp_simple_front((0, 2))
    step = {"g3": e("g3 - 1"), "g4": e("g4 / (1 - x)")}
    first = front.current()
    # From g3 = 2 and g4 = 0^2, the step gives g3 = 1 and g4 = 0, which pass.
    second = first.outcome(("g3", "g4"), (1, 0))
    assert isinstance(second, solver._Level)
    assert second.outcome(("g3", "g4"), (0, None)) == (False, 0, 0, 1)  # passed, truncated
    row, j = ("/", 1, 7, 3), pool.lists[3].index(e("1 - x"))  # atom 7 is g4
    assert pool.template(row, j) == step["g4"] and front.judge(first, [step["g3"]], row, j) is None
    assert full_check(conjuncts, step, starts[:1]) == (0, 1, 1)
    # Behind it, a k = 1 run with n = 2 rejects the error at its second
    # iteration, where y*g4 = 1 pins g4: the counts are both runs' together.
    conjuncts, starts, pool, front = exp_simple_front((0, 2), (1, 2))
    judged = starts[:2]
    got = front.judge(front.current(), [step["g3"]], row, j)
    assert got == (1, 2, 1) == full_check(conjuncts, step, judged)
    assert starts[:2] == judged  # the full check moved the k = 1 run to the front too


@functools.cache
def front_case(name):
    """A program's conjuncts, generalisation variables (a count and a
    power), runs at bound 3, initials that hold on every entry, and atoms:
    exp_simple, whose k = 0 runs truncate a step that fails there, or
    square-multiply (exp_binary_pos) with its coarsened invariant."""
    if name == "exp_simple":
        annotated, d = discovered(EXP_SIMPLE)
        putative = d.putative
    else:
        annotated, (d,) = annotate_program(parse_program((PROGRAMS / "exp_binary_pos.imp").read_text(encoding="utf-8")))
        putative = e("x = {} /\\ y * {} = k ^ n".format(*d.genvars))
    runs = collect_trajectories(annotated, d.node, SolverConfig(domain_bound=3))
    g_count, g_power = d.genvars
    initial = {g_count: Var("n"), g_power: e("k ^ n")}
    atoms = [Num(v) for v in (0, 1, 2)] + [Var(n) for n in sorted(runs[0].entry)]
    return top_conjuncts(putative), d.genvars, runs, initial, atoms


def draw_template(data, pool):
    """A row of size 1, 3 or 5 of `pool` and a position in it."""
    row = data.draw(st.sampled_from(list(pool.rows(data.draw(st.sampled_from([1, 3, 5]))))))
    return row, data.draw(st.integers(0, len(pool.lists[row[3]]) - 1))


def refuter(kind, conjuncts, candidate, items, stats):
    """The full check of an initial or step candidate on `items`."""
    if kind == "initial":
        return _entry_counterexample(conjuncts, candidate, items, stats)
    return _step_counterexample(conjuncts, candidate, items, stats)[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["exp_simple", "square-multiply"]), st.sampled_from(["initial", "step"]), st.data())
def test_the_front_judges_as_the_full_check_on_its_judged_items(name, kind, data):
    # The judged items are those brought to the front, in a drawn refuter
    # order: a candidate's verdict there, its counts and the item moved to
    # the front are those of the full check run on those items alone.
    conjuncts, genvars, runs, initial, atoms = front_case(name)
    ops, holding = SolverConfig().operator_pool, evaluator.conjunction(conjuncts)
    if kind == "initial":
        items, pools = [r.entry for r in runs], [_Pool(atoms, ops)] * len(genvars)
        prepare = functools.partial(solver._entry_level, holding, pools[-1])
    else:
        items, pools = _starts(initial, runs), [_Pool(atoms + [Var(g)], ops) for g in genvars]
        prepare = functools.partial(solver._front_run, conjuncts, holding, pools[-1])
    *heads, (row, j) = [draw_template(data, pool) for pool in pools]
    heads = [pool.template(*h) for pool, h in zip(pools, heads)]
    candidate = dict(zip(genvars, heads + [pools[-1].template(row, j)]))
    # Most candidates fail at the front, so the items brought there last
    # are drawn among those with a `_Level` that the candidate passes.
    passing = [
        item for item in items
        if prepare(item) and refuter(kind, conjuncts, candidate, [item], SolveStats()) is None
    ]
    brought = data.draw(st.lists(st.sampled_from(items), min_size=1, max_size=4))
    brought += data.draw(st.lists(st.sampled_from(passing), min_size=1, max_size=4)) if passing else []
    front = solver._Front(genvars, items, prepare)
    for item in brought:
        _to_front(items, next(k for k, other in enumerate(items) if other is item))
        front.current()
    level = front.current()
    assume(level is not None)  # a run without iterations judges nothing
    p = next((k for k, item in enumerate(items) if front.fronts.get(id(item)) is None), len(items))
    judged, rest = items[:p], items[p:]
    stats = SolveStats()
    refuting = refuter(kind, conjuncts, candidate, judged, stats)
    counts = stats.eval_rejections, stats.stores_tested, stats.step_truncations
    assert front.judge(level, heads, row, j) == (None if refuting is None else counts)
    assert [id(item) for item in items] == [id(item) for item in judged + rest]


def test_a_later_iteration_starts_where_the_one_before_ended():
    # The full check asks nothing of a later pre-store beyond what it found
    # at the post-store of the iteration before, which is the same store; so
    # neither it nor the walk along the front run meets a store off the
    # invariant, and a step that passed an iteration is judged at the next.
    for path in CORPUS:
        annotated, found = annotate_program(parse_program(path.read_text(encoding="utf-8")))
        for d in found:
            for run in collect_trajectories(annotated, d.node, SolverConfig(domain_bound=3)):
                assert all(a[1] is b[0] for a, b in zip(run.transitions, run.transitions[1:]))


MULT = "{n >= 0} x := 0; y := 0; WHILE x < n DO BEGIN x := x + 1; y := y + k END {y = n * k}"


def test_a_two_variable_component_is_judged_at_the_front(monkeypatch):
    # Both conjuncts mention g1, so g1 and g2 are searched jointly, and
    # the front judges each pair by the pair of its values.
    t = parse_program(MULT)
    loop = t.program.second.second
    putative = e("x + g1 = n /\\ y + g2 * g1 = n * k")
    cfg = SolverConfig(domain_bound=4)
    with pytest.MonkeyPatch.context() as mp:
        judging_nothing(mp)
        expected = solve(t, loop, putative, ("g1", "g2"), t.post, cfg)
    refuted = set()  # (whether a step was judged, how many variables)
    outcome = solver._Level.outcome

    def recording(level, genvars, key):
        got = outcome(level, genvars, key)
        if isinstance(got, tuple) and got[0]:  # a step is judged where the variables have values
            refuted.add((set(genvars) <= level.values.env.keys(), len(key)))
        return got

    monkeypatch.setattr(solver._Level, "outcome", recording)
    report = solve(t, loop, putative, ("g1", "g2"), t.post, cfg)
    assert (report.assignment, report.verdict, report.stats) == (
        expected.assignment,
        expected.verdict,
        expected.stats,
    )
    assert report.assignment.initial == {"g1": Var("n"), "g2": Var("k")}
    assert report.assignment.step == {"g1": e("g1 - 1"), "g2": Var("k")}
    assert report.verdict == VerifiedUpToBound(4)
    assert refuted == {(True, 2), (False, 2)}


# --- conditional steps ----------------------------------------------------------------


BRANCHING = """{n >= 1}
x := n;
y := 1;
WHILE x > 0 DO
BEGIN
  IF x % 2 = 1 THEN y := y * 2;
  x := x - 1
END
{0 = 0}"""


def solve_branching(max_candidates):
    t = parse_program(BRANCHING)
    loop = t.program.second.second
    assert isinstance(loop, While)
    cfg = SolverConfig(operator_pool=("+", "-", "*"), max_candidates=max_candidates)
    return solve(t, loop, e("y = g"), ("g",), t.post, cfg)


def test_branching_body_gets_conditional_step():
    report = solve_branching(100_000)
    step = report.assignment.step["g"]
    assert isinstance(step, Case)
    assert step.cond == e("x % 2 = 1")
    assert report.verdict == VerifiedUpToBound(bound=6)
    # Candidates 6,331 to 6,682 are the conditional stage: the branch
    # templates of each size are prefiltered when the pairs first reach
    # it, trying the first transitions that refuted the last template first.
    assert report.stats == SolveStats(
        candidates_tried=6683, stores_tested=7879, runs_collected=6
    )
    # The chosen branches track the doubling and the idle path.
    store = {"x": 3, "y": 5, "n": 3, "g": 5}
    assert eval_expr(step.then, store) == 10
    assert eval_expr(step.other, store) == 5


@pytest.mark.parametrize(
    "budget, requirement, stores_tested",
    [
        (6_335, 2, 7_309),  # prefiltering the then branch's templates of size 1
        (6_400, 2, 7_397),  # prefiltering the else branch's size 3, after the first pairs
        (6_500, 2, 7_538),  # among the pairs of a size-1 and a size-3 template
        (6_682, 3, 7_830),  # at the first final
    ],
)
def test_the_budget_runs_out_inside_the_conditional_stage_and_finals(
    budget, requirement, stores_tested
):
    with pytest.raises(SolverFailure) as err:
        solve_branching(budget)
    assert err.value.requirement == requirement
    assert "budget" in err.value.detail
    assert err.value.stats == SolveStats(
        candidates_tried=budget + 1, stores_tested=stores_tested, runs_collected=6
    )


def branching_loop(c, branches, branch_first):
    """A loop counting x up to n whose branch on x's parity updates y, at
    the head of the body or after the count."""
    then, other = branches
    branch = f"IF x % 2 = 1 THEN y := {then} ELSE y := {other}"
    body = f"{branch}; x := x + 1" if branch_first else f"x := x + 1; {branch}"
    return f"{{n >= 0}} x := 0; y := {c}; WHILE x < n DO BEGIN {body} END {{0 = 0}}"


branching_loops = st.builds(
    branching_loop,
    st.integers(0, 2),
    st.sampled_from([("y * 2", "y"), ("y + 1", "y"), ("y * 2", "y + 1"), ("y + 2", "y * y"), ("y", "y + k")]),
    st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(branching_loops, st.integers(1, 8_000))
def test_the_front_check_changes_no_outcome_on_branching_loops(source, budget):
    # Solving y = g, the unconditional steps run out near candidate 2,850
    # (4,234 with k), and a drawn budget runs out anywhere from the
    # initials to the conditional stage's prefilter and its pairs.
    cfg = SolverConfig(domain_bound=3, max_candidates=budget, operator_pool=("+", "*"))
    assert_front_changes_nothing(source, cfg, putative=e("y = g"))


def test_branch_templates_refuted_at_the_front_are_never_built(monkeypatch, programs):
    # Square-multiply's conditional stage prefilters the 9 atoms for each
    # branch and the 486 templates of size 3 for the then branch on the
    # first transitions; only the few that reach the full check there
    # become nodes.
    sifting, built, checked = [], [], []
    post_init, sift, counterexample = Op.__post_init__, solver._Kept.__call__, solver._step_counterexample

    def building(node):
        post_init(node)
        if sifting:
            built.append(node)

    def sifted(kept, n):
        sifting.append(n)
        try:
            return sift(kept, n)
        finally:
            sifting.pop()

    def checking(conjuncts, step, starts, stats):
        if sifting:
            checked.append(step)
        return counterexample(conjuncts, step, starts, stats)

    monkeypatch.setattr(Op, "__post_init__", building)
    monkeypatch.setattr(solver._Kept, "__call__", sifted)
    monkeypatch.setattr(solver, "_step_counterexample", checking)
    annotated, (d,) = annotate_program(parse_program((programs / "exp_binary_pos.imp").read_text(encoding="utf-8")))
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert isinstance(report.assignment.step[d.genvars[-1]], Case)
    assert report.verdict == VerifiedUpToBound(6)
    assert 0 < len(built) <= len(checked) < 20
    built.clear()
    checked.clear()
    with pytest.MonkeyPatch.context() as mp:
        judging_nothing(mp)
        assert solve(annotated, d.node, d.putative, d.genvars, d.post).stats == report.stats
    assert len(checked) == 9 + 9 + 486  # the full check alone tries them all


# The branch follows x := x + 1, so its condition divides by x = 0 at the
# loop head, where the conditional stage splits the runs by it.
DIVIDING_BRANCH = (
    "{n >= 1} x := 0; y := 0; WHILE x < n DO BEGIN x := x + 1; "
    "IF n / x = 1 THEN y := y + 1 ELSE y := y END {y = n - n / 2}"
)


def test_a_branch_condition_failing_at_the_loop_head_takes_neither_branch(monkeypatch):
    # The coarsened invariant's g7 runs out of unconditional steps at
    # candidate 28,692.  No run takes a branch, so every branch template
    # is kept, and the first pairs fail the full check, where the Case
    # fails to evaluate and the invariant pins g7; the budget runs out
    # among them.
    stages = []
    conditional_steps = solver._Search._conditional_steps

    def entering(search, *args):
        stages.append(search.stats.candidates_tried)
        yield from conditional_steps(search, *args)

    monkeypatch.setattr(solver._Search, "_conditional_steps", entering)
    cfg = SolverConfig(max_candidates=28_800)
    [(requirement, detail, stats)] = assert_front_changes_nothing(DIVIDING_BRANCH, cfg)
    assert requirement == 2 and "budget" in detail
    assert stages == [28_692, 28_692]  # with the front and without
    assert stats.eval_rejections == 7_487  # 49 pairs of atoms rejected by the full check


# --- independent requirement checking ----------------------------------------------


def test_check_requirements_agrees_with_solver():
    annotated, d = discovered(EXP_SIMPLE)
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    verdict = check_requirements(
        annotated, d.node, d.putative, report.assignment, d.post
    )
    assert verdict == VerifiedUpToBound(bound=6)


def test_check_requirements_rejects_wrong_step():
    annotated, d = discovered(EXP_SIMPLE)
    g_count, g_power = d.genvars
    wrong = Assignment(
        initial={g_count: Var("n"), g_power: e("k ^ n")},
        step={g_count: e(f"{g_count} - 1"), g_power: e(f"{g_power} * k")},
        final={g_count: Num(0), g_power: Num(1)},
    )
    verdict = check_requirements(annotated, d.node, d.putative, wrong, d.post)
    assert isinstance(verdict, Failed)
    assert verdict.requirement == 2


def test_check_requirements_rejects_wrong_initial():
    annotated, d = discovered(EXP_SIMPLE)
    g_count, g_power = d.genvars
    wrong = Assignment(
        initial={g_count: Num(0), g_power: e("k ^ n")},
        step={g_count: e(f"{g_count} - 1"), g_power: e(f"{g_power} / k")},
        final={g_count: Num(0), g_power: Num(1)},
    )
    verdict = check_requirements(annotated, d.node, d.putative, wrong, d.post)
    assert isinstance(verdict, Failed)
    assert verdict.requirement == 1
    assert verdict.store()["x"] == 0  # a genuine loop-entry store


def test_check_requirements_refutes_post_violated_at_observed_exit():
    # exp_simple's invalid twin: y ends as k^n, not k^(n+1).  With the
    # finals g3 = 0, g4 = 1 the invariant implies the post on every store,
    # but the step walks g4 to k, not 1, on exit; the runs' exit stores
    # show the post failing.
    annotated, d = discovered(EXP_SIMPLE.replace("{y = k ^ n}", "{y = k ^ (n + 1)}"))
    report = solve(annotated, d.node, d.putative, d.genvars, d.post)
    assert {g: pretty(x) for g, x in report.assignment.final.items()} == {"g3": "0", "g4": "1"}
    assert report.verdict == Failed(3, (("k", 0), ("n", 0), ("x", 0), ("y", 1)))


def test_check_requirements_rejects_insufficient_final():
    src = "{n >= 0} x := 0; y := 1; WHILE x < n DO x := x + 1 {y = 0}"
    t = parse_program(src)
    loop = t.program.second.second
    putative = e("x + g = n")
    assignment = Assignment(
        initial={"g": Var("n")}, step={"g": e("g - 1")}, final={"g": Num(0)}
    )
    verdict = check_requirements(t, loop, putative, assignment, t.post)
    assert isinstance(verdict, Failed)
    assert verdict.requirement == 3


def test_check_requirements_plain_invariant_no_genvars():
    src = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
{x <= n /\\ y = k ^ x}
BEGIN
  x := x + 1;
  y := y * k
END
{y = k ^ n}"""
    t = parse_program(src)
    loop = t.program.second.second
    empty = Assignment(initial={}, step={}, final={})
    verdict = check_requirements(t, loop, loop.invariant, empty, t.post)
    assert verdict == VerifiedUpToBound(bound=6)


def test_check_requirements_catches_wrong_plain_invariant():
    src = "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x = n}"
    t = parse_program(src)
    loop = t.program.second
    empty = Assignment(initial={}, step={}, final={})
    verdict = check_requirements(t, loop, e("x = 0"), empty, t.post)
    assert isinstance(verdict, Failed)
    assert verdict.requirement == 2
