"""Concrete execution: natural-number arithmetic, error outcomes, fuel,
and the record of visits to a watched loop.

The expected stores below were computed by hand from the programs and
frozen before the evaluator existed.  The compiled evaluator is also
checked against the tree-walking interpreter it replaced, kept below as
the oracle.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopinv import evaluator
from loopinv.evaluator import (
    ARITHMETIC,
    MAX_BITS,
    EvalError,
    ExecError,
    Finished,
    FuelExhausted,
    ceiling,
    eval_expr,
    exec_stmt,
    first_store,
    holds,
    stores,
)
from loopinv.parser import parse_expression, parse_program, pretty
from loopinv.terms import (
    BOOL_BINOPS,
    NAT_OPS,
    REL_OPS,
    Assign,
    Case,
    Ctor,
    Num,
    Op,
    Var,
    While,
    free_vars,
    substatements,
    view,
)


def e(text):
    return parse_expression(text)


# --- arithmetic conventions -------------------------------------------------


def test_monus_truncates_at_zero():
    assert eval_expr(e("3 - 5"), {}) == 0
    assert eval_expr(e("5 - 3"), {}) == 2


def test_division_is_euclidean():
    assert eval_expr(e("7 / 2"), {}) == 3
    assert eval_expr(e("7 % 2"), {}) == 1


def test_division_by_zero_raises():
    with pytest.raises(EvalError) as err:
        eval_expr(e("1 / 0"), {})
    assert err.value.kind == "DivByZero"
    with pytest.raises(EvalError):
        eval_expr(e("0 / 0"), {})
    with pytest.raises(EvalError):
        eval_expr(e("1 % 0"), {})
    # A dividend past Python's 4,300-digit printing limit (a sum can grow
    # that wide) still raises EvalError, not a ValueError from its message.
    with pytest.raises(EvalError):
        eval_expr(e("x / 0"), {"x": 2**20000})


def test_zero_to_the_zero_is_one():
    assert eval_expr(e("0 ^ 0"), {}) == 1
    assert eval_expr(e("0 ^ 3"), {}) == 0
    assert eval_expr(e("2 ^ 10"), {}) == 1024


def test_products_and_powers_wider_than_the_cap_overflow():
    assert eval_expr(e("2 ^ 4095"), {}) == 2**4095  # 4,096 bits
    big = {"x": 2**4000, "y": 2**96}  # the product has 4,097 bits
    assert eval_expr(e("x * (y - 1)"), big) == 2**4000 * (2**96 - 1)
    # 4^2049 is rejected by its base's width before it is computed.
    for text, store in (("2 ^ 4096", {}), ("4 ^ 2049", {}), ("x * y", big)):
        with pytest.raises(EvalError) as err:
            eval_expr(e(text), store)
        assert err.value.kind == "Overflow"
        assert holds(e(f"{text} = 0"), store) is False
    # Bases 0 and 1 never overflow, whatever the exponent.
    assert eval_expr(e("1 ^ x"), big) == 1
    assert eval_expr(e("0 ^ x"), big) == 0


def test_unbound_variable_raises():
    with pytest.raises(EvalError) as err:
        eval_expr(e("x + 1"), {})
    assert err.value.kind == "UnboundVar"


def test_short_circuit_left_to_right():
    # The right operand never evaluates, so its division by zero is unseen.
    assert eval_expr(e("1 = 2 /\\ 1 / 0 = 0"), {}) is False
    assert eval_expr(e("1 = 1 \\/ 1 / 0 = 0"), {}) is True
    assert eval_expr(e("1 = 2 => 1 / 0 = 0"), {}) is True
    assert eval_expr(e("FALSE /\\ 1 / 0 = 0"), {}) is False
    assert eval_expr(e("TRUE \\/ 1 / 0 = 0"), {}) is True
    # On ill-sorted operands a connective returns what decided it: the
    # left operand as it is, or the right one made boolean.
    cases = [("∧", 0, 5, 0), ("∧", 2, 5, True), ("∨", 5, 0, 5), ("∨", 0, 5, True)]
    for op, left, right, value in cases + [("⇒", 0, 0, True)]:
        got = eval_expr(Op(op, (Num(left), Num(right))), {})
        assert (type(got), got) == (type(value), value)


def test_holds_absorbs_errors():
    with pytest.raises(EvalError):
        eval_expr(e("x / y = 1"), {"x": 1, "y": 0})
    assert holds(e("x / y = 1"), {"x": 1, "y": 0}) is False


# --- frozen execution oracles ----------------------------------------------


def test_exponentiation_by_iteration():
    src = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
BEGIN
  x := x + 1;
  y := y * k
END
{y = k ^ n}"""
    t = parse_program(src)
    out = exec_stmt(t.program, {"n": 3, "k": 2, "x": 0, "y": 0}, fuel=100)
    assert isinstance(out, Finished)
    assert out.store["x"] == 3 and out.store["y"] == 8
    assert holds(t.post, out.store)


def test_exponentiation_by_squaring():
    src = """{n >= 0}
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
    t = parse_program(src)
    out = exec_stmt(t.program, {"n": 5, "k": 3, "x": 0, "y": 0, "z": 0}, fuel=100)
    assert isinstance(out, Finished)
    assert out.store["y"] == 243


def test_holds_on_frozen_store():
    assert holds(e("x >= n /\\ y = k ^ n"), {"x": 3, "n": 3, "y": 8, "k": 2})


# --- outcomes ---------------------------------------------------------------


def test_fuel_counts_loop_iterations():
    t = parse_program("{n >= 0} WHILE 0 = 0 DO skip {n >= 0}")
    assert isinstance(exec_stmt(t.program, {"n": 0}, fuel=50), FuelExhausted)
    t2 = parse_program("{n >= 0} WHILE x < n DO x := x + 1 {x = n}")
    assert isinstance(exec_stmt(t2.program, {"n": 10, "x": 0}, fuel=10), Finished)
    assert isinstance(exec_stmt(t2.program, {"n": 10, "x": 0}, fuel=9), FuelExhausted)


def test_exec_error_outcome():
    t = parse_program("{n >= 0} x := 1 / n {n >= 0}")
    out = exec_stmt(t.program, {"n": 0, "x": 0}, fuel=10)
    assert isinstance(out, ExecError) and out.kind == "DivByZero"


def test_exec_overflow_outcome():
    # 2, 4, 256, then 256^256 = 2^2048, then (2^2048)^(2^2048).
    t = parse_program("{n >= 0} x := 2; WHILE 0 = 0 DO x := x ^ x {n >= 0}")
    out = exec_stmt(t.program, {"n": 0, "x": 0}, fuel=10)
    assert isinstance(out, ExecError) and out.kind == "Overflow"


def test_exec_does_not_mutate_input_store():
    t = parse_program("{n >= 0} x := 5 {n >= 0}")
    store = {"n": 0, "x": 0}
    exec_stmt(t.program, store, fuel=10)
    assert store == {"n": 0, "x": 0}


def test_block_locals_saved_and_restored():
    src = "{n >= 0} t := 9; BEGIN VAR t; t := 1; x := t END; y := t {n >= 0}"
    t = parse_program(src)
    out = exec_stmt(t.program, {"n": 0, "t": 0, "x": 0, "y": 0}, fuel=10)
    assert isinstance(out, Finished)
    assert out.store["x"] == 1 and out.store["y"] == 9


def test_watch_records_the_store_at_each_guard_test():
    t = parse_program("{n >= 0} WHILE x < n DO x := x + 1 {x = n}")
    out = exec_stmt(t.program, {"n": 2, "x": 0}, fuel=10, watch=t.program)
    assert isinstance(out, Finished)
    assert [[s["x"] for s in visit] for visit in out.visits] == [[0, 1, 2]]
    assert out.visits[0][0] == {"n": 2, "x": 0} and out.visits[0][-1] == out.store
    assert exec_stmt(t.program, {"n": 2, "x": 0}, fuel=10).visits == ()


NESTED = """{n >= 0}
i := 0;
WHILE i < 2 DO
BEGIN
  j := 0;
  WHILE j <= i DO j := j + 1 {j = i + 1};
  i := i + 1
END
{i = 2}"""


def test_watched_inner_loop_gives_one_visit_per_entry_in_exit_order():
    t = parse_program(NESTED)
    inner = next(st for st in substatements(t.program) if isinstance(st, While) and st.post)
    out = exec_stmt(t.program, {"n": 0, "i": 0, "j": 0}, fuel=10, watch=inner)
    assert isinstance(out, Finished)
    assert [[(s["i"], s["j"]) for s in visit] for visit in out.visits] == [
        [(0, 0), (0, 1)],
        [(1, 0), (1, 1), (1, 2)],
    ]


def test_fuel_exhausted_run_records_no_visits():
    # The inner loop's first visit completes; the second runs out of fuel.
    t = parse_program(NESTED)
    inner = next(st for st in substatements(t.program) if isinstance(st, While) and st.post)
    assert exec_stmt(t.program, {"n": 0, "i": 0, "j": 0}, fuel=4, watch=inner) == FuelExhausted()


# --- store enumeration ------------------------------------------------------


@given(st.lists(st.sampled_from("abcdefg"), unique=True, max_size=4), st.integers(0, 5))
def test_stores_are_every_store_once_smallest_maximum_first(names, bound):
    seen = list(stores(names, bound))
    assert all(list(s) == names for s in seen)
    values = [tuple(s.values()) for s in seen]
    assert len(set(values)) == len(values) == (bound + 1) ** len(names)
    assert all(v <= bound for vs in values for v in vs)
    # Maxima never decrease; stores with equal maxima are in lexicographic order.
    keys = [(max(vs, default=0), vs) for vs in values]
    assert keys == sorted(keys)
    if not names:
        assert seen == [{}]


# --- property: evaluation is a function of the store ------------------------


@given(st.integers(0, 30), st.integers(0, 30))
def test_eval_matches_python_semantics(a, b):
    store = {"a": a, "b": b}
    assert eval_expr(e("a + b"), store) == a + b
    assert eval_expr(e("a - b"), store) == max(a - b, 0)
    assert eval_expr(e("a * b"), store) == a * b
    if b:
        assert eval_expr(e("a / b"), store) == a // b
        assert eval_expr(e("a % b"), store) == a % b
    assert eval_expr(e("a <= b"), store) == (a <= b)


_naturals = st.integers(0, 70) | st.sampled_from([2**2048, 2**4095, 2**4096, 2**4097])


@given(st.sampled_from(NAT_OPS), _naturals, _naturals)
@example("/", 7, 0)
@example("%", 0, 0)
@example("^", 0, 0)
@example("^", 2, 4096)
@example("^", 2, 4095)
@example("^", 2**4096, 1)
@example("*", 2**4096, 2)
@example("*", 2**4097, 0)
@example("-", 3, 2**4097)
def test_value_level_arithmetic_is_the_evaluators(op, x, y):
    # The operators on values, which the witness search applies to operand
    # values, agree with evaluation, errors and their kinds included.
    def outcome(f):
        try:
            return f()
        except EvalError as err:
            return err.kind

    assert set(ARITHMETIC) == set(NAT_OPS)
    want = outcome(lambda: eval_expr(Op(op, (Num(x), Num(y))), {}))
    assert outcome(lambda: ARITHMETIC[op]((x, y))) == want


# --- the tree-walking oracle ------------------------------------------------


def tree_eval(e, store):
    """The interpreter that the compiled evaluator replaced, verbatim but
    for its name."""
    match e:
        case Var(name):
            try:
                return store[name]
            except KeyError:
                raise EvalError("UnboundVar", name) from None
        case Num(value):
            return value
        case Ctor(name):
            return name == "True"
        case Op("¬", (a,)):
            return not tree_eval(a, store)
        case Op("∧", (a, b)):
            return tree_eval(a, store) and bool(tree_eval(b, store))
        case Op("∨", (a, b)):
            return tree_eval(a, store) or bool(tree_eval(b, store))
        case Op("⇒", (a, b)):
            return (not tree_eval(a, store)) or bool(tree_eval(b, store))
        case Op(op, (a, b)):
            x = tree_eval(a, store)
            y = tree_eval(b, store)
            match op:
                case "+":
                    return x + y
                case "-":
                    return max(x - y, 0)  # monus
                case "*":
                    v = x * y
                    if v.bit_length() > MAX_BITS:
                        raise EvalError("Overflow", f"* result wider than {MAX_BITS} bits")
                    return v
                case "/":
                    if y == 0:
                        raise EvalError("DivByZero", "/ by zero")
                    return x // y
                case "%":
                    if y == 0:
                        raise EvalError("DivByZero", "% by zero")
                    return x % y
                case "^":
                    # x ≥ 2^(bitlen(x)-1): reject what must be too wide before computing.
                    too_wide = (x.bit_length() - 1) * y > MAX_BITS
                    if too_wide or (v := x**y).bit_length() > MAX_BITS:  # 0^0 = 1
                        raise EvalError("Overflow", f"^ result wider than {MAX_BITS} bits")
                    return v
                case "<":
                    return x < y
                case ">":
                    return x > y
                case "≤":
                    return x <= y
                case "≥":
                    return x >= y
                case "=":
                    return x == y
                case "≠":
                    return x != y
        case Case(cond, then, other):
            return tree_eval(then if tree_eval(cond, store) else other, store)
    raise TypeError(f"not an Expr: {e!r}")


def tree_holds(e, store):
    try:
        v = tree_eval(e, store)
    except EvalError:
        return False
    if not isinstance(v, bool):
        raise ValueError(f"holds() needs a boolean expression, got value {v!r}")
    return v


def outcome(f, e, store):
    """(type, value) of a result, since True == 1, or the error raised."""
    try:
        v = f(e, store)
    except EvalError as err:
        return "EvalError", err.kind, err.detail
    except ValueError as err:
        return "ValueError", str(err)
    return type(v), v


NAMES = ("x", "y", "z")
# Mostly small, so that most draws evaluate without error, and a few at
# the cap: 2^4095 has 4,096 bits, and 2^4096 one more.
numbers = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 2**4095, 2**4096))
bool_leaves = st.sampled_from([Ctor("True"), Ctor("False")])
nat_leaves = st.one_of(st.sampled_from(NAMES).map(Var), numbers.map(Num))


def binary(ops, left, right):
    return st.builds(lambda op, a, b: Op(op, (a, b)), st.sampled_from(ops), left, right)


# Ill-sorted as often as not: any operator over any operands.
any_exprs = st.recursive(
    nat_leaves | bool_leaves,
    lambda kids: kids.map(lambda a: Op("¬", (a,)))
    | binary(NAT_OPS + REL_OPS + BOOL_BINOPS, kids, kids)
    | st.builds(Case, kids, kids, kids),
    max_leaves=12,
)
# Well-sorted naturals, with relations as the conditions of their cases,
# and well-sorted formulas over them.
nat_exprs = st.recursive(
    nat_leaves,
    lambda kids: binary(NAT_OPS, kids, kids)
    | st.builds(Case, binary(REL_OPS, kids, kids), kids, kids),
    max_leaves=8,
)
formulas = st.recursive(
    bool_leaves | binary(REL_OPS, nat_exprs, nat_exprs),
    lambda kids: kids.map(lambda a: Op("¬", (a,))) | binary(BOOL_BINOPS, kids, kids),
    max_leaves=4,
)
# Every variable bound, or only some.
store_draws = st.fixed_dictionaries(dict.fromkeys(NAMES, numbers)) | st.dictionaries(
    st.sampled_from(NAMES), numbers
)


def subterms(e):
    yield e
    if not isinstance(e, Var):
        for kid in view(e)[1]:
            yield from subterms(kid)


def agree(expr, store):
    # Subterms run after the whole, from the closures that it compiled.
    for sub in subterms(expr):
        assert outcome(eval_expr, sub, store) == outcome(tree_eval, sub, store)
        assert outcome(holds, sub, store) == outcome(tree_holds, sub, store)


@settings(max_examples=300)
@given(any_exprs, store_draws)
def test_compiled_evaluation_matches_the_tree_walker(expr, store):
    agree(expr, store)


@settings(max_examples=200)
@given(nat_exprs | formulas, store_draws)
def test_compiled_evaluation_matches_the_tree_walker_when_well_sorted(expr, store):
    agree(expr, store)


# --- the first qualifying store --------------------------------------------


def scanned(names, holding, failing, bound):
    """`first_store` as the plain scan of `stores` that it replaces."""
    for position, store in enumerate(stores(names, bound), 1):
        if all(holds(c, store) for c in holding) and not any(holds(f, store) for f in failing):
            return store, position
    return None, (bound + 1) ** len(names)


@st.composite
def boxes(draw):
    """Names, formulas over them that must hold and that must not, and a
    bound.  A holding formula may be an equation with one variable alone,
    or under + and *, on one side, which pins it when it occurs there
    once and nowhere else."""
    names = draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True))
    pinned = draw(st.sampled_from(names))

    def terms(names):
        leaves = st.sampled_from([Num(0), Num(1), Num(2), Num(3), *map(Var, names)])
        return st.recursive(leaves, lambda kids: binary(NAT_OPS, kids, kids), max_leaves=4)

    relations = binary(REL_OPS, terms(names), terms(names))
    others = terms([n for n in names if n != pinned])
    chains = st.recursive(
        st.just(Var(pinned)),
        lambda kids: binary(("+", "*"), kids, others) | binary(("+", "*"), others, kids),
        max_leaves=3,
    )
    equations = st.builds(lambda a, b: Op("=", (a, b)), chains, others | terms(names))
    holding = draw(st.lists(equations, max_size=2)) + draw(st.lists(relations, max_size=1))
    failing = draw(st.lists(relations | binary(BOOL_BINOPS, relations, relations), max_size=1))
    return names, holding, failing, draw(st.integers(0, 5))


@given(boxes())
@example((["x", "y"], [e("y = x * 2")], [e("y < 3")], 5))  # y is pinned
@example((["k", "x", "y"], [e("y = x * k"), e("x > 0")], [e("y >= k")], 4))  # k is pinned
@example((["x", "y"], [e("x = x + y")], [], 3))  # x occurs twice: y is pinned to 0
@example((["x", "y"], [e("x < y")], [e("x + 1 = y")], 5))  # nothing is pinned
@example((["x", "y"], [e("y = 7")], [], 5))  # pinned beyond the bound
def test_first_store_is_the_plain_scans(box):
    names = box[0]
    store, position = first_store(*box)
    assert (store, position) == scanned(*box)
    assert store is None or list(store) == names


def test_a_solved_variable_takes_one_value_per_store_of_the_others(monkeypatch):
    # y = x + k pins k to y - x where y >= x: of the 5 * 5 stores of x and
    # y, 15 get one value of k, and the others none, so no store qualifies
    # after testing 15 stores of the 125.
    tested = []
    monkeypatch.setattr(evaluator, "holds", lambda c, s: tested.append(s) or holds(c, s))
    assert first_store(["k", "x", "y"], [e("y = x + k")], [e("y >= k")], 4) == (None, 125)
    assert len({tuple(s.values()) for s in tested}) == 15


@settings(max_examples=200)
@given(nat_exprs | formulas, st.integers(0, 4))
def test_ceiling_bounds_every_value_in_the_box(expr, bound):
    top = ceiling(expr, bound)
    if top is not None:  # then nothing fails to evaluate in the box
        for store in stores(sorted(free_vars(expr)), bound):
            assert eval_expr(expr, store) <= top


def test_ceiling_fails_on_what_may_raise():
    assert ceiling(e("x / 2 + y % 3 * x"), 6) == 6 + 6 * 6
    assert ceiling(e("x / 0"), 6) is None and ceiling(e("x / y"), 6) is None
    assert ceiling(e("x ^ 3"), 6) == 216 and ceiling(e("x ^ y"), 0) == 1
    assert ceiling(e("x ^ (x ^ x)"), 6) is None  # 6^46656 is wider than MAX_BITS
    assert ceiling(e("x * x"), 2**2048) is None
    assert ceiling(e("x < 1 / y"), 6) is None and ceiling(e("x < 1 \\/ y = 2"), 6) == 1


# --- evaluation order and short-circuiting ------------------------------------


def test_operands_evaluate_left_to_right():
    # The left operand's error is the one raised.
    for text, kind in (("1 / 0 + 2 ^ 5000", "DivByZero"), ("2 ^ 5000 + 1 / 0", "Overflow")):
        with pytest.raises(EvalError) as err:
            eval_expr(e(text), {})
        assert err.value.kind == kind


def test_case_with_a_failing_condition_raises():
    case = Case(e("x / 0 = 1"), Num(1), Num(2))
    with pytest.raises(EvalError) as err:
        eval_expr(case, {"x": 1})
    assert err.value.kind == "DivByZero"
    assert holds(Op("=", (case, Num(1))), {"x": 1}) is False


def test_only_expressions_evaluate():
    with pytest.raises(TypeError):
        eval_expr(Assign("x", Num(1)), {})
    with pytest.raises(TypeError):
        eval_expr(3, {})


# --- the per-node cache -----------------------------------------------------


def test_the_cache_is_invisible():
    text = "x % 2 = 1 /\\ y * k ^ n >= x - 1"
    node, twin = e(text), e(text)
    before = (hash(node), repr(node), pretty(node))
    store = {"x": 3, "y": 2, "k": 2, "n": 1}
    assert eval_expr(node, store) is True
    assert (hash(node), repr(node), pretty(node)) == before
    assert node == twin and hash(node) == hash(twin) and repr(node) == repr(twin)
    # The equal node built separately, not evaluated until now, agrees.
    assert eval_expr(twin, store) is True


def test_a_node_compiles_once_and_shares_its_children(monkeypatch):
    made = []
    plus = evaluator._OPS["+"]
    monkeypatch.setitem(evaluator._OPS, "+", lambda a, b: made.append(1) or plus(a, b))
    shared = e("x + 1")
    node = Op("*", (shared, shared))
    assert [eval_expr(node, {"x": x}) for x in range(3)] == [1, 4, 9]
    assert eval_expr(shared, {"x": 5}) == 6
    assert len(made) == 1
