"""The benchmark's known answers, re-derived without loopinv.

Each family is transcribed into Python (monus subtraction, euclidean
division) and run over every input up to the bound; the hand-written
answer in known.py must agree.  ``verify`` programs are checked the way
``loopinv verify`` checks them: the global condition, then establishment,
preservation and sufficiency over every store up to the bound.  Nothing
here imports loopinv.

Run with:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import known  # noqa: E402
import workloads  # noqa: E402

BOUND = 6
REPO = Path(__file__).resolve().parents[2]


def monus(a: int, b: int) -> int:
    return max(a - b, 0)


def stores(*names: str, bound: int = BOUND):
    for values in itertools.product(range(bound + 1), repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# Transcriptions: (precondition, program, postcondition) over a dict store.
# The loop bodies run at most a few hundred iterations on these inputs.


def count_up(c, twin):
    def run(s):
        x = c
        while x < s["n"]:
            x += 1
        return {**s, "x": x}

    post = (lambda s: s["x"] == s["n"] and s["n"] <= 5) if twin else (lambda s: s["x"] == s["n"])
    return (lambda s: s["n"] >= c), run, post


def _sum_post(c, twin):
    return lambda s: s["y"] == s["n"] * s["k"] + c + twin


def mult_up(c, twin):
    def run(s):
        x, y = 0, c
        while x < s["n"]:
            x, y = x + 1, y + s["k"]
        return {**s, "x": x, "y": y}

    return (lambda s: True), run, _sum_post(c, twin)


def mult_down(c, twin):
    def run(s):
        x, y = s["n"], c
        while x > 0:
            x, y = monus(x, 1), y + s["k"]
        return {**s, "x": x, "y": y}

    return (lambda s: True), run, _sum_post(c, twin)


def _power_post(c, twin):
    return lambda s: s["y"] == c * s["k"] ** (s["n"] + twin)


def exp_simple(c, twin):
    def run(s):
        x, y = 0, c
        while x < s["n"]:
            x, y = x + 1, y * s["k"]
        return {**s, "x": x, "y": y}

    return (lambda s: True), run, _power_post(c, twin)


def exp_nested(c, twin):
    def run(s):
        x, y = 0, c
        while x < s["n"]:
            z, v = 0, 0
            while z < s["k"]:
                z, v = z + 1, v + y
            x, y = x + 1, v
        return {**s, "x": x, "y": y}

    return (lambda s: True), run, _power_post(c, twin)


def square_multiply(low):
    def run(s):
        x, y, z = s["n"], 1, s["k"]
        while x > 0:
            if x % 2 == 1:
                y = y * z
            z = z * z
            x = x // 2
        return {**s, "x": x, "y": y, "z": z}

    return (lambda s: s["n"] >= low), run, (lambda s: s["y"] == s["k"] ** s["n"])


def square_of_odds():
    def run(s):
        x, y = 0, 0
        while x < s["n"]:
            y = y + 2 * x + 1
            x = x + 1
        return {**s, "x": x, "y": y}

    return (lambda s: True), run, (lambda s: s["y"] == s["n"] * s["n"])


def swapped():
    """programs/exp_swapped.imp: exp_simple with y := k * y."""
    return exp_simple(1, False)


DISCOVER = {
    "count-up/c0": count_up(0, False),
    "count-up/c2": count_up(2, False),
    "count-up/twin": count_up(0, True),
    "mult-up/c0": mult_up(0, False),
    "mult-up/c3": mult_up(3, False),
    "mult-up/twin": mult_up(0, True),
    "mult-down/c0": mult_down(0, False),
    "mult-down/c3": mult_down(3, False),
    "mult-down/twin": mult_down(0, True),
    "exp_simple/c1": exp_simple(1, False),
    "exp_simple/c3": exp_simple(3, False),
    "exp_simple/twin": exp_simple(1, True),
    "exp_nested/c1": exp_nested(1, False),
    "exp_nested/c3": exp_nested(3, False),
    "exp_nested/twin": exp_nested(1, True),
    "square-multiply/n0": square_multiply(0),
    "square-multiply/n1": square_multiply(1),
    "square-of-odds": square_of_odds(),
}

CORPUS = {
    "exp_simple.imp": exp_simple(1, False),
    "exp_nested.imp": exp_nested(1, False),
    "exp_binary.imp": square_multiply(0),
    "exp_binary_pos.imp": square_multiply(1),
    "exp_swapped.imp": swapped(),
}


def triple_status(pre, run, post, bound=BOUND) -> str:
    """valid when the post holds after every run from an input up to the
    bound that satisfies the pre.  Inputs are n and k; the programs read
    no other variable before writing it."""
    for s in stores("n", "k", bound=bound):
        if pre(s) and not post(run(s)):
            return known.INVALID
    return known.VALID


@pytest.mark.parametrize("pid", sorted(DISCOVER))
def test_discover_answers(pid):
    assert triple_status(*DISCOVER[pid]) == known.DISCOVER[pid]


@pytest.mark.parametrize("pid", ["square-multiply/n0", "square-multiply/n1", "square-of-odds"])
def test_deep_answers_hold_at_the_deep_bound(pid):
    assert triple_status(*DISCOVER[pid], bound=3) == known.DISCOVER[pid]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_answers(name):
    assert (REPO / "programs" / name).is_file()
    mode, answer = known.CORPUS[name]
    assert mode == "discover"
    assert triple_status(*CORPUS[name]) == answer


def test_every_generated_program_has_an_answer():
    for workload in workloads.WORKLOADS:
        for p in workloads.generate(workload, 0):
            answer = known.answer(p.id, p.mode)
            if p.mode == "discover":
                assert p.id in DISCOVER
            assert answer in (known.VALID, known.INVALID, known.HOLDS, known.FAILS, known.DERIVES)


# ---------------------------------------------------------------------------
# verify: the loop's classical conditions, checked as loopinv states them.
# Each program is `prefix; WHILE guard DO {inv} body` with post `post`.
# entry(s) is the state after the prefix from inputs s, and eqs(s) the
# equations loopinv's entry context knows at loop entry.


def _verify_status(entry, eqs, guard, inv, body, post, state_vars) -> str:
    """Every verify program's precondition is n >= 0, true on naturals."""

    def implies(a, b):
        return (not a) or b

    for s in stores("n", "k"):
        e = entry(s)
        ok = (
            inv(e)
            and implies(guard(e) and inv(e), inv(body(e)))
            and implies(not guard(e) and inv(e), post(e))
        )
        if not ok:
            return known.FAILS
    for s in stores("n", "k", *state_vars):
        if not implies(eqs(s), inv(s)):
            return known.FAILS  # establishment
        if not implies(guard(s) and inv(s), inv(body(s))):
            return known.FAILS  # preservation
        if not implies(not guard(s) and inv(s), post(s)):
            return known.FAILS  # sufficiency
    return known.HOLDS


def _verify_count_up(inv):
    return _verify_status(
        entry=lambda s: {**s, "x": 0},
        eqs=lambda s: s["x"] == 0,
        guard=lambda s: s["x"] < s["n"],
        inv=inv,
        body=lambda s: {**s, "x": s["x"] + 1},
        post=lambda s: s["x"] == s["n"],
        state_vars=("x",),
    )


def _verify_mult(up: bool, inv):
    return _verify_status(
        entry=lambda s: {**s, "x": 0 if up else s["n"], "y": 0},
        eqs=lambda s: s["x"] == (0 if up else s["n"]) and s["y"] == 0,
        guard=(lambda s: s["x"] < s["n"]) if up else (lambda s: s["x"] > 0),
        inv=inv,
        body=lambda s: {**s, "x": s["x"] + 1 if up else monus(s["x"], 1), "y": s["y"] + s["k"]},
        post=lambda s: s["y"] == s["n"] * s["k"],
        state_vars=("x", "y"),
    )


def _verify_exp_simple(inv):
    return _verify_status(
        entry=lambda s: {**s, "x": 0, "y": 1},
        eqs=lambda s: s["x"] == 0 and s["y"] == 1,
        guard=lambda s: s["x"] < s["n"],
        inv=inv,
        body=lambda s: {**s, "x": s["x"] + 1, "y": s["y"] * s["k"]},
        post=lambda s: s["y"] == s["k"] ** s["n"],
        state_vars=("x", "y"),
    )


def _square_multiply_body(s):
    y = s["y"] * s["z"] if s["x"] % 2 == 1 else s["y"]
    return {**s, "x": s["x"] // 2, "y": y, "z": s["z"] * s["z"]}


def _verify_square_multiply(inv):
    return _verify_status(
        entry=lambda s: {**s, "x": s["n"], "y": 1, "z": s["k"]},
        eqs=lambda s: s["x"] == s["n"] and s["y"] == 1 and s["z"] == s["k"],
        guard=lambda s: s["x"] > 0,
        inv=inv,
        body=_square_multiply_body,
        post=lambda s: s["y"] == s["k"] ** s["n"],
        state_vars=("x", "y", "z"),
    )


VERIFY = {
    "verify:count-up": lambda: _verify_count_up(lambda s: s["x"] <= s["n"]),
    "verify:count-up/mutated": lambda: _verify_count_up(lambda s: s["x"] < s["n"]),
    "verify:mult-up": lambda: _verify_mult(
        True, lambda s: s["x"] <= s["n"] and s["y"] == s["x"] * s["k"]
    ),
    "verify:mult-up/mutated": lambda: _verify_mult(
        True, lambda s: s["x"] <= s["n"] and s["y"] == s["x"] * s["k"] + 1
    ),
    "verify:mult-down": lambda: _verify_mult(
        False, lambda s: s["y"] + s["x"] * s["k"] == s["n"] * s["k"]
    ),
    "verify:mult-down/mutated": lambda: _verify_mult(
        False, lambda s: s["y"] + s["x"] * s["k"] == s["n"] * s["k"] + s["k"]
    ),
    "verify:exp_simple": lambda: _verify_exp_simple(
        lambda s: s["x"] <= s["n"] and s["y"] == s["k"] ** s["x"]
    ),
    "verify:exp_simple/mutated": lambda: _verify_exp_simple(
        lambda s: s["x"] <= s["n"] and s["y"] == s["k"] ** (s["x"] + 1)
    ),
    "verify:square-multiply": lambda: _verify_square_multiply(
        lambda s: s["y"] * s["z"] ** s["x"] == s["k"] ** s["n"]
    ),
    "verify:square-multiply/mutated": lambda: _verify_square_multiply(
        lambda s: s["y"] * s["z"] ** s["x"] == s["k"] ** (s["n"] + 1)
    ),
}


@pytest.mark.parametrize("pid", sorted(VERIFY))
def test_verify_answers(pid):
    assert VERIFY[pid]() == known.VERIFY[pid]


def test_corpus_verify_answer():
    assert (REPO / "programs" / "exp_simple_annotated.imp").is_file()
    assert known.CORPUS["exp_simple_annotated.imp"] == ("verify", known.HOLDS)
    assert VERIFY["verify:exp_simple"]() == known.HOLDS


# ---------------------------------------------------------------------------
# The generator


def test_same_seed_gives_byte_identical_programs():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 11) == workloads.generate(workload, 11)


def test_seeds_rename_variables_without_reordering_them():
    a = {p.id: p.text for p in workloads.generate("search-shallow", 1)}
    b = {p.id: p.text for p in workloads.generate("search-shallow", 2)}
    assert a.keys() == b.keys()
    assert any(a[k] != b[k] for k in a)
    for workload in workloads.WORKLOADS:
        for tpl in workloads._templates(workload):
            template = tpl[-1]
            for seed in range(20):
                rng = random.Random(seed)
                names = workloads._renaming(rng, workloads._template_vars(template))
                new = [names[v] for v in sorted(names)]
                assert new == sorted(new)
                assert all(n[0] == v for v, n in names.items())
                assert not set(new) & workloads._KEYWORDS


def test_ids_are_unique_and_the_deep_set_is_fixed():
    for workload in workloads.WORKLOADS:
        ids = [p.id for p in workloads.generate(workload, 5)]
        assert len(ids) == len(set(ids))
    assert sorted(p.id for p in workloads.generate("search-deep", 5)) == [
        "square-multiply/n0",
        "square-multiply/n1",
        "square-of-odds",
    ]
