"""End-to-end command-line behaviour, run in-process."""

import io
import json

import pytest

from loopinv.cli import main
from loopinv.parser import ParseError, parse_expression
from loopinv.terms import Op

WRONG_INVARIANT = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
{y = k ^ n}
BEGIN
  x := x + 1;
  y := y * k
END
{y = k ^ n}"""

COUNT_UP = "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x = n}"

# exp_nested with closed invariants.  The inner one must carry the outer
# facts it relies on: nothing else of the outer loop is known inside.
NESTED_ANNOTATED = """{n >= 0}
x := 0;
y := 1;
WHILE x < n DO
{x <= n /\\ y = k ^ x}
BEGIN
  z := 0;
  v := 0;
  WHILE z < k DO
  {z <= k /\\ v = y * z /\\ x < n /\\ y = k ^ x}
  BEGIN
    z := z + 1;
    v := v + y
  END;
  x := x + 1;
  y := v
END
{y = k ^ n}"""

# A later loop's invariant (x = 0) is false after the first loop for
# n >= 1; that shows as the first loop's exit failing.
LOOP_AFTER_LOOP = (
    "{n >= 0}\nx := 0;\nWHILE x < n DO {x <= n}\n  x := x + 1;\ny := 0;\n"
    "WHILE y < x DO {y <= x /\\ x = 0}\n  y := y + 1\n{y = x}"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_discover_text_output(capsys, programs):
    code, out, _ = run(capsys, "discover", str(programs / "exp_simple.imp"))
    assert code == 0
    assert "loop at line 5:" in out
    assert "invariant: x+g3=n ∧ y*g4=k^n" in out
    assert "generalisation variables: g3, g4" in out
    assert "g3: initial n, step g3-1, final 0" in out
    assert "g4: initial k^n, step g4/k, final 1" in out
    assert "verdict: verified up to bound 6" in out


def test_discover_json_output(capsys, programs):
    code, out, _ = run(
        capsys, "discover", str(programs / "exp_simple.imp"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["warnings"] == []
    (loop,) = doc["loops"]
    assert loop["location"] == 5
    assert loop["genvars"] == ["g3", "g4"]
    assert loop["assignment"]["initial"] == {"g3": "n", "g4": "k^n"}
    assert loop["assignment"]["step"] == {"g3": "g3-1", "g4": "g4/k"}
    assert loop["assignment"]["final"] == {"g3": "0", "g4": "1"}
    assert loop["verdict"] == {"kind": "VerifiedUpToBound", "bound": 6}
    assert loop["trace"][0]["kind"] == "Init"
    assert all(set(s) == {"kind", "formula", "note"} for s in loop["trace"])


def test_discover_swapped_warns_and_fails(capsys, programs):
    code, out, _ = run(capsys, "discover", str(programs / "exp_swapped.imp"))
    assert code == 2
    assert "error: no witnesses (requirement 1)" in out
    assert (
        "warning: variable 'y' is updated in the loop body but absent from "
        "the invariant; its updates were generalised away" in out
    )


@pytest.mark.parametrize(
    "source, skipped, collected",
    [
        # n = 4, 5 and 6 overflow the power.
        ("{n >= 0} x := 2; i := 0; WHILE i < n DO BEGIN x := x ^ x; i := i + 1 END {i = n}", 3, 4),
        # Every run exhausts its fuel.
        ("{n >= 0} x := 0; WHILE x >= 0 DO x := x + 1 {x = 7}", 7, 0),
    ],
)
def test_discover_warns_about_skipped_runs(capsys, monkeypatch, source, skipped, collected):
    warning = (
        f"loop at line 1: {skipped} runs were skipped (out of fuel or an evaluation error) and "
        f"{collected} collected; the verdict rests on the collected runs alone"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code, out, _ = run(capsys, "discover", "-")
    assert code == 0
    assert "verdict: verified up to bound 6" in out
    assert f"warning: {warning}" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    code, out, _ = run(capsys, "discover", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["warnings"] == [warning]


SQUARE_OF_ODDS = """{n >= 0}
x := 0;
y := 0;
WHILE x < n DO
BEGIN
  y := y + 2 * x + 1;
  x := x + 1
END
{y = n * n}"""


def test_discover_reports_coarsened_invariant_beside_derived(capsys, monkeypatch):
    # The derived y+(2*x+g4)=n*n pins g4 = n*n at entry and admits no
    # value after one iteration, so the solver coarsens it.
    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_OF_ODDS))
    code, out, _ = run(capsys, "discover", "-", "--bound", "2")
    assert code == 0
    assert "  invariant: x+g3=n ∧ y+g4=n*n\n" in out
    assert "  derived invariant: x+g3=n ∧ y+(2*x+g4)=n*n (admits no witness; coarsened)" in out

    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_OF_ODDS))
    code, out, _ = run(capsys, "discover", "-", "--bound", "2", "--format", "json")
    (loop,) = json.loads(out)["loops"]
    assert loop["invariant"] == "x+g3=n ∧ y+g4=n*n"
    assert loop["derived_invariant"] == "x+g3=n ∧ y+(2*x+g4)=n*n"
    assert loop["assignment"]["initial"]["g4"] == "n*n"


def test_discover_nested_reports_both_loops(capsys, programs):
    code, out, _ = run(capsys, "discover", str(programs / "exp_nested.imp"))
    assert code == 0
    assert "loop at line 7:" in out
    assert "loop at line 11:" in out
    assert out.count("verdict: verified up to bound 6") == 2


# Discovery pulls a target back through a later or inner loop only by
# that loop's v = E summary.  Where the loop has none, its putative
# invariant (generalisation variables included) would stand in for the
# target and drop the post beyond it, so the pull-back fails instead.
LOOP_THEN_LOOP = """{n >= 0}
x := 0;
WHILE x < n DO
  x := x + 1;
y := 0;
WHILE y < x DO
  y := y + 1
{y = n}"""

INNER_WITHOUT_SUMMARY = """{n >= 0}
x := 0;
WHILE x < n DO
BEGIN
  y := 0;
  WHILE y < x DO
    y := y + 1
  {x <= y};
  x := x + 1
END
{x = n}"""


def test_discovery_stops_at_a_later_loop_without_summary(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(LOOP_THEN_LOOP))
    code, out, _ = run(capsys, "discover", "-")
    assert code == 2
    assert out.splitlines()[:2] == [
        "loop at line 3:",
        "  error: MissingPostcondition: no postcondition reaches this loop; "
        "it needs a trailing {assertion}",
    ]
    # The later loop has the program's post and is discovered as usual.
    assert "  invariant: y+g3=x ∧ y+g3=n" in out.splitlines()


def test_discovery_stops_at_an_inner_loop_without_summary(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(INNER_WITHOUT_SUMMARY))
    code, out, _ = run(capsys, "discover", "-")
    assert code == 2
    assert out.splitlines()[:2] == [
        "loop at line 3:",
        "  error: Wlp: the loop at line 6 has no postcondition usable as a summary",
    ]


def test_block_locals_stay_out_of_loop_head_stores(capsys, monkeypatch):
    # t is declared in the loop body, so no store at the loop head holds it.
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(
            "{n >= 0} x := 0; y := 0; WHILE x < n DO "
            "BEGIN VAR t; t := x + 1; x := t; y := y + t END {x = n /\\ y = n}"
        ),
    )
    code, out, _ = run(capsys, "discover", "-")
    assert code == 2
    assert "g4 is pinned to 1 on entry store {'n': 1, 'x': 0, 'y': 0}, but" in out
    assert "'t'" not in out


def test_trace_numbers_steps(capsys, programs):
    code, out, _ = run(capsys, "trace", str(programs / "exp_simple.imp"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "loop at line 5:"
    assert lines[1].startswith("  1. [Init] ")
    assert lines[1].endswith("-- negated guard conjoined with the postcondition")
    assert "[GeneraliseStep]" in out and "[RenamingFound]" in out


def test_trace_rules_can_be_disabled(capsys, programs):
    _, default_out, _ = run(capsys, "trace", str(programs / "exp_simple.imp"))
    assert "x+1=n ∧ y*k=k^n" in default_out
    _, thinned, _ = run(
        capsys, "trace", str(programs / "exp_simple.imp"), "--no-rule", "R3"
    )
    assert "x+1=n ∧ y*k=k^n" not in thinned


def test_iteration_budget_surfaces_as_error(capsys, programs):
    code, out, _ = run(
        capsys, "discover", str(programs / "exp_simple.imp"), "--max-iter", "2"
    )
    assert code == 2
    assert "IterationBudget" in out


def test_verify_annotated_program(capsys, programs):
    code, out, _ = run(capsys, "verify", str(programs / "exp_simple_annotated.imp"))
    assert code == 0
    assert "global condition: holds on all stores with values <= 6" in out
    for name in ("preservation", "exit"):
        assert f"loop at line 6: {name} holds" in out


def test_verify_reports_counterexamples(capsys, tmp_path):
    target = tmp_path / "wrong.imp"
    target.write_text(WRONG_INVARIANT, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 1
    # The global condition carries the loop's establishment.
    assert "global condition: fails at k=0 n=1 (establishes the loop at line 4)" in out.splitlines()
    assert "loop at line 4: exit holds" in out


def test_verify_reports_a_counterexample_with_the_smallest_maximum(capsys, monkeypatch):
    # Both x=0 y=5 and x=2 y=2 refute the post; the second has the smaller
    # maximum, so it is the one reported.
    src = "{x >= 0} SKIP {~(x = 0 /\\ y = 5) /\\ ~(x = 2 /\\ y = 2)}"
    monkeypatch.setattr("sys.stdin", io.StringIO(src))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 1
    assert out.splitlines() == ["global condition: fails at x=2 y=2"]


@pytest.mark.parametrize(
    "source",
    [
        # a branch in the prefix
        "{n >= 0} x := 0; y := 0; IF n > 5 THEN y := 0 ELSE SKIP; "
        "WHILE x < n DO {y = x /\\ x <= n} BEGIN x := x + 1; y := y + 1 END {y = n}",
        # a loop in the prefix
        "{n >= 0} x := 0; WHILE x < n DO {x <= n} x := x + 1; y := 0; "
        "WHILE y < x DO {y <= x /\\ x = n} y := y + 1 {y = n}",
        # a prefix that reassigns an input after reading it
        "{n >= 0} x := n; n := n + 1; WHILE x < n DO {x <= n} x := x + 1 {x = n}",
    ],
    ids=["branching-prefix", "looping-prefix", "reassigned-input"],
)
def test_verify_establishment_follows_the_prefix(capsys, tmp_path, source):
    target = tmp_path / "prog.imp"
    target.write_text(source, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["global"]["holds"]
    assert doc["loops"]
    for entry in doc["loops"]:
        assert all(res["holds"] for res in entry["conditions"].values()), entry


@pytest.mark.parametrize(
    "source, code, failure",
    [
        # x < 3 is true where the loop starts but not preserved once n > 3
        (
            "{n >= 0}\nx := 0;\nIF n > 0 THEN\nWHILE x < n DO {x <= n /\\ x < 3} x := x + 1\n"
            "ELSE SKIP {x = n}",
            1,
            "loop at line 4: preservation fails at n=3 x=2 (establishes the loop at line 4)",
        ),
        (
            "{n >= 0}\nx := 0;\nBEGIN VAR t;\nWHILE x < n DO {x <= n} x := x + 1\nEND {x = n}",
            0,
            None,
        ),
        # the inner invariant y <= x does not carry the outer x <= n to its exit
        (
            "{n >= 0}\nx := 0;\nWHILE x < n DO {x <= n} BEGIN x := x + 1; y := 0;\n"
            "WHILE y < x DO {y <= x} y := y + 1 END {x = n}",
            1,
            "loop at line 4: exit fails at n=0 x=1 y=1 (establishes the loop at line 3)",
        ),
        (
            "{n >= 0}\nx := 0;\nWHILE x < n DO {x <= n} x := x + 1;\n"
            "IF n > 0 THEN WHILE x < n DO {x <= n} x := x + 1 ELSE SKIP {x = n}",
            0,
            None,
        ),
    ],
    ids=["under-if", "in-block", "in-loop-body", "equal-to-a-spine-loop"],
)
def test_verify_checks_nested_annotated_loops(capsys, tmp_path, source, code, failure):
    target = tmp_path / "nested.imp"
    target.write_text(source, encoding="utf-8")
    got, out, err = run(capsys, "verify", str(target))
    assert (got, err) == (code, "")
    lines = out.splitlines()
    assert any(line.startswith("loop at line 4: exit ") for line in lines)  # the nested loop is checked
    assert [line for line in lines if " fails at " in line] == ([failure] if failure else [])


def test_verify_loop_after_loop_names_the_later_loop(capsys, tmp_path):
    # The second loop's establishment rides in the first loop's exit
    # condition, which fails and names the second loop.
    target = tmp_path / "two.imp"
    target.write_text(LOOP_AFTER_LOOP, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if " fails at " in line] == [
        "loop at line 3: exit fails at n=1 x=1 (establishes the loop at line 6)"
    ]
    assert "global condition: holds on all stores with values <= 6" in out


def test_verify_keeps_one_entry_per_loop_on_a_shared_line(capsys, tmp_path):
    target = tmp_path / "one-line.imp"
    target.write_text(" ".join(LOOP_AFTER_LOOP.split()), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target), "--format", "json")
    assert code == 1
    first, second = json.loads(out)["loops"]
    assert first["location"] == second["location"] == 1
    assert first["conditions"]["exit"] == {
        "holds": False,
        "counterexample": {"n": 1, "x": 1},
        "establishes": [1],
    }
    assert all(res["holds"] for res in second["conditions"].values())


def test_verify_nested_loops(capsys, tmp_path):
    target = tmp_path / "nested.imp"
    target.write_text(NESTED_ANNOTATED, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["global"]["holds"]
    assert [entry["location"] for entry in doc["loops"]] == [4, 9]
    for entry in doc["loops"]:
        assert list(entry["conditions"]) == ["preservation", "exit"]
        assert all(res["holds"] for res in entry["conditions"].values()), entry
    # Without the outer facts the inner invariant cannot re-establish the
    # outer one after the inner loop exits.
    target.write_text(NESTED_ANNOTATED.replace(" /\\ x < n /\\ y = k ^ x}", "}"), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(target))
    assert code == 1
    assert [line for line in out.splitlines() if " fails at " in line] == [
        "loop at line 9: exit fails at k=0 n=0 v=0 x=0 y=0 z=0 (establishes the loop at line 4)"
    ]


def test_verify_requires_annotations(capsys, programs):
    code, _, err = run(capsys, "verify", str(programs / "exp_simple.imp"))
    assert code == 2
    assert "has no {invariant} annotation; run discover first" in err


def test_verify_rejects_uninstantiated_genvars(capsys, tmp_path):
    target = tmp_path / "genvar.imp"
    target.write_text(
        "{n >= 0} x := 0; WHILE x < n DO {x + g = n} x := x + 1 {x = n}",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "verify", str(target))
    assert code == 2
    assert "generalisation variables must be instantiated" in err
    assert "mentions g" in err


def test_verify_json_report(capsys, programs):
    code, out, _ = run(
        capsys, "verify", str(programs / "exp_simple_annotated.imp"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 6
    assert doc["global"] == {"holds": True, "counterexample": None, "establishes": [6]}
    (entry,) = doc["loops"]
    assert entry["location"] == 6
    assert all(res["holds"] for res in entry["conditions"].values())


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(COUNT_UP))
    code, out, _ = run(capsys, "discover", "-")
    assert code == 0
    assert "verdict: verified up to bound 6" in out


def test_missing_file_is_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "discover", str(tmp_path / "nope.imp"))
    assert code == 3
    assert "cannot read" in err


def test_parse_error_is_bad_input(capsys, tmp_path):
    target = tmp_path / "broken.imp"
    target.write_text("{n >= 0} WHILE x < {x = n}", encoding="utf-8")
    code, _, err = run(capsys, "discover", str(target))
    assert code == 3
    assert "parse error:" in err


def test_too_deep_nesting_is_bad_input(capsys, tmp_path):
    # 3,000 parentheses used to exhaust the interpreter stack and exit 1,
    # the code of a real counterexample.
    target = tmp_path / "deep.imp"
    target.write_text("{n >= 0} x := " + "(" * 3000 + "0" + ")" * 3000 + " {x = 0}")
    code, _, err = run(capsys, "trace", str(target))
    assert code == 3
    assert "nesting deeper than 64 levels" in err
    deepest = "{n >= 0} x := " + "(" * 64 + "0" + ")" * 64 + " {x = 0}"
    target.write_text(deepest)
    assert run(capsys, "trace", str(target))[0] == 0
    # Each negation and each implication's right operand is one level.
    for levels, code in ((64, 0), (65, 3)):
        negations = "{n >= 0} x := 0 {" + "¬" * levels + "true}"
        implications = "{n >= 0} x := 0 {" + "x = 0 ⇒ " * levels + "x = 0}"
        for text in (negations, implications):
            target.write_text(text)
            got, _, err = run(capsys, "trace", str(target))
            assert got == code
            assert ("nesting deeper than 64 levels" in err) == (code == 3)
    # A parenthesis level that holds every precedence level is still one
    # level, and the deepest such input stays within the recursion limit.
    text = "0"
    for _ in range(64):
        text = f"a ∨ a ∧ a = a + a * a ^ ({text})"
    assert isinstance(parse_expression(text), Op)
    with pytest.raises(ParseError, match="nesting deeper than 64 levels"):
        parse_expression(f"a ∨ a ∧ a = a + a * a ^ ({text})")


def test_long_sequence_and_operator_chain_are_bad_input(capsys, tmp_path):
    # Both used to exhaust the interpreter stack and exit 1 in every mode.
    sequence = "{0 = 0} " + "; ".join(["x := 1"] * 1000) + " {x = 1}"
    chain = "{0 = 0} x := " + "+".join(["1"] * 1000) + " {x = 1000}"
    target = tmp_path / "long.imp"
    for text in (sequence, chain):
        target.write_text(text)
        for mode in ("discover", "verify", "trace"):
            code, _, err = run(capsys, mode, str(target))
            assert (code, err) == (3, "error: the input nests too deeply to analyse\n")


def test_bounds_below_one_are_bad_input(capsys, tmp_path, programs):
    # A negative --bound checked no store and passed a wrong invariant; a
    # zero bound ended in a ValueError traceback and exit 1.
    annotated = (programs / "exp_simple_annotated.imp").read_text(encoding="utf-8")
    wrong = tmp_path / "wrong.imp"
    wrong.write_text(annotated.replace("y = k ^ x}", "y = k ^ (x+1)}"))
    assert run(capsys, "verify", str(wrong))[0] == 1
    simple = str(programs / "exp_simple.imp")
    for argv, flag in (
        (["verify", str(wrong), "--bound", "-1"], "--bound"),
        (["discover", simple, "--bound", "0"], "--bound"),
        (["trace", simple, "--refutation-bound", "0"], "--refutation-bound"),
        (["discover", simple, "--max-iter", "-1"], "--max-iter"),
        (["trace", simple, "--max-iter", "0"], "--max-iter"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {flag} must be at least 1")


def test_usage_errors_are_bad_input(capsys, programs):
    # argparse exits 2 on a usage error, which is the code for "no invariant".
    simple = str(programs / "exp_simple.imp")
    for argv in (
        ["discover", simple, "--no-such-flag"],
        ["discover", simple, "--bound", "x"],
        ["prove", simple],
        ["discover", simple, "--wlp-loop-rule", "invariant"],  # a removed option
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "loopinv: error:" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: loopinv")


def test_paths_of_different_shapes_give_no_invariant(capsys, monkeypatch):
    # The two paths through the body generalise to a bare variable, which
    # `trace` accepted as the invariant and `discover` then evaluated as a
    # formula, ending in a ValueError traceback and exit 1.
    program = (
        "{n >= 0} x := 0; y := 0; WHILE x < n DO BEGIN IF x < 2 THEN y := 0 "
        "ELSE SKIP; x := x + 1 END {x = n /\\ y = 0}"
    )
    for mode in ("trace", "discover"):
        monkeypatch.setattr("sys.stdin", io.StringIO(program))
        code, out, err = run(capsys, mode, "-")
        assert code == 2
        assert "error: NoCommonShape: the body's paths generalise to no formula" in out
        assert "Traceback" not in err


def test_large_numeral_traces(capsys, monkeypatch):
    # The embedding used to unfold a numeral one successor per unit, so a
    # literal in the thousands exhausted the interpreter stack and exited
    # 1, the code of a real counterexample.
    program = "{n >= 0} x := 0; WHILE x < n DO x := x + 1 {x + 3000 = n + 3000}"
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    code, out, _ = run(capsys, "trace", "-")
    assert code == 0
    assert "[RenamingFound] x+g3=n ∧ x+(1+g4)=n+3000" in out


def test_power_tower_gives_a_verdict(capsys, monkeypatch):
    # x := x ^ x builds (2^2048)^(2^2048) on the fourth iteration; without
    # the evaluator's overflow cap that ended in a MemoryError and exit 1.
    program = (
        "{n >= 0} x := 2; i := 0; "
        "WHILE i < n DO BEGIN x := x ^ x; i := i + 1 END {i = n}"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    code, _, err = run(capsys, "discover", "-")
    assert code in (0, 2)
    assert "Traceback" not in err


def test_seed_variable_is_rejected(capsys, monkeypatch, programs):
    monkeypatch.setenv("LOOPINV_SEED", "42")
    code, _, err = run(capsys, "discover", str(programs / "exp_simple.imp"))
    assert code == 2
    assert "deterministic" in err


def test_bound_flag_reaches_verdict(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(COUNT_UP))
    code, out, _ = run(capsys, "discover", "-", "--bound", "3")
    assert code == 0
    assert "verdict: verified up to bound 3" in out
