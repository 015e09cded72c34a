"""Seeded program generator for the loopinv benchmark.

Every workload is a list of `Program`s: source text plus the `loopinv`
mode and flags it runs under.  The benchmark hands loopinv nothing but
that text (on standard input), so the same seed gives byte-identical
programs and byte-identical command lines.

The seed varies the variable names, and only them.  Each program
variable keeps its original first letter and gets a random suffix (``x``
becomes ``xq7``, say).  The solver enumerates templates over
``sorted(program_vars)`` and the simplifier scans stores in sorted-name
order, so a renaming that reorders the variables changes which candidate
is found first and how many are tried.  Keeping the first letters (none
of them ``g``, the prefix of generalisation variables) keeps every sort
order, so every seed does the same search work and runs with different
seeds are comparable.

The programs run in the same order on every seed: which program ran
before another changes the interpreter's heap and garbage-collector
state it starts from, and with it the times.

Constants are varied by stratification instead of by the seed: each
family appears at two constant levels in every pass, because the cost
of one program moves many-fold between levels (mult-down's off-by-one
twin tries 730 candidates from ``y := 0`` and 29k from ``y := 3``) and a
seed-drawn level would put that spread into every end-to-end metric.

Why each family is in `search-shallow` (default bound 6; candidates
tried and times on a shared 2-vCPU x86-64 container):

* count-up: the smallest loop; 79 and 123 candidates, about 15 ms.
* mult-up / mult-down: an accumulator invariant over two generalisation
  variables, counting up (399 candidates) and counting down (148 and
  2,200), 0.1-0.2 s.
* exp_simple: the corpus example; 675 candidates, 0.3-0.45 s.
* exp_nested: a nested loop whose inner loop carries a summary
  annotation, so the wlp "substitute" path and two solver calls run;
  1,059 + 621 candidates, about 1.1 s.

Each family has an invalid *twin* whose postcondition is mutated.  The
twins exercise requirement 3 (final values imply the post), where the
tool's known wrong verdict lives: exp_simple's twin ``y = k^(n+1)`` is
reported verified (exit 0) although it fails at n=0, k=2.  The twins use
the off-by-one mutation of the post's right-hand side, except count-up:
its off-by-one twin exhausts all 144,155 one-variable templates (about
4.5 s, a deep search), so its twin instead adds a bound on the input
that the tested domain breaks (``n <= 5`` with n up to 6).

Why each program is in `search-deep` (``--bound 3``; at the default bound
6 each one tries exactly the same number of candidates and ends with
the same verdict, but exp_binary_pos takes 43-58 s instead of 16 s):

* square-multiply/n1, the corpus's exp_binary_pos: the only program that
  reaches the conditional-step stage; 59,509 candidates, exit 0.  It is
  also the only decided program of this workload.
* square-multiply/n0, the corpus's exp_binary: exhausts the
  200,000-candidate budget in the initial-value stage; exit 2.  It is
  the program of the acceptance suite's known-red criterion 2.
* square-of-odds (``y := y + 2*x + 1``, post ``y = n*n``): the only
  program that exhausts the budget in the step stage (requirement 2);
  exit 2.

The quotient/remainder loop that also exhausts the budget jointly over
two variables (about 11 s) is left out: with it, one pass of this
workload plus its traced twin pass would approach the three minutes a
run must end within (run.RUN_DEADLINE).

`check-only` runs no witness search at all: ``trace`` (the discovery
engine alone) over the shallow families' valid instances and two
square-and-multiply variants, whose R5 bounded refutations take about
0.3 s each, and ``verify`` over copies annotated with hand-written
classical invariants, each with a mutated copy whose invariant is wrong.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

WORKLOADS = ("search-shallow", "search-deep", "check-only")

# Reserved words of the loopinv language; a generated name must not be one.
_KEYWORDS = {"skip", "if", "then", "else", "while", "do", "begin", "end", "var", "true", "false"}
_SUFFIX_CHARS = "abcdefhijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Program:
    """One benchmark input: the text loopinv reads and how it is run."""

    id: str  # family/instance, unique within a workload; see known.py
    mode: str  # discover | verify | trace
    flags: tuple[str, ...]
    text: str


# ---------------------------------------------------------------------------
# Families.  Templates name variables as $x, $y, ...; constants are
# formatted in before renaming.


def count_up(c: int, twin: bool) -> str:
    post = "$x = $n /\\ $n <= 5" if twin else "$x = $n"
    return f"""{{$n >= {c}}}
$x := {c};
WHILE $x < $n DO
  $x := $x + 1
{{{post}}}
"""


def _sum_post(c: int, twin: bool) -> str:
    c += twin
    return f"$n * $k + {c}" if c else "$n * $k"


def mult_up(c: int, twin: bool) -> str:
    return f"""{{$n >= 0}}
$x := 0;
$y := {c};
WHILE $x < $n DO
BEGIN
  $x := $x + 1;
  $y := $y + $k
END
{{$y = {_sum_post(c, twin)}}}
"""


def mult_down(c: int, twin: bool) -> str:
    return f"""{{$n >= 0}}
$x := $n;
$y := {c};
WHILE $x > 0 DO
BEGIN
  $x := $x - 1;
  $y := $y + $k
END
{{$y = {_sum_post(c, twin)}}}
"""


def _power_post(c: int, twin: bool) -> str:
    power = "$k ^ ($n + 1)" if twin else "$k ^ $n"
    return power if c == 1 else f"{c} * {power}"


def exp_simple(c: int, twin: bool) -> str:
    return f"""{{$n >= 0}}
$x := 0;
$y := {c};
WHILE $x < $n DO
BEGIN
  $x := $x + 1;
  $y := $y * $k
END
{{$y = {_power_post(c, twin)}}}
"""


def exp_nested(c: int, twin: bool) -> str:
    return f"""{{$n >= 0}}
$x := 0;
$y := {c};
WHILE $x < $n DO
BEGIN
  $z := 0;
  $v := 0;
  WHILE $z < $k DO
  BEGIN
    $z := $z + 1;
    $v := $v + $y
  END
  {{$v = $y * $k}};
  $x := $x + 1;
  $y := $v
END
{{$y = {_power_post(c, twin)}}}
"""


def square_multiply(low: int) -> str:
    """Exponentiation by squaring; `low` is the least exponent tested."""
    return f"""{{$n >= {low}}}
$x := $n;
$y := 1;
$z := $k;
WHILE $x > 0 DO
BEGIN
  IF $x % 2 = 1 THEN $y := $y * $z;
  $z := $z * $z;
  $x := $x / 2
END
{{$y = $k ^ $n}}
"""


def square_of_odds() -> str:
    return """{$n >= 0}
$x := 0;
$y := 0;
WHILE $x < $n DO
BEGIN
  $y := $y + 2 * $x + 1;
  $x := $x + 1
END
{$y = $n * $n}
"""


SHALLOW_FAMILIES = {
    "count-up": (count_up, (0, 2)),
    "mult-up": (mult_up, (0, 3)),
    "mult-down": (mult_down, (0, 3)),
    "exp_simple": (exp_simple, (1, 3)),
    "exp_nested": (exp_nested, (1, 3)),
}

# `verify` copies: a family's valid instance with a hand-written classical
# invariant, correct and mutated, attached to its loop.
VERIFY_COPIES = {
    "count-up": (count_up(0, False), "$x <= $n", "$x < $n"),
    "mult-up": (mult_up(0, False), "$x <= $n /\\ $y = $x * $k", "$x <= $n /\\ $y = $x * $k + 1"),
    "mult-down": (mult_down(0, False), "$y + $x * $k = $n * $k", "$y + $x * $k = $n * $k + $k"),
    "exp_simple": (
        exp_simple(1, False),
        "$x <= $n /\\ $y = $k ^ $x",
        "$x <= $n /\\ $y = $k ^ ($x + 1)",
    ),
    "square-multiply": (square_multiply(0), "$y * $z ^ $x = $k ^ $n", "$y * $z ^ $x = $k ^ ($n + 1)"),
}


def _annotate(template: str, invariant: str) -> str:
    """Attach `invariant` to the template's (single) loop."""
    head, sep, tail = template.partition(" DO\n")
    assert sep, "template has no loop"
    return f"{head} DO\n{{{invariant}}}\n{tail}"


# ---------------------------------------------------------------------------
# Renaming


_PLACEHOLDER = re.compile(r"\$([a-z])")


def _template_vars(template: str) -> list[str]:
    return sorted(set(_PLACEHOLDER.findall(template)))


def _renaming(rng: random.Random, names: list[str]) -> dict[str, str]:
    """Fresh names that keep each variable's first letter, hence every
    sorted order among program and generalisation variables."""
    out: dict[str, str] = {}
    for name in names:
        while True:
            new = name + "".join(rng.choice(_SUFFIX_CHARS) for _ in range(rng.randint(1, 3)))
            if new not in _KEYWORDS and new not in out.values():
                out[name] = new
                break
    return out


def _render(template: str, rng: random.Random) -> str:
    names = _renaming(rng, _template_vars(template))
    return _PLACEHOLDER.sub(lambda m: names[m.group(1)], template)


# ---------------------------------------------------------------------------
# Workloads


def _shallow_templates() -> list[tuple[str, str]]:
    """(id, template) for every shallow family instance and twin."""
    out = []
    for family, (make, levels) in SHALLOW_FAMILIES.items():
        out += [(f"{family}/c{c}", make(c, False)) for c in levels]
        out.append((f"{family}/twin", make(levels[0], True)))
    return out


def _templates(workload: str) -> list[tuple[str, str, tuple[str, ...], str]]:
    """(id, mode, flags, template) in the order a pass runs them."""
    if workload == "search-shallow":
        return [(pid, "discover", (), tpl) for pid, tpl in _shallow_templates()]
    if workload == "search-deep":
        deep = ("--bound", "3")
        return [
            ("square-multiply/n1", "discover", deep, square_multiply(1)),
            ("square-multiply/n0", "discover", deep, square_multiply(0)),
            ("square-of-odds", "discover", deep, square_of_odds()),
        ]
    if workload == "check-only":
        out = [(f"trace:{pid}", "trace", (), tpl) for pid, tpl in _shallow_templates() if "twin" not in pid]
        out += [(f"trace:square-multiply/n{low}", "trace", (), square_multiply(low)) for low in (0, 1)]
        for family, (base, good, bad) in VERIFY_COPIES.items():
            out.append((f"verify:{family}", "verify", (), _annotate(base, good)))
            out.append((f"verify:{family}/mutated", "verify", (), _annotate(base, bad)))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def generate(workload: str, seed: int) -> list[Program]:
    """The workload's programs for `seed`, in the order one pass runs them."""
    rng = random.Random(f"{workload}:{seed}")
    return [Program(pid, mode, flags, _render(tpl, rng)) for pid, mode, flags, tpl in _templates(workload)]
