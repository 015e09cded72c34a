"""Known answers for every benchmark program, and the verdict classification.

The answers are written by hand, not computed: ``tests/test_known.py``
re-derives each one with a Python transcription of the program, run over
every input up to the bound, and never uses loopinv's own evaluator.

For ``discover`` the answer is whether the Hoare triple holds on every
input store whose values are at most the bound (``valid``) or fails on
one of them (``invalid``).  For ``verify`` it is whether every condition
that mode checks (the global condition, establishment, preservation and
sufficiency) holds on every store up to the bound.  ``trace`` reports no
verdict about the triple; its known answer is that discovery derives an
invariant.
"""

from __future__ import annotations

VALID, INVALID = "valid", "invalid"
HOLDS, FAILS = "holds", "fails"
DERIVES = "derives"

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"

# Exit codes of `loopinv` (see loopinv.cli).
EXIT_OK, EXIT_REFUTED, EXIT_NO_INVARIANT, EXIT_BAD_INPUT = 0, 1, 2, 3

# discover programs, by workloads.Program.id
DISCOVER = {
    "count-up/c0": VALID,
    "count-up/c2": VALID,
    "count-up/twin": INVALID,  # fails at n=6
    "mult-up/c0": VALID,
    "mult-up/c3": VALID,
    "mult-up/twin": INVALID,  # fails at n=0
    "mult-down/c0": VALID,
    "mult-down/c3": VALID,
    "mult-down/twin": INVALID,  # fails at n=0
    "exp_simple/c1": VALID,
    "exp_simple/c3": VALID,
    "exp_simple/twin": INVALID,  # fails at n=0, k=2; loopinv answers exit 0
    "exp_nested/c1": VALID,
    "exp_nested/c3": VALID,
    "exp_nested/twin": INVALID,  # fails at n=0, k=2
    "square-multiply/n0": VALID,
    "square-multiply/n1": VALID,
    "square-of-odds": VALID,
}

# verify programs: the correct classical invariant holds, the mutated one
# breaks establishment.
VERIFY = {
    "verify:count-up": HOLDS,
    "verify:count-up/mutated": FAILS,
    "verify:mult-up": HOLDS,
    "verify:mult-up/mutated": FAILS,
    "verify:mult-down": HOLDS,
    "verify:mult-down/mutated": FAILS,
    "verify:exp_simple": HOLDS,
    "verify:exp_simple/mutated": FAILS,
    "verify:square-multiply": HOLDS,
    "verify:square-multiply/mutated": FAILS,
}

# The bundled example programs (programs/*.imp), for reference: the
# generated families reproduce them up to renaming.
CORPUS = {
    "exp_simple.imp": ("discover", VALID),  # exp_simple/c1
    "exp_nested.imp": ("discover", VALID),  # exp_nested/c1
    "exp_binary.imp": ("discover", VALID),  # square-multiply/n0
    "exp_binary_pos.imp": ("discover", VALID),  # square-multiply/n1
    "exp_swapped.imp": ("discover", VALID),  # y := k * y, not generated
    "exp_simple_annotated.imp": ("verify", HOLDS),  # verify:exp_simple
}


def answer(program_id: str, mode: str) -> str:
    if mode == "trace":
        return DERIVES
    table = DISCOVER if mode == "discover" else VERIFY
    return table[program_id]


def classify(mode: str, known: str, outcome: int | str) -> str:
    """decided, undecided or failed, for one program's outcome: its exit
    code, or "timeout" / "traceback"."""
    if not isinstance(outcome, int) or outcome == EXIT_BAD_INPUT:
        return FAILED  # every benchmark input is well-formed
    if outcome == EXIT_NO_INVARIANT:
        return UNDECIDED
    if mode == "trace":
        return DECIDED if outcome == EXIT_OK else FAILED
    expected = EXIT_OK if known in (VALID, HOLDS) else EXIT_REFUTED
    return DECIDED if outcome == expected else FAILED
