#!/usr/bin/env python3
"""One digest of everything loopinv decides on a benchmark workload.

Usage (from the root of a checkout):

    python3 scripts/outcome_digest.py WORKLOAD [--seeds 1 2] [--budgets 1 10000 200000] [--jsonl FILE]

For each seed and each budget (the solver's ``max_candidates``; by
default its default alone), generates the programs of one pass of
WORKLOAD (``search-shallow``, ``search-deep`` or ``check-only``) with
``perfbench/workloads.generate`` and runs each through
``loopinv.cli.main`` as the benchmark does (source on stdin, ``--format
json``), with the solver's budget set to that value.  It prints one
sha256 over, in order, each run's JSON output and exit code and, for
each ``solve`` call in it, the outcome (the report's invariant,
assignment and verdict, or the ``SolverFailure``'s requirement and
detail) and the full ``SolveStats``.  A change meant to keep behaviour
exactly must give the digest of its parent commit for the same
arguments; budgets chosen to run out inside each stage of the witness
search check that it stops at the same candidate there too.

With ``--jsonl FILE`` it also writes one JSON line per run to FILE: the
workload, seed, program id, budget, exit code, the sha256 of the JSON
output, and each ``solve`` call's outcome with its whole ``SolveStats``.
``tests/golden/outcomes/`` holds these lines for seeds 1 2 and budgets
1 10000 200000, and, in ``search-deep-cuts.jsonl``, search-deep's for
budgets 300 53700 54150 54152; ``tests/test_outcome_golden.py``
regenerates them and names every run that moved.  A change that moves
outcomes on purpose rewrites them with

    python3 scripts/outcome_digest.py W --seeds 1 2 --budgets 1 10000 200000 --jsonl tests/golden/outcomes/W.jsonl
    python3 scripts/outcome_digest.py search-deep --seeds 1 2 --budgets 300 53700 54150 54152 --jsonl tests/golden/outcomes/search-deep-cuts.jsonl

for each workload W.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from loopinv import cli, solver  # noqa: E402
from loopinv.parser import pretty  # noqa: E402


def run(program: workloads.Program, budget: int) -> tuple[str, int, list[tuple]]:
    """The JSON output and exit code of one run under `budget`, and what
    each `solve` call in it returned or raised."""
    solves: list[tuple] = []

    def recording(*args):
        try:
            report = solver.solve(*args)
        except solver.SolverFailure as err:
            solves.append(("failure", err.requirement, err.detail, err.stats))
            raise
        solves.append(("report", report.invariant, report.assignment, report.verdict, report.stats))
        return report

    saved = sys.stdin, cli.solve, cli.SolverConfig
    sys.stdin, cli.solve = io.StringIO(program.text), recording
    cli.SolverConfig = functools.partial(solver.SolverConfig, max_candidates=budget)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([program.mode, "-", *program.flags, "--format", "json"])
    finally:
        sys.stdin, cli.solve, cli.SolverConfig = saved
    return out.getvalue(), code, solves


def outcome_json(solve: tuple) -> dict:
    """One `solve` call's outcome as `run` records it, in JSON terms."""
    if solve[0] == "failure":
        _, requirement, detail, stats = solve
        return {"outcome": "failure", "requirement": requirement, "detail": detail, "stats": asdict(stats)}
    _, invariant, assignment, verdict, stats = solve
    parts = None
    if assignment is not None:
        parts = {part: {g: pretty(e) for g, e in getattr(assignment, part).items()} for part in ("initial", "step", "final")}
    return {
        "outcome": "report",
        "invariant": pretty(invariant),
        "assignment": parts,
        "verdict": repr(verdict),
        "stats": asdict(stats),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--budgets", type=int, nargs="+", default=[solver.SolverConfig().max_candidates])
    ap.add_argument("--jsonl", type=Path, help="also write one JSON line per run to this file")
    args = ap.parse_args(argv)

    digest, lines = hashlib.sha256(), []
    for seed in args.seeds:
        programs = workloads.generate(args.workload, seed)
        for budget in args.budgets:
            for p in programs:
                output, code, solves = run(p, budget)
                digest.update(repr((p.id, seed, budget, output, code, [repr(s) for s in solves])).encode())
                record = {
                    "workload": args.workload,
                    "seed": seed,
                    "program": p.id,
                    "budget": budget,
                    "exit": code,
                    "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
                    "solves": [outcome_json(s) for s in solves],
                }
                lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    if args.jsonl is not None:
        args.jsonl.write_text("".join(lines), encoding="utf-8")
    runs = len(lines)
    print(f"{args.workload} seeds {args.seeds} budgets {args.budgets}: {runs} runs, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
