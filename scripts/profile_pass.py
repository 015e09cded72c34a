#!/usr/bin/env python3
"""Profile one benchmark pass of loopinv under cProfile.

Usage (from the root of a checkout):

    python3 scripts/profile_pass.py WORKLOAD [--seed N] [--sort tottime]

Generates the programs of one pass of WORKLOAD (``search-shallow``,
``search-deep`` or ``check-only``) with ``perfbench/workloads.generate``
and runs each through ``loopinv.cli.main`` as the benchmark does (source
on stdin, ``--format json``).  It first runs the pass once counting the
``Op`` nodes built, the ``Op`` nodes compiled into closures, the
statements run (calls of ``exec_stmt`` by the solver), the template
pools built (constructions of ``solver._Pool``), the full checks of step
candidates (calls of ``_Search._preserves``), the full checks of
initials (calls of ``solver._entry_counterexample``: the search's, plus
one per conjunct without generalisation variables and one per re-check
by ``check_requirements``), the rows summarised and the candidates
judged by value at the front (calls of ``solver._Level.summary`` and
``solver._Front.judge``), the conditional stages entered (steps first
asked of ``_Search._conditional_steps``) and their prefilter's full
checks (calls of ``solver._step_counterexample`` on one-transition runs
while ``solver._Kept`` sifts the branch templates of a size), and the
bounded box checks
(calls of ``evaluator.first_store`` by ``verify``, requirement 3 and R5,
the formulas they tested and the variables they solved for, as calls of
the formulas' closures in the checks that ``evaluator._checks`` compiles
inside them and of the closures that ``evaluator._admission`` compiles
there, and the stores a plain scan up to the same store would have
visited, the sum of the positions they return), then runs it again under
cProfile and prints the 25 functions that rank highest by ``--sort``
(any ``pstats`` key; default ``tottime``).  The counting pass runs
without the profiler and the profiled pass without the counters, so
neither distorts the other.  It exits 1 when box checks ran but no
formula was counted, or conditional stages ran but no prefilter check
was counted, so that a counter that no longer sees the tests does not
go unnoticed.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from loopinv import cli, evaluator, simplifier, solver  # noqa: E402
from loopinv.terms import Op  # noqa: E402


def run_pass(programs: list[workloads.Program]) -> None:
    for p in programs:
        saved, sys.stdin = sys.stdin, io.StringIO(p.text)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main([p.mode, "-", *p.flags, "--format", "json"])
        finally:
            sys.stdin = saved


def count_work(programs: list[workloads.Program]) -> Counter[str]:
    """The Op nodes built and compiled, the statements run, the template
    pools built, the full checks of step candidates and of initials, the
    rows summarised and the candidates judged at the front, the
    conditional stages entered and their prefilter's full checks, and the
    box checks with the formulas they tested, the variables they solved
    for and the stores a plain scan would have visited, during one pass."""
    counts: Counter[str] = Counter()
    post_init, compile_, preserves = Op.__post_init__, evaluator._compiled, solver._Search._preserves
    entry_counterexample, step_counterexample = solver._entry_counterexample, solver._step_counterexample
    exec_stmt, pool_init = solver.exec_stmt, solver._Pool.__init__
    summary, judge = solver._Level.summary, solver._Front.judge
    conditional_steps, sift = solver._Search._conditional_steps, solver._Kept.__call__
    first_store, checks, admission = evaluator.first_store, evaluator._checks, evaluator._admission
    callers = (cli, simplifier, solver)  # each calls first_store by its own name
    sifting: list[int] = []

    def counting(key: str, f):
        def run(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)

        return run

    def counting_post_init(node: Op) -> None:
        counts["built"] += 1
        post_init(node)

    def counting_compile(e):
        counts["compiled"] += type(e) is Op and "_closure" not in vars(e)
        return compile_(e)

    def counting_conditional_steps(*args):
        counts["stages"] += 1  # a generator: counted when first asked for a step
        yield from conditional_steps(*args)

    def counting_sift(kept, n):
        sifting.append(n)
        try:
            return sift(kept, n)
        finally:
            sifting.pop()

    def counting_step_counterexample(*args):
        counts["prefiltered"] += bool(sifting)
        return step_counterexample(*args)

    def counting_first_store(*args):
        counts["boxes"] += 1
        evaluator._checks, evaluator._admission = counting_checks, counting_admission
        try:
            store, position = first_store(*args)
        finally:
            evaluator._checks, evaluator._admission = checks, admission
        counts["scanned"] += position
        return store, position

    def counting_checks(tests):
        return checks([(counting("tested", test), want) for test, want in tests])

    def counting_admission(*args):
        return counting("solved", admission(*args))

    Op.__post_init__, evaluator._compiled = counting_post_init, counting_compile
    solver._Search._preserves = counting("checked", preserves)
    solver._entry_counterexample = counting("initials", entry_counterexample)
    solver._step_counterexample = counting_step_counterexample
    solver.exec_stmt = counting("executed", exec_stmt)
    solver._Pool.__init__ = counting("pools", pool_init)
    solver._Level.summary, solver._Front.judge = counting("summaries", summary), counting("judged", judge)
    solver._Search._conditional_steps, solver._Kept.__call__ = counting_conditional_steps, counting_sift
    for module in callers:
        module.first_store = counting_first_store
    try:
        run_pass(programs)
    finally:
        Op.__post_init__, evaluator._compiled = post_init, compile_
        solver._Search._preserves = preserves
        solver._entry_counterexample, solver._step_counterexample = entry_counterexample, step_counterexample
        solver.exec_stmt, solver._Pool.__init__ = exec_stmt, pool_init
        solver._Level.summary, solver._Front.judge = summary, judge
        solver._Search._conditional_steps, solver._Kept.__call__ = conditional_steps, sift
        for module in callers:
            module.first_store = first_store
    return counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", default="tottime", help="a pstats sort key")
    args = ap.parse_args(argv)

    programs = workloads.generate(args.workload, args.seed)
    c = count_work(programs)
    print(f"{args.workload} seed {args.seed}: {len(programs)} programs")
    print(
        f"Op nodes built {c['built']:,}, compiled {c['compiled']:,}; exec_stmt calls {c['executed']:,}; "
        f"template pools built {c['pools']:,}; full checks of steps {c['checked']:,}, "
        f"of initials {c['initials']:,}"
    )
    print(
        f"front: rows summarised {c['summaries']:,}, candidates judged {c['judged']:,}; "
        f"conditional stages {c['stages']:,}, prefilter full checks {c['prefiltered']:,}"
    )
    print(
        f"box checks (first_store) {c['boxes']:,}: {c['tested']:,} formulas tested, "
        f"{c['solved']:,} solves, {c['scanned']:,} stores for a plain scan"
    )
    if c["boxes"] and not c["tested"]:
        print("error: box checks ran but no formula was counted", file=sys.stderr)
        return 1
    if c["stages"] and not c["prefiltered"]:
        print("error: conditional stages ran but no prefilter check was counted", file=sys.stderr)
        return 1
    profile = cProfile.Profile()
    profile.runcall(run_pass, programs)
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
