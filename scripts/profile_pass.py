#!/usr/bin/env python3
"""Profile one benchmark pass of loopinv under cProfile.

Usage (from the root of a checkout):

    python3 scripts/profile_pass.py WORKLOAD [--seed N] [--sort tottime]

Generates the programs of one pass of WORKLOAD (``search-shallow``,
``search-deep`` or ``check-only``) with ``perfbench/workloads.generate``
and runs each through ``loopinv.cli.main`` as the benchmark does (source
on stdin, ``--format json``).  It first runs the pass once counting the
``Op`` nodes built, the ``Op`` nodes compiled into closures, the full
checks of step candidates (calls of ``_Search._preserves``) and the
bounded box checks (calls of ``evaluator.first_store`` by ``verify``,
requirement 3 and R5, the stores at which they evaluated a formula, and
the stores a plain scan up to the same store would have visited, the sum
of the positions they return), then runs it
again under cProfile and prints the 25 functions that rank highest by
``--sort`` (any ``pstats`` key; default ``tottime``).  The counting pass
runs without the profiler and the profiled pass without the counters, so
neither distorts the other.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
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


def count_work(programs: list[workloads.Program]) -> tuple[int, ...]:
    """The Op nodes built and compiled, the full checks of step
    candidates, and the box checks with the stores they evaluated and the
    stores a plain scan would have visited, during one pass."""
    built = compiled = checked = boxes = evaluated = scanned = 0
    post_init, compile_, preserves = Op.__post_init__, evaluator._compiled, solver._Search._preserves
    first_store, holds = evaluator.first_store, evaluator.holds
    callers = (cli, simplifier, solver)  # each calls first_store by its own name
    last = None  # the store of the last formula evaluated inside first_store

    def counting_post_init(node: Op) -> None:
        nonlocal built
        built += 1
        post_init(node)

    def counting_compile(e):
        nonlocal compiled
        compiled += type(e) is Op and "_closure" not in vars(e)
        return compile_(e)

    def counting_preserves(*args):
        nonlocal checked
        checked += 1
        return preserves(*args)

    def counting_first_store(*args):
        nonlocal boxes, scanned, last
        boxes += 1
        evaluator.holds = counting_holds
        try:
            store, position = first_store(*args)
        finally:
            evaluator.holds, last = holds, None
        scanned += position
        return store, position

    def counting_holds(e, store):
        nonlocal evaluated, last
        evaluated += store is not last  # a store's formulas are evaluated in a row
        last = store
        return holds(e, store)

    Op.__post_init__, evaluator._compiled = counting_post_init, counting_compile
    solver._Search._preserves = counting_preserves
    for module in callers:
        module.first_store = counting_first_store
    try:
        run_pass(programs)
    finally:
        Op.__post_init__, evaluator._compiled = post_init, compile_
        solver._Search._preserves = preserves
        for module in callers:
            module.first_store = first_store
    return built, compiled, checked, boxes, evaluated, scanned


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", default="tottime", help="a pstats sort key")
    args = ap.parse_args(argv)

    programs = workloads.generate(args.workload, args.seed)
    built, compiled, checked, boxes, evaluated, scanned = count_work(programs)
    print(f"{args.workload} seed {args.seed}: {len(programs)} programs")
    print(f"Op nodes built {built:,}, compiled {compiled:,}; full checks of steps {checked:,}")
    print(
        f"box checks (first_store) {boxes:,}: {evaluated:,} stores evaluated, "
        f"{scanned:,} for a plain scan"
    )
    profile = cProfile.Profile()
    profile.runcall(run_pass, programs)
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(25)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
