"""Command-line front end.

Three modes over a program file (or ``-`` for stdin):

* ``discover`` — derive a putative invariant for every loop, search for
  witnesses instantiating its generalisation variables, and report the
  bounded-check verdict; where the solver had to coarsen the derived
  invariant, the invariant reported is the one witnessed and the
  derived one is shown beside it;
* ``verify`` — for a program whose loops already carry ``{invariant}``
  annotations, check the classical conditions that ``wlp`` generates by
  bounded enumeration: the global condition pre ⇒ wlp(program, post),
  which carries the first loops' establishment, plus each loop's
  preservation and exit conditions, at any nesting depth; a failing
  condition names the loops whose invariant it establishes;
* ``trace`` — print the numbered sequence of approximations the
  discovery engine walked through for each loop.

Exit codes: 0 all checks passed; 1 a bounded check found a
counterexample; 2 discovery or witness search failed, or the input was
rejected before checking (for ``verify``: a loop without an invariant,
or an invariant over unbound variables); 3 the command line was
malformed, the program did not parse or sort-check, a bound or the
iteration budget was below 1, or the input nests too deeply to analyse.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .engine import EngineConfig, LoopDiscovery, annotate_program
# `holds` is unused here, but perfbench's tracer counts calls through `cli.holds`.
from .evaluator import ceiling, first_store, holds  # noqa: F401
from .parser import ParseError, parse_program, pretty
from .simplifier import RULE_NAMES, SimpConfig
from .solver import (
    Failed,
    SolverConfig,
    SolverFailure,
    VerifiedUpToBound,
    diagnose_lost_variables,
    solve,
)
from .terms import Expr, Op, Triple, While, free_vars, program_vars, substatements
from .wlp import Obligation, WlpError, first_loops, top_conjuncts, wlp

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_NO_INVARIANT = 2
EXIT_BAD_INPUT = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopinv",
        description="discover and check loop invariants for a small imperative language",
    )
    p.add_argument("mode", choices=("discover", "verify", "trace"))
    p.add_argument("file", help="program file, or - to read from stdin")
    p.add_argument(
        "--bound",
        type=int,
        default=6,
        help="test stores over naturals up to this value (default 6)",
    )
    p.add_argument(
        "--max-iter",
        type=int,
        default=64,
        help="iteration budget for the discovery engine (default 64)",
    )
    p.add_argument(
        "--refutation-bound",
        type=int,
        default=8,
        help="store bound for the simplifier's refutation checks (default 8)",
    )
    p.add_argument(
        "--no-rule",
        action="append",
        choices=RULE_NAMES,
        default=[],
        metavar="RULE",
        help="disable a simplification rule (repeatable; R1..R6)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:  # argparse's usage-error code, 2, would read as "no invariant"
        return EXIT_BAD_INPUT if err.code else EXIT_OK
    for flag, value in (
        ("--bound", args.bound),
        ("--max-iter", args.max_iter),
        ("--refutation-bound", args.refutation_bound),
    ):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if os.environ.get("LOOPINV_SEED") is not None:
        print(
            "error: LOOPINV_SEED is set, but discovery and witness search are "
            "deterministic; unset it to proceed",
            file=sys.stderr,
        )
        return EXIT_NO_INVARIANT
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as err:
        print(f"error: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    mode = {"discover": _discover, "verify": _verify, "trace": _trace}[args.mode]
    try:
        triple = parse_program(text)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = mode(triple, args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RecursionError:  # a statement sequence or operator chain too long to walk
        print("error: the input nests too deeply to analyse", file=sys.stderr)
        return EXIT_BAD_INPUT
    _emit(out.getvalue())
    return code


def _emit(text: str) -> None:
    """Write the report to stdout.  A reader that closed the pipe early
    (`| head -1`) refutes nothing, so the rest is dropped quietly: stdout
    is pointed at the null device, where the interpreter's last flush
    at exit cannot fail either."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        max_iterations=args.max_iter,
        simp=SimpConfig(
            refutation_bound=args.refutation_bound,
            disabled_rules=frozenset(args.no_rule),
        ),
    )


def _trace_json(d: LoopDiscovery) -> list[dict]:
    if d.trace is None:
        return []
    return [
        {"kind": s.kind, "formula": pretty(s.formula), "note": s.note}
        for s in d.trace.steps
    ]


def _location(d: LoopDiscovery) -> str:
    return f"line {d.line}" if d.line is not None else "unknown line"


def _discover(triple: Triple, args: argparse.Namespace) -> int:
    annotated, discoveries = annotate_program(triple, _engine_config(args))
    solver_cfg = SolverConfig(domain_bound=args.bound)
    loops: list[dict] = []
    warnings: list[str] = []
    code = EXIT_OK
    for d in discoveries:
        info: dict = {
            "location": d.line,
            "invariant": pretty(d.putative) if d.putative is not None else None,
            "genvars": list(d.genvars),
            "assignment": None,
            "verdict": None,
            "trace": _trace_json(d),
        }
        loops.append(info)
        if d.failure is not None or d.putative is None or d.post is None:
            failure = d.failure
            info["error"] = (
                f"{failure.kind}: {failure.message}" if failure else "no postcondition"
            )
            code = max(code, EXIT_NO_INVARIANT)
            continue
        try:
            report = solve(annotated, d.node, d.putative, d.genvars, d.post, solver_cfg)
        except SolverFailure as err:
            info["error"] = f"no witnesses (requirement {err.requirement}): {err.detail}"
            for v in diagnose_lost_variables(d.putative, d.node.body):
                warnings.append(
                    f"variable '{v}' is updated in the loop body but absent from "
                    "the invariant; its updates were generalised away"
                )
            code = max(code, EXIT_NO_INVARIANT)
            continue
        assert report.assignment is not None
        skipped, collected = report.stats.runs_skipped, report.stats.runs_collected
        if skipped:
            warnings.append(
                f"loop at {_location(d)}: {skipped} runs were skipped (out of fuel or an "
                f"evaluation error) and {collected} collected; the verdict rests on the "
                "collected runs alone"
            )
        if report.invariant != d.putative:  # coarsened: the derived one has no witness
            info["invariant"] = pretty(report.invariant)
            info["derived_invariant"] = pretty(d.putative)
        info["assignment"] = {
            part: {g: pretty(e) for g, e in getattr(report.assignment, part).items()}
            for part in ("initial", "step", "final")
        }
        if isinstance(report.verdict, VerifiedUpToBound):
            info["verdict"] = {"kind": "VerifiedUpToBound", "bound": report.verdict.bound}
        else:
            assert isinstance(report.verdict, Failed)
            info["verdict"] = {
                "kind": "Failed",
                "requirement": report.verdict.requirement,
                "counterexample": dict(report.verdict.counterexample),
            }
            code = max(code, EXIT_REFUTED)

    if args.format == "json":
        print(json.dumps({"loops": loops, "warnings": warnings}, ensure_ascii=False, indent=2))
        return code
    for d, info in zip(discoveries, loops):
        print(f"loop at {_location(d)}:")
        if info["invariant"] is not None:
            print(f"  invariant: {info['invariant']}")
        if "derived_invariant" in info:
            print(f"  derived invariant: {info['derived_invariant']} (admits no witness; coarsened)")
        if info.get("error"):
            print(f"  error: {info['error']}")
            continue
        if info["genvars"]:
            print(f"  generalisation variables: {', '.join(info['genvars'])}")
            for g in info["genvars"]:
                a = info["assignment"]
                print(
                    f"    {g}: initial {a['initial'][g]}, step {a['step'][g]}, "
                    f"final {a['final'][g]}"
                )
        v = info["verdict"]
        if v["kind"] == "VerifiedUpToBound":
            print(f"  verdict: verified up to bound {v['bound']}")
        else:
            ce = " ".join(f"{k}={n}" for k, n in sorted(v["counterexample"].items()))
            print(f"  verdict: requirement {v['requirement']} fails at {ce}")
    for w in warnings:
        print(f"warning: {w}")
    return code


def _counterexample(formula: Expr, bound: int) -> dict[str, int] | None:
    """The first store, smallest maximum first, where `formula` does not
    hold.  On `A ⇒ C` that is where A's conjuncts hold and C does not,
    provided A cannot fail to evaluate in the box: a failing A makes the
    implication fail, and a store where a conjunct fails is no store where
    it holds."""
    holding, failing = [], [formula]
    if isinstance(formula, Op) and formula.op == "⇒":
        antecedent, consequent = formula.args
        if ceiling(antecedent, bound) is not None:
            holding, failing = top_conjuncts(antecedent), [consequent]
    return first_store(sorted(free_vars(formula)), holding, failing, bound)[0]


def _verify(triple: Triple, args: argparse.Namespace) -> int:
    known = program_vars(triple)
    loops = [st for st in substatements(triple.program) if isinstance(st, While)]
    for loop in loops:
        where = f"line {loop.line}" if loop.line is not None else "unknown line"
        if loop.invariant is None:
            print(
                f"error: loop at {where} has no {{invariant}} annotation; "
                "run discover first",
                file=sys.stderr,
            )
            return EXIT_NO_INVARIANT
        strange = sorted(free_vars(loop.invariant) - known)
        if strange:
            print(
                f"error: invariant at {where} mentions {', '.join(strange)}, "
                "which no program variable binds; generalisation variables must "
                "be instantiated before verification",
                file=sys.stderr,
            )
            return EXIT_NO_INVARIANT
    obligations: list[Obligation] = []
    try:
        pulled = wlp(triple.program, triple.post, obligations)
    except WlpError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_INVARIANT

    def check(formula: Expr, establishes: tuple[While, ...]) -> dict:
        ce = _counterexample(formula, args.bound)
        return {
            "holds": ce is None,
            "counterexample": ce,
            "establishes": sorted({loop.line for loop in establishes}),
        }

    # One entry per loop node, in source order; equal loops stay apart.
    entries = {id(loop): {"location": loop.line, "conditions": {}} for loop in loops}
    report: dict = {
        "bound": args.bound,
        "global": check(Op("⇒", (triple.pre, pulled)), first_loops(triple.program)),
        "loops": list(entries.values()),
    }
    for vc in obligations:
        entries[id(vc.loop)]["conditions"][vc.kind] = check(vc.formula, vc.establishes)
    named = [("global condition:", report["global"])] + [
        (f"loop at line {entry['location']}: {kind}", res)
        for entry in report["loops"]
        for kind, res in entry["conditions"].items()
    ]
    code = EXIT_OK if all(res["holds"] for _, res in named) else EXIT_REFUTED

    if args.format == "json":
        print(json.dumps(report, ensure_ascii=False, indent=2))
        return code
    for name, res in named:
        if res["holds"]:
            held = f" on all stores with values <= {args.bound}" if res is report["global"] else ""
            print(f"{name} holds{held}")
            continue
        ce = " ".join(f"{k}={v}" for k, v in sorted(res["counterexample"].items()))
        carried = ", ".join(f"the loop at line {n}" for n in res["establishes"])
        print(f"{name} fails at {ce}" + (f" (establishes {carried})" if carried else ""))
    return code


def _trace(triple: Triple, args: argparse.Namespace) -> int:
    _, discoveries = annotate_program(triple, _engine_config(args))
    code = EXIT_OK
    if args.format == "json":
        loops = []
        for d in discoveries:
            info = {"location": d.line, "trace": _trace_json(d)}
            if d.failure is not None:
                info["error"] = f"{d.failure.kind}: {d.failure.message}"
                code = max(code, EXIT_NO_INVARIANT)
            loops.append(info)
        print(json.dumps({"loops": loops}, ensure_ascii=False, indent=2))
        return code
    for d in discoveries:
        print(f"loop at {_location(d)}:")
        if d.trace is not None:
            for i, step in enumerate(d.trace.steps, start=1):
                note = f"  -- {step.note}" if step.note else ""
                print(f"  {i}. [{step.kind}] {pretty(step.formula)}{note}")
        if d.failure is not None:
            print(f"  error: {d.failure.kind}: {d.failure.message}")
            code = max(code, EXIT_NO_INVARIANT)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
