#!/usr/bin/env python3
"""The loopinv benchmark: time to verdict, per workload, in one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search-shallow --seed 1 --seconds 15 --trace 0

One run imports loopinv from ``src/``, generates the workload's programs
from the seed (see workloads.py) and runs them through ``loopinv.cli.main``
in passes, one ``main`` call per program with the source on standard
input and ``--format json``.  It starts passes until ``--seconds`` have
gone by, and always finishes the pass it started.  Every verdict is
checked against its known answer (known.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics of the traced
passes, per pass, plus ``trace_overhead``, the traced pass's wall time
over the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
programs that raised, ran past the time limit, exited 3 or gave a verdict
that contradicts the known answer; exit 2 (no invariant) is undecided,
not failed.  ``correct`` is false when the run cannot vouch for what it
measured: a program whose behaviour fingerprint (exit code, candidates
tried, failure requirement, digest of the JSON output) differs between
two runs of it in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import known
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
# Per-program time limits, in seconds: far above any program's time on
# the reference machine, so only a hang or a many-fold slowdown trips them.
PROGRAM_LIMIT = {"search-shallow": 30.0, "check-only": 30.0, "search-deep": 100.0}
# No program may run past this point of the run (seconds from its start),
# so a run ends within three minutes even when programs hang.
RUN_DEADLINE = 165.0


class ProgramTimeout(BaseException):
    """Raised into a program that ran past its time limit.  A BaseException,
    so that no `except Exception` inside loopinv can swallow it."""


@dataclass(frozen=True)
class Solve:
    """What one solve() call reported: its SolveStats, and for a failure the
    requirement and whether the candidate budget ran out."""

    stats: object
    requirement: int | None = None
    budget_exhausted: bool = False


@dataclass
class Result:
    program: workloads.Program
    seconds: float
    outcome: int | str  # exit code, "timeout" or "traceback"
    verdict: str  # known.DECIDED / UNDECIDED / FAILED
    fingerprint: tuple
    solves: list[Solve]


@dataclass
class Pass:
    results: list[Result]
    wall_s: float
    complete: bool


# ---------------------------------------------------------------------------
# Set-up


def import_loopinv():
    """A fresh import of loopinv, so that each set-up repeat pays for it."""
    for name in [m for m in sys.modules if m == "loopinv" or m.startswith("loopinv.")]:
        del sys.modules[name]
    importlib.import_module("loopinv.cli")
    return sys.modules["loopinv"]


def set_up(workload: str, seed: int):
    """Import loopinv, generate the programs and parse them; repeated, and
    the median time reported.  Returns (loopinv, programs, setup_s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        loopinv = import_loopinv()
        programs = workloads.generate(workload, seed)
        for p in programs:
            loopinv.parse_program(p.text)
        times.append(time.perf_counter() - start)
    return loopinv, programs, statistics.median(times)


# ---------------------------------------------------------------------------
# Running programs


class SolveProbe:
    """Records every solve() call cli makes; part of the behaviour
    fingerprint, so it is on in every pass.  It keeps the stats, not the
    SolverFailure: the exception's traceback holds the search's template
    lists, and keeping them alive would slow every later program."""

    def __init__(self, loopinv):
        self.loopinv = loopinv
        self.calls: list[Solve] = []
        self._solve = loopinv.cli.solve
        loopinv.cli.solve = self

    def __call__(self, *args, **kwargs):
        try:
            report = self._solve(*args, **kwargs)
        except self.loopinv.SolverFailure as err:
            self.calls.append(Solve(err.stats, err.requirement, "budget" in err.detail))
            raise
        self.calls.append(Solve(report.stats))
        return report


def _without_timing(doc):
    """The JSON output with timing fields aside: keys naming a time."""
    if isinstance(doc, dict):
        return {
            k: _without_timing(v)
            for k, v in doc.items()
            if not (k.endswith("_s") or "time" in k or k == "elapsed")
        }
    if isinstance(doc, list):
        return [_without_timing(v) for v in doc]
    return doc


def _digest(stdout: str) -> str:
    try:
        canonical = json.dumps(_without_timing(json.loads(stdout)), sort_keys=True, ensure_ascii=False)
    except json.JSONDecodeError:
        canonical = stdout
    return hashlib.sha256(canonical.encode()).hexdigest()


def _on_alarm(signum, frame):
    raise ProgramTimeout()


def run_program(loopinv, probe: SolveProbe, program: workloads.Program, limit: float, tracer=None) -> Result:
    argv = [program.mode, "-", *program.flags, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(program.text)
    probe.calls = []
    # Each program starts from a collected heap, as a fresh `loopinv`
    # process would, whatever the programs before it left behind.
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    if tracer is not None:
        tracer.program = program.id
        span = tracer.open("cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome: int | str = loopinv.cli.main(argv)
    except ProgramTimeout:
        outcome = "timeout"
    except Exception as exc:  # a traceback is a measured failure, not a crash
        outcome = f"traceback:{type(exc).__name__}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = saved_stdin
    kind = outcome if isinstance(outcome, int) else outcome.split(":")[0]
    verdict = known.classify(program.mode, known.answer(program.id, program.mode), kind)
    solves = probe.calls
    fingerprint = (
        program.id,
        outcome,
        tuple(s.stats.candidates_tried for s in solves),
        tuple(s.requirement for s in solves),
        _digest(out.getvalue()),
    )
    return Result(program, seconds, outcome, verdict, fingerprint, solves)


def run_pass(loopinv, probe, programs, limit: float, run_start: float, tracer=None) -> Pass:
    results = []
    start = time.perf_counter()
    for program in programs:
        remaining = RUN_DEADLINE - (time.perf_counter() - run_start)
        if remaining <= 0:
            return Pass(results, time.perf_counter() - start, False)
        results.append(run_program(loopinv, probe, program, min(limit, remaining), tracer))
        if results[-1].outcome == "timeout":
            return Pass(results, time.perf_counter() - start, False)
    return Pass(results, time.perf_counter() - start, True)


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the notes that state their sample counts.

    A program's time to verdict is the median over its runs in this
    process, and the percentiles are taken across programs, so every
    program weighs the same however many passes the run made."""
    results = [r for p in passes for r in p.results]
    runs: dict[str, list[float]] = {}
    for r in results:
        runs.setdefault(r.program.id, []).append(r.seconds)
    times = sorted(statistics.median(ts) for ts in runs.values())
    complete = [p.wall_s for p in passes if p.complete] or [p.wall_s for p in passes]
    n = len(results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(complete), "s"),
        "verdict_s_p50": (percentile(times, 50), "s"),
        "verdict_s_p90": (percentile(times, 90), "s"),
        "decided_share": (sum(r.verdict == known.DECIDED for r in results) / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {SETUP_REPEATS} set-ups (import, generate, parse)",
        f"wall_s: median over {len(complete)} complete pass(es) of {len(passes[0].results)} programs",
    ]
    for q in (50, 90):
        beyond = len(times) - (len(times) * q + 99) // 100
        warn = "" if beyond >= 10 else "; fewer than 10 samples beyond it, read with care"
        notes.append(
            f"verdict_s_p{q}: across {len(times)} programs, each the median of its "
            f"{min(map(len, runs.values()))}-{max(map(len, runs.values()))} runs; "
            f"{beyond} beyond the percentile{warn}"
        )
    failed = sum(r.verdict == known.FAILED for r in results)
    notes.append(f"failed_share: {failed / n:.4f} ({failed} of {n} attempted)")
    return metrics, notes


def per_layer(traced: list[tracing.Tracer], traced_passes: list[Pass], plain_passes: list[Pass]) -> dict:
    """Per-layer metrics per traced pass (totals divided by the passes)."""
    k = len(traced)
    t: dict[str, float] = {}
    for tracer in traced:
        for name, value in tracer.totals().items():
            t[name] = t.get(name, 0.0) + value
    solves = [s for p in traced_passes for r in p.results for s in r.solves]

    def stat(attr: str) -> float:
        return sum(getattr(s.stats, attr) for s in solves) / k

    candidates = stat("candidates_tried")
    search_s = t.get("solver.solve.self_s", 0.0) / k
    m = {
        "solver.solve.s": (t.get("solver.solve.s", 0.0) / k, "s"),
        "solver.search.self_s": (search_s, "s"),
        "solver.candidates_tried": (candidates, "count"),
        "solver.candidates_per_s": (candidates / search_s if search_s else 0.0, "1/s"),
        "solver.stores_tested": (stat("stores_tested"), "count"),
        "solver.step_truncations": (stat("step_truncations"), "count"),
        "solver.eval_rejections": (stat("eval_rejections"), "count"),
        "solver.budget_exhausted": (sum(s.budget_exhausted for s in solves) / k, "count"),
    }
    for req in (1, 2, 3):
        m[f"solver.failure.req{req}"] = (sum(s.requirement == req for s in solves) / k, "count")
    m["solver.collect_trajectories.s"] = (t.get("solver.collect_trajectories.s", 0.0) / k, "s")
    m["solver.runs_collected"] = (stat("runs_collected"), "count")
    m["solver.runs_skipped"] = (stat("runs_skipped"), "count")
    m["solver.check_requirements.s"] = (t.get("solver.check_requirements.s", 0.0) / k, "s")
    for _, _, name in tracing.COUNTS:
        m[name] = (t.get(name, 0.0) / k, "count")
    named = [
        ("evaluator.exec_stmt.calls", "count"),
        ("evaluator.exec_stmt.s", "s"),
        ("simplifier.simplify.calls", "count"),
        ("simplifier.simplify.self_s", "s"),
        ("simplifier.refuted.calls", "count"),
        ("simplifier.refuted.s", "s"),
    ]
    named += [(f"simplifier.fires.{rule}", "count") for rule in tracing.RULES]
    named += [
        ("engine.find_invariant.calls", "count"),
        ("engine.find_invariant.s", "s"),
    ]
    named += [(f"engine.steps.{kind}", "count") for kind in tracing.STEP_KINDS]
    named += [
        ("wlp.wlp.calls", "count"),
        ("wlp.wlp.self_s", "s"),
        ("embedding.coupled.calls", "count"),
        ("embedding.coupled.s", "s"),
        ("embedding.msg.calls", "count"),
        ("embedding.msg.s", "s"),
        ("cli.main.s", "s"),
    ]
    for name, unit in named:
        m[name] = (t.get(name, 0.0) / k, unit)
    m["cli.verify.holds_calls"] = (t.get("evaluator.holds.calls.cli", 0.0) / k, "count")
    m["parser.parse_program.calls"] = (t.get("parser.parse_program.calls", 0.0) / k, "count")
    m["parser.parse_program.s"] = (t.get("parser.parse_program.s", 0.0) / k, "s")
    plain = statistics.median(p.wall_s for p in plain_passes)
    m["trace_overhead"] = (statistics.median(p.wall_s for p in traced_passes) / plain, "ratio")
    return m


# ---------------------------------------------------------------------------
# Reporting


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint_digest(results: list[Result]) -> str:
    rows = sorted(json.dumps(r.fingerprint) for r in results)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def check_determinism(passes: list[Pass]) -> list[str]:
    """Program ids whose fingerprint differs between two runs of them."""
    seen: dict[str, tuple] = {}
    differ = []
    for p in passes:
        for r in p.results:
            first = seen.setdefault(r.program.id, r.fingerprint)
            if first != r.fingerprint and r.program.id not in differ:
                differ.append(r.program.id)
    return differ


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopinv" / "__init__.py").is_file():
        print(f"error: no loopinv sources under {SRC}; run from a loopinv checkout", file=sys.stderr)
        return 2
    if os.environ.get("LOOPINV_SEED") is not None:
        print("error: unset LOOPINV_SEED; loopinv refuses to run with it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_start = time.perf_counter()
    loopinv, programs, setup_s = set_up(args.workload, args.seed)
    probe = SolveProbe(loopinv)
    signal.signal(signal.SIGALRM, _on_alarm)
    limit = PROGRAM_LIMIT[args.workload]

    print(f"# python {platform.python_version()} | cpu {cpu_model()} | nproc {len(os.sched_getaffinity(0))}")
    print(f"# git {git_revision()} | workload {args.workload} | seed {args.seed} | trace {args.trace}")

    plain: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[tracing.Tracer] = []
    measure_start = time.perf_counter()
    while not plain or time.perf_counter() - measure_start < args.seconds:
        plain.append(run_pass(loopinv, probe, programs, limit, run_start))
        if args.trace:
            tracer = tracing.Tracer()
            saved = tracer.install()
            try:
                traced.append(run_pass(loopinv, probe, programs, limit, run_start, tracer))
            finally:
                tracing.Tracer.restore(saved)
            tracers.append(tracer)
        if not (plain[-1].complete and (not traced or traced[-1].complete)):
            break

    passes = plain + traced
    results = [r for p in passes for r in p.results]
    differ = check_determinism(passes)
    failed = [r for r in results if r.verdict == known.FAILED]

    if args.trace:
        metrics = per_layer(tracers, traced, plain)
        notes = [f"per-layer metrics per traced pass, over {len(traced)} traced pass(es)"]
    else:
        metrics, notes = end_to_end(plain, setup_s)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for pid in dict.fromkeys(r.program.id for r in failed):
        runs = [r for r in failed if r.program.id == pid]
        p = runs[0].program
        print(f"# failed: {pid} ({p.mode}, known {known.answer(pid, p.mode)}) -> {runs[0].outcome}, {len(runs)} run(s)")
    print(f"# fingerprint digest (first pass, sorted): {fingerprint_digest(plain[0].results)}")
    if differ:
        print(f"# NOT DETERMINISTIC: fingerprints differ for {', '.join(differ)}")

    print(
        json.dumps(
            {
                "correct": not differ,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
