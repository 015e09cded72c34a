#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against the working tree.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py REV --workload search-deep --seconds 15 --seeds 1 2 3

Writes plain copies of REV and of the working tree (``git stash create``,
or HEAD when the tree is clean; untracked files are left out, so ``git
add`` new ones first) with ``git archive`` into two temporary
directories whose paths have equal length.  Peak RSS depends on where a
checkout lies and what lies in it (a ``git worktree`` of the same code
read 0.08 MB apart from the working tree), so both sides run from such
copies.  For each seed it runs ``perfbench/run.py --workload W --seed S
--seconds X --trace 0`` once on each copy, one after the other, and
alternates from seed to seed which side runs first, so that a drift in
the host's speed does not favour one side.  It prints every pair, then
each side's median and quartiles for each end-to-end metric that
``BENCHMARK.json`` declares, the pairs the working tree won on
``--metric``, whether a gain on it may be claimed, and whether the two
behaviour fingerprint digests matched in every pair, and exits 1 when
they did not.  A gain may be claimed when the working tree won at least
nine tenths of the pairs (a tie counts for neither side) and its median
is better than REV's by more than REV's interquartile range.  The copies are removed
afterwards, also when a run fails.

The benchmark is run as it stands in each checkout; nothing under
``perfbench/`` is imported or changed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^# fingerprint digest \(first pass, sorted\): (\S+)$", re.MULTILINE)


def export(rev: str, dest: Path) -> None:
    """The files of the commit `rev` in the new directory `dest`."""
    dest.mkdir()
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], str]:
    """One benchmark run in `checkout`: its end-to-end metrics and its
    fingerprint digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} is not deterministic:\n{done.stdout}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, DIGEST.search(done.stdout).group(1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--metric", default="wall_s", help="the metric to count pairs won on")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    if args.metric not in better:
        ap.error(f"--metric must be one of {', '.join(better)}")

    sides: dict[str, list[dict[str, float]]] = {args.rev: [], "tree": []}
    pairs = []  # (rev's metric, the tree's metric, whether the digests match)
    stash = subprocess.run(
        ["git", "stash", "create"], cwd=ROOT, check=True, capture_output=True, text=True
    )
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = {args.rev: Path(tmp) / "base", "tree": Path(tmp) / "tree"}  # equal lengths
        export(args.rev, copies[args.rev])
        export(stash.stdout.strip() or "HEAD", copies["tree"])
        for i, seed in enumerate(args.seeds):
            order = list(copies.items())
            if i % 2:
                order.reverse()
            got = {}
            for side, path in order:
                got[side] = run_bench(path, args.workload, seed, args.seconds)
                sides[side].append(got[side][0])
            (rev_m, rev_d), (tree_m, tree_d) = got[args.rev], got["tree"]
            pairs.append((rev_m[args.metric], tree_m[args.metric], rev_d == tree_d))
            print(
                f"seed {seed:3d} first {order[0][0]:>10s}  {args.metric} {args.rev} "
                f"{rev_m[args.metric]:.4g}  tree {tree_m[args.metric]:.4g}  "
                f"digests {'match' if rev_d == tree_d else 'DIFFER'} ({tree_d[:8]})",
                flush=True,
            )

    print(f"\n{args.workload}, {len(pairs)} pair(s), median [q1, q3]")
    for name in better:
        cells = []
        for side, runs in sides.items():
            q1, q2, q3 = quartiles([m[name] for m in runs])
            cells.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"  {name:15s} " + "   ".join(cells))
    lower = better[args.metric] == "lower"
    won = sum((tree < rev) if lower else (tree > rev) for rev, tree, _ in pairs)
    print(f"tree won {won} of {len(pairs)} pairs on {args.metric} ({better[args.metric]} is better)")
    q1, rev_median, q3 = quartiles([rev for rev, _, _ in pairs])
    tree_median = statistics.median(tree for _, tree, _ in pairs)
    gain = rev_median - tree_median if lower else tree_median - rev_median
    claim = won * 10 >= 9 * len(pairs) and gain > q3 - q1
    print(
        f"gain claimable: {'yes' if claim else 'no'} (won {won} of {len(pairs)}, nine tenths needed; "
        f"median gain {gain:.4g} against {args.rev}'s interquartile range {q3 - q1:.4g})"
    )
    matched = sum(match for _, _, match in pairs)
    print(f"fingerprint digests matched in {matched} of {len(pairs)} pairs")
    return 0 if matched == len(pairs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
