"""Golden outcomes of every benchmark workload under three budgets.

`tests/golden/outcomes/<workload>.jsonl` holds one JSON line per run of
`scripts/outcome_digest.py` over seeds 1 2 and budgets 1 10000 200000:
the exit code, the sha256 of the JSON output, and each `solve` call's
outcome with its whole `SolveStats`.  Discovery is deterministic, so a
change that means to leave behaviour alone must leave every line alone;
a failure names each run that moved.  A change that moves outcomes on
purpose rewrites the files with the command in that script's docstring
and lists the moved runs in CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "outcomes"
WORKLOADS = ("search-shallow", "search-deep", "check-only")


def _runs(path: Path) -> dict[tuple, dict]:
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs[(record["seed"], record["program"], record["budget"])] = record
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outcomes_match_the_goldens(workload, tmp_path):
    fresh = tmp_path / f"{workload}.jsonl"
    argv = [sys.executable, str(ROOT / "scripts" / "outcome_digest.py"), workload]
    argv += ["--seeds", "1", "2", "--budgets", "1", "10000", "200000", "--jsonl", str(fresh)]
    subprocess.run(argv, check=True, capture_output=True)
    want, got = _runs(GOLDEN / f"{workload}.jsonl"), _runs(fresh)
    moved = [
        "seed {} {} budget {}: {} -> {}".format(*key, want.get(key), got.get(key))
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not moved, f"{len(moved)} of {len(want)} runs moved:\n" + "\n".join(moved)
