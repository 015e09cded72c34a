"""Golden outcomes of every benchmark workload under three budgets.

`tests/golden/outcomes/<workload>.jsonl` holds one JSON line per run of
`scripts/outcome_digest.py` over seeds 1 2 and budgets 1 10000 200000:
the exit code, the sha256 of the JSON output, and each `solve` call's
outcome with its whole `SolveStats`.  `search-deep-cuts.jsonl` holds
search-deep under budgets 300 53700 54150 54152, which run out inside
square-multiply's steps, its conditional prefilter, its pairs of branch
templates and its finals.  Discovery is deterministic, so a change that
means to leave behaviour alone must leave every line alone; a failure
names each run that moved.  A change that moves outcomes on purpose
rewrites the files with the command in that script's docstring and
lists the moved runs in CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "outcomes"
BUDGETS = ["1", "10000", "200000"]
# Each golden file by name: the workload and the budgets it was run under.
GOLDENS = {
    "search-shallow": ("search-shallow", BUDGETS),
    "search-deep": ("search-deep", BUDGETS),
    "check-only": ("check-only", BUDGETS),
    "search-deep-cuts": ("search-deep", ["300", "53700", "54150", "54152"]),
}


def _runs(path: Path) -> dict[tuple, dict]:
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs[(record["seed"], record["program"], record["budget"])] = record
    return runs


@pytest.mark.parametrize("name", GOLDENS)
def test_outcomes_match_the_goldens(name, tmp_path):
    workload, budgets = GOLDENS[name]
    fresh = tmp_path / f"{name}.jsonl"
    argv = [sys.executable, str(ROOT / "scripts" / "outcome_digest.py"), workload]
    argv += ["--seeds", "1", "2", "--budgets", *budgets, "--jsonl", str(fresh)]
    subprocess.run(argv, check=True, capture_output=True)
    want, got = _runs(GOLDEN / f"{name}.jsonl"), _runs(fresh)
    moved = [
        "seed {} {} budget {}: {} -> {}".format(*key, want.get(key), got.get(key))
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]
    assert not moved, f"{len(moved)} of {len(want)} runs moved:\n" + "\n".join(moved)
