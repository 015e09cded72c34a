#!/usr/bin/env python3
"""Run every mode in both output formats over every bundled example program.

Usage: python3 scripts/run_corpus.py [extra flags for every run]

Each run prints its standard output, standard error and exit code under
one header, so the outputs of two trees compare with a single ``diff``.
"""

import contextlib
import io
import sys
from pathlib import Path

from loopinv.cli import main

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
MODES = ("discover", "verify", "trace")
FORMATS = ("text", "json")


def run() -> int:
    extra = sys.argv[1:]
    worst = 0
    for path in sorted(PROGRAMS.glob("*.imp")):
        for mode in MODES:
            for fmt in FORMATS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([mode, str(path), "--format", fmt, *extra])
                print(f"=== {path.name} {mode} {fmt} ===")
                print(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}--- exit code {code}\n")
                worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(run())
