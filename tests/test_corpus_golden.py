"""Golden outputs of the command line on the bundled corpus.

Each case pins the exit code and the exact standard output of one
command.  Discovery and witness search are deterministic, so a change
that means to leave behaviour alone must leave these bytes alone.  After
a change that alters an output on purpose, regenerate the files with

    PYTHONPATH=src python3 tests/test_corpus_golden.py

and explain the difference in CHANGES.md.
"""

from pathlib import Path

import pytest

from loopinv.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (program, argv after the file name, exit code)
CASES = [
    ("exp_binary", ["trace", "--format", "json"], 0),
    ("exp_binary_pos", ["trace", "--format", "json"], 0),
    ("exp_nested", ["trace", "--format", "json"], 0),
    ("exp_simple", ["trace", "--format", "json"], 0),
    ("exp_simple_annotated", ["trace", "--format", "json"], 0),
    ("exp_swapped", ["trace", "--format", "json"], 0),
    ("exp_simple", ["discover", "--format", "json"], 0),
    ("exp_nested", ["discover", "--format", "json"], 0),
    ("exp_binary", ["discover", "--format", "json"], 0),
    ("exp_binary_pos", ["discover", "--format", "json"], 0),
    ("exp_swapped", ["discover", "--format", "json"], 2),
    ("exp_simple_annotated", ["verify"], 0),
    ("exp_simple_annotated", ["verify", "--format", "json"], 0),
]


def _golden_file(program: str, argv: list[str]) -> Path:
    suffix = "json" if "json" in argv else "txt"
    return GOLDEN / f"{program}.{argv[0]}.{suffix}"


def _run(program: str, argv: list[str], capsys) -> tuple[int, str]:
    code = main([argv[0], str(PROGRAMS / f"{program}.imp"), *argv[1:]])
    return code, capsys.readouterr().out


def _case_ids() -> list[str]:
    """Name each case program-command; a repeat of that pair adds its format."""
    ids: list[str] = []
    for program, argv, _ in CASES:
        case_id = f"{program}-{argv[0]}"
        if case_id in ids:
            case_id += "-" + _golden_file(program, argv).suffix.lstrip(".")
        ids.append(case_id)
    return ids


@pytest.mark.parametrize("program, argv, code", CASES, ids=_case_ids())
def test_corpus_output_matches_golden(program, argv, code, capsys):
    got_code, out = _run(program, argv, capsys)
    assert got_code == code
    assert out == _golden_file(program, argv).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for program, argv, _ in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main([argv[0], str(PROGRAMS / f"{program}.imp"), *argv[1:]])
        _golden_file(program, argv).write_text(buf.getvalue(), encoding="utf-8")
