#!/usr/bin/env python3
"""Print the lines of ``src/loopinv`` that a pytest run never reaches.

Usage (from the root of a checkout):

    python3 scripts/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in-process (default arguments: ``tests -q``) under a
``sys.settrace`` line tracer, standard library only, and prints per
module the lines that carry bytecode and never ran, then the total.

The tracer is installed again before each test (``pytest_runtest_call``).
The interpreter removes a trace function that raises, as one can when a
test exhausts the stack, and a test may set a tracer of its own; either
would otherwise end the recording partway through the run.  What such a
test runs after that point is still not recorded (``cli.main``'s
``RecursionError`` handler).  Code run in a subprocess (the closed-pipe
test of ``tests/test_cli.py``, the ``tests/test_outcome_golden.py``
runs) is not followed, so its lines count here only if an in-process
test reaches them too.  Under the tracer the tests run three to five
times slower.

Exit code: pytest's, or 1 if the tracer recorded no line of loopinv.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loopinv"

ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


class Tracer:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_calls)
        yield


def code_lines(path: Path) -> set[int]:
    """The lines of a module that carry bytecode, in any of its code objects."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_calls)  # from collection on, so that module bodies count
    code = pytest.main(sys.argv[1:] or ["tests", "-q"], plugins=[Tracer()])
    sys.settrace(None)
    total = never = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in ran)
        total += len(lines)
        never += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} of {len(lines)} never ran: {ranges(missed)}")
    print(f"never ran: {never} of {total} lines in {PACKAGE.relative_to(ROOT)}")
    if not ran:
        print("error: the tracer recorded no line of loopinv", file=sys.stderr)
        return 1
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
