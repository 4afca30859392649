"""Fail when a line of src/distboost never runs in the tier-1 tests.

Run from the repository root as

    PYTHONPATH=src python tests/linetrace.py

It runs the tier-1 pytest arguments in this process under sys.settrace, and
threading.settrace for the threads the tests start, with hypothesis seeded
at 0 so that no line hangs on a random draw.  The executable lines of each
src/distboost/*.py are those that code.co_lines() lists for the compiled
file, nested functions and classes included.  The exit status is pytest's
when a test fails; otherwise 1 when a line that did not run is missing from
ALLOWED, or when an ALLOWED entry matches no line that did not run (its
line ran, or is gone), with one `file:line: source` per fault; else 0.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "distboost"

# (file name, stripped source line): why no in-process test can run it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only under `python -m distboost.cli`; tests/test_cli.py checks in a "
        "subprocess that it passes main's exit code on",
}


def executable_lines(path):
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(args):
    """pytest's exit status, and the (file, line) pairs of src/distboost that ran."""
    paths = {str(p) for p in SRC.glob("*.py")}
    ours, ran = {}, set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name) in paths
        return on_line if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {(os.path.realpath(name), line) for name, line in ran}


def main():
    os.chdir(ROOT)
    status, ran = run_traced(["-q", "--continue-on-collection-errors",
                              "--hypothesis-seed", "0"])
    if status != 0:
        print(f"linetrace: pytest exited {status}; no line report", file=sys.stderr)
        return int(status)
    faults, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {n for f, n in ran if f == str(path)}):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                faults.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    faults += [f"src/distboost/{name}: allowlisted line ran or is gone: {text}"
               for name, text in ALLOWED.keys() - used]
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"linetrace: {len(faults)} fault(s); {len(used)} allowlisted line(s) did not run",
          file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
