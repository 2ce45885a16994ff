"""The lines of the package that a pytest run never executes.

    python tests/line_trace.py OUT.json [PYTEST_ARGS ...]

Runs pytest with ``PYTEST_ARGS`` in this process under ``sys.settrace``,
tracing only frames whose code lies in ``src/rainstats``, and writes to
``OUT.json``, for each module, the executable lines that no traced frame
reached, as ``[line number, source text]`` pairs.  A module's executable
lines are those of its compiled code objects (``co_lines()``).  Runs of
the package in a child process (``python -m rainstats``, ``python -c``)
are not traced, so a line that only they reach is listed.  The exit code
is pytest's.
"""

import json
import os
import sys
import threading
import types
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "rainstats"


def executable_lines(path: Path) -> set:
    """The line numbers of the code objects compiled from ``path``; a
    module's code starts with an instruction on line 0, which is left out."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(pytest_args) -> tuple:
    """``(pytest's exit code, {(real path, line) reached})`` of a pytest
    run in this process, tracing the package's frames only."""
    hits, ours = set(), {}

    def line_tracer(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(os.path.realpath(name)).parent == PKG
        return line_tracer if ours[name] else None

    # the package is imported under the trace, so its module-level lines
    # count too
    sys.path.insert(0, str(PKG.parent))
    import pytest

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.realpath(name), line) for name, line in hits}


def main(argv) -> int:
    if not argv:
        sys.exit("usage: python tests/line_trace.py OUT.json [PYTEST_ARGS ...]")
    code, hits = traced_run(argv[1:])
    unreached = {}
    for path in sorted(PKG.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        real = os.path.realpath(path)
        missed = sorted(line for line in executable_lines(path)
                        if (real, line) not in hits)
        unreached[path.stem] = [[line, text[line - 1].strip()]
                                for line in missed]
    with open(argv[0], "w", encoding="utf-8") as f:
        json.dump(unreached, f, indent=1)
        f.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
