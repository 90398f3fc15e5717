"""A pytest plugin that prints each line of ``src/`` that no test executed.

    PYTHONPATH=src:tests python -m pytest -p line_probe [PYTEST ARGS]

``tests`` must be on the path for ``-p`` to import the plugin, which pytest
does before it reads its own configuration.  No coverage tool is installed,
so the plugin traces with the standard library: ``sys.settrace`` for the
main thread and ``threading.settrace`` for threads started after it, both
from ``pytest_configure`` on, so the package's import-time lines count too.
A module's executable lines are the lines its code objects' instructions
carry (``co_lines``); at the end of the run the plugin prints each one that
never ran as ``path:line: source``, then a count per file.

Only this process is traced: a test that runs the CLI in a subprocess
executes nothing that the probe sees, so a line that only such tests reach
is listed as never executed.  pytest does not collect this file.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_hit: dict[str, set[int]] = {}  # the lines run, per traced file name


def _local(frame, event, arg):
    if event == "line":
        _hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    hit = _hit.get(frame.f_code.co_filename)
    if hit is None:
        return None
    hit.add(frame.f_lineno)
    return _local


def _executable(path: Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def pytest_configure(config):
    _hit.update((str(path), set()) for path in SRC.rglob("*.py"))
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    counts = []
    for name in sorted(_hit):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(_executable(path) - _hit[name])
        shown = path.relative_to(SRC.parent)
        for line in missed:
            write(f"{shown}:{line}: {source[line - 1].strip()}")
        counts.append(f"{shown}: {len(missed)} lines never executed")
    terminalreporter.section("line probe")
    for line in counts:
        write(line)
