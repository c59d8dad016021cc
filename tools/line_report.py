"""The statements of `src/megw` that the tier-1 suite never runs.

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors`, with
any further pytest arguments given) in this process under a line tracer,
`sys.settrace` and `threading.settrace` from the standard library, that
follows only frames of files under `src/megw`, in processes forked from
this one too. Then prints, per module, each statement that never ran,
and appends the same report to `$GITHUB_STEP_SUMMARY` when that is set.

A statement is an AST statement with bytecode on its lines; docstrings
are left out. A simple statement ran when any of its lines ran, a
compound one (`def`, `if`, `for`, ...) when a line of its header did.
The script exits with pytest's status and sets the count no bound.

    PYTHONPATH=src python tools/line_report.py
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "megw"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str, filename: str) -> dict[int, range]:
    """Each statement's first line and the lines that count as it running:
    the statements with bytecode on those lines, docstrings left out."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _SCOPES) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    executable = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        executable.update(line for *_, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = (max(first, body[0].lineno - 1) if isinstance(body, list)
                else node.end_lineno)
        lines = range(first, last + 1)
        if executable.intersection(lines):
            found[node.lineno] = lines
    return found


def run_traced(args: list) -> tuple[int, set]:
    """Run pytest with `args` under the tracer: its exit status and the
    (file, line) pairs that ran in the package, in this process or in a
    process forked from it.

    The tracer survives `os.fork`, but a forked worker may leave by
    `os._exit`, which flushes nothing: so in a child each line is written
    as soon as it first runs, with `os.write`, to a file of its own in a
    temporary directory, and the files are read after pytest."""
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()
    spool = None    # in a forked child while tracing, its file's descriptor
    tracing = True

    def local(frame, event, arg):
        if event == "line":
            where = (frame.f_code.co_filename, frame.f_lineno)
            if where not in ran:
                ran.add(where)
                if spool is not None:
                    os.write(spool, b"%d %s\n" % (where[1],
                                                   os.fsencode(where[0])))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    def forked():
        nonlocal spool
        if tracing:
            spool = os.open(os.path.join(children, str(os.getpid())),
                            os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                            | os.O_CLOEXEC)

    with tempfile.TemporaryDirectory() as children:
        os.register_at_fork(after_in_child=forked)
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            status = pytest.main(["-q", "--continue-on-collection-errors",
                                  *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            tracing = False
        for name in os.listdir(children):
            with open(os.path.join(children, name), "rb") as lines:
                for line in lines:
                    number, path = line.rstrip(b"\n").split(b" ", 1)
                    ran.add((os.fsdecode(path), int(number)))
    return int(status), ran


def report(ran: set) -> str:
    lines = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        found = statements(source, str(path))
        missed = [first for first, span in sorted(found.items())
                  if not any((str(path), line) in ran for line in span)]
        total += len(missed)
        lines.append(f"{path.name}: {len(missed)} of {len(found)} "
                     f"statements never ran")
        text = source.splitlines()
        lines += [f"  {first:>4}  {text[first - 1].strip()}"
                  for first in missed]
    lines.append(f"total: {total} statements never ran")
    return "\n".join(lines)


def main(argv=None) -> int:
    os.chdir(ROOT)
    status, ran = run_traced(sys.argv[1:] if argv is None else argv)
    text = report(ran)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write("```\n" + text + "\n```\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
