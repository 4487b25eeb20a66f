r"""The lines of ``src/monomap`` that the tier-1 tests never execute.

    python3 tools/line_coverage.py [PYTEST_ARG ...]

Runs the tier-1 command (``python -m pytest -q
--continue-on-collection-errors``, plus any extra arguments) from the
root of the checkout under a stdlib line tracer, ``sys.settrace``, and
prints every line of ``src/monomap`` that no test reached, as
``path:line: source``, then a count per file.  The tracer starts from a
generated ``sitecustomize.py`` on ``PYTHONPATH``, so every Python
process of the run counts, the CLI subprocesses too; each writes the
lines it reached when it exits.  A small pytest plugin arms the tracer
again before each test, since a test or a tool it runs may replace the
trace function.  The lines of a lambda that fits on one line, and the
field lines of a dataclass, are left out: the first run with their
enclosing line, and the second are no statements of their own.  A
RecursionError switches the tracer off in its thread until the next
test, since the call of the trace function is what overflows, so the
lines a test runs after one are not counted.

Stdlib only: ``coverage`` is not needed.  The traced run takes a few
times as long as the plain one.  The exit code is pytest's.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monomap"

# the tracer every process of the run imports at startup; it records the
# (file, line) pairs of the package it reaches and writes them at exit
SITECUSTOMIZE = r'''
import atexit
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_hits = set()
_mine = {{}}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    mine = _mine.get(code)
    if mine is None:
        mine = _mine[code] = code.co_filename.startswith(_PREFIX)
    if not mine:
        return None
    _hits.add((code.co_filename, frame.f_lineno))
    return _local


def arm():
    sys.settrace(_global)
    threading.settrace(_global)


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(_OUT, "hits-%d.txt" % os.getpid())
    with open(path, "w") as fh:
        fh.writelines("%s\t%d\n" % hit for hit in sorted(_hits))


arm()
'''

# re-arms the tracer before each test
PLUGIN = '''
import sitecustomize


def pytest_runtest_setup(item):
    sitecustomize.arm()
'''


def _code_lines(code, out: set) -> None:
    """The line numbers ``code`` and the code objects nested in it can
    execute, one-line lambdas left out."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if code.co_name == "<lambda>" and len(lines) <= 1:
        return
    out.update(lines)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)


def _dataclass_fields(tree) -> set:
    """The lines of the annotated fields of every dataclass."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    out.update(range(stmt.lineno, stmt.end_lineno + 1))
    return out


def executable_lines(path: Path) -> set:
    source = path.read_text()
    out = set()
    _code_lines(compile(source, str(path), "exec"), out)
    out.discard(0)  # a module's first instruction sits on line 0
    return out - _dataclass_fields(ast.parse(source))


def main(argv=None) -> int:
    # every argument but -h goes to pytest as it is, options included
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 usage="%(prog)s [PYTEST_ARG ...]")
    _, pytest_args = ap.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hits_dir = Path(tmp) / "hits"
        hits_dir.mkdir()
        (Path(tmp) / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            prefix=str(PACKAGE) + os.sep, out=str(hits_dir)))
        (Path(tmp) / "line_coverage_rearm.py").write_text(PLUGIN)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmp, str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "pytest", "-q",
               "--continue-on-collection-errors", "-p", "line_coverage_rearm",
               *pytest_args]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        hits = set()
        for f in hits_dir.iterdir():
            for row in f.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        reached = {line for name, line in hits if name == str(path)}
        missed = sorted(executable_lines(path) - reached)
        rel = path.relative_to(ROOT)
        for line in missed:
            print(f"{rel}:{line}: {lines[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} unreached")
        total += len(missed)
    print("\n".join(counts))
    print(f"{total} unreached line(s) in {PACKAGE.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
