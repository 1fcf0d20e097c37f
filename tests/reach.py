"""The functions of ``src/ptlind`` that no command and no recipe enters, and the
statements of the entered ones that never run.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 COLUMNS=80 python tests/reach.py

Runs every case of the byte table (``cli_bytes.py``) and the relaxation recipe of
acceptance criterion 10 under a ``sys.settrace`` hook that traces lines in
``src/ptlind`` only.  It prints each function defined there (methods and nested
functions included) whose code was never entered, with its line count (decorators
included), and the totals; then, for each entered function, the first lines of its
statements that never ran, ``raise`` statements left out, with their count.  A function
or statement listed here is reached only by tests, if at all.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/reach.py --tests

runs the test suite instead, in this process (``pytest.main``, with the hook set for
every thread too) and without acceptance 9b, which fails by design; the listing after
pytest's report is then the code that no test reaches.  Code that a test runs in a
subprocess is not traced.  It takes about 75 s at one BLAS thread.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent

# statement fields that hold nested statements
_BODIES = ("body", "orelse", "finalbody", "handlers")


def statement_spans(function: ast.AST) -> list:
    """``(first, last)`` line spans of the statements in the body of ``function``, in
    order; ``raise`` statements and the docstring are left out.  A statement ran when a
    traced line falls in its span: a compound statement spans its header, a nested
    ``def`` or ``class`` its first line (its body is another code object), and a
    ``try`` nothing, since it runs no code of its own."""
    spans = []

    def visit(body):
        for stmt in body:
            if isinstance(stmt, ast.Raise):
                continue
            nested = [s for field in _BODIES for s in getattr(stmt, field, ())]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                spans.append((first, first))
            elif not nested:
                spans.append((stmt.lineno, stmt.end_lineno))
            else:
                if not isinstance(stmt, ast.Try):
                    spans.append((stmt.lineno, max(stmt.lineno, stmt.body[0].lineno - 1)))
                for child in nested:
                    visit(child.body if isinstance(child, ast.ExceptHandler) else [child])

    visit(function.body[1:] if ast.get_docstring(function) is not None else function.body)
    return spans


def defined_functions(source: Path) -> dict:
    """``(file, first line) -> (qualified name, line count, statement spans)`` of every
    function in the package directory ``source``; the first line is a code object's
    ``co_firstlineno``."""
    out = {}
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = (
                        f"{path.stem}.{name}",
                        child.end_lineno - first + 1,
                        statement_spans(child),
                    )
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(tree, "")
    return out


def relax_recipe() -> None:
    """Acceptance criterion 10: the spin current's decay from its probe state at n = 4."""
    import numpy as np

    import ptlind

    params = ptlind.XXZParams(4, 0.5, 1.0, 0.02)
    current = ptlind.spin_current(4)
    rho0, omega = ptlind.coherence_probe_state(params, current)
    t_grid = np.arange(0.5, 50.0, np.pi / omega)
    ptlind.observable_decay(params, current, rho0=rho0, t_grid=t_grid)


def commands_and_recipe() -> None:
    """Every case of the byte table, then the relaxation recipe."""
    from cli_bytes import CASES, run_case

    for argv in CASES:
        run_case(argv)
    relax_recipe()


def run_tests() -> None:
    """The test suite, less acceptance 9b."""
    import pytest

    nine_b = "tests/test_acceptance.py::test_criterion_09b_threshold_scaling_trend"
    pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", nine_b, str(HERE)])


def traced_run(source: Path, run) -> tuple:
    """``(file, first line)`` of every code object of ``source`` entered, and
    ``(file, line)`` of every line of it that ran, while ``run()`` runs.  The hook is on
    before the package is imported, so code that runs at import counts as reached."""
    entered, ran, inside = set(), set(), {}

    def in_source(filename: str) -> bool:
        if filename not in inside:
            inside[filename] = Path(filename).resolve().parent == source
        return inside[filename]

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        if event != "call" or not in_source(frame.f_code.co_filename):
            return None
        entered.add(frame.f_code)
        return trace_lines

    sys.settrace(trace_calls)
    threading.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    files = {name: str(Path(name).resolve()) for name in inside}
    return (
        {(files[c.co_filename], c.co_firstlineno) for c in entered},
        {(files[name], line) for name, line in ran},
    )


if __name__ == "__main__":
    source = Path(importlib.util.find_spec("ptlind").origin).resolve().parent
    functions = defined_functions(source)
    tests = sys.argv[1:] == ["--tests"]
    entered, ran = traced_run(source, run_tests if tests else commands_and_recipe)
    if tests:
        print()
    unreached = sorted(
        (name, lines) for key, (name, lines, _) in functions.items() if key not in entered
    )
    for name, lines in unreached:
        print(f"{lines:5d}  {name}")
    total = sum(lines for _, lines in unreached)
    print(f"{len(unreached)} of {len(functions)} functions, {total} lines, never entered")
    print()
    missed = []
    for (path, first), (name, _, spans) in functions.items():
        if (path, first) in entered:
            lines = [a for a, b in spans if not any((path, x) in ran for x in range(a, b + 1))]
            if lines:
                missed.append((name, lines))
    for name, lines in sorted(missed):
        print(f"{len(lines):5d}  {name}: {', '.join(map(str, lines))}")
    count = sum(len(lines) for _, lines in missed)
    print(f"{count} statements in {len(missed)} entered functions never ran (raise left out)")
