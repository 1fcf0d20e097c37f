"""The functions of ``src/ptlind`` that no command and no recipe enters.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 COLUMNS=80 python tests/reach.py

Runs every case of the byte table (``cli_bytes.py``) and the relaxation recipe of
acceptance criterion 10 under a ``sys.setprofile`` hook, then prints each function
defined in ``src/ptlind`` (methods and nested functions included) whose code was never
entered, with its line count (decorators included), and the totals.  A function listed
here is reached only by tests, if at all.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path


def defined_functions(source: Path) -> dict:
    """``(file, first line) -> (qualified name, line count)`` of every function in the
    package directory ``source``; the first line is a code object's ``co_firstlineno``."""
    out = {}
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = (f"{path.stem}.{name}", child.end_lineno - first + 1)
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


def entered_code() -> set:
    """``(file, first line)`` of every code object entered; the hook is on before the
    package is imported, so code that runs at import counts as reached."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from cli_bytes import CASES, run_case

        for argv in CASES:
            run_case(argv)
        relax_recipe()
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}


if __name__ == "__main__":
    source = Path(importlib.util.find_spec("ptlind").origin).resolve().parent
    functions = defined_functions(source)
    reached = entered_code()
    unreached = sorted((name, lines) for key, (name, lines) in functions.items() if key not in reached)
    for name, lines in unreached:
        print(f"{lines:5d}  {name}")
    total = sum(lines for _, lines in unreached)
    print(f"{len(unreached)} of {len(functions)} functions, {total} lines, never entered")
