"""The CLI's outputs, byte for byte, against a table recorded before a change.

The cases and the recorder are in ``cli_bytes.py``; each test runs them all in one
subprocess, at one BLAS thread as recorded, and again at two, which the command's own
thread pin must make no difference to.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

HERE = Path(__file__).resolve().parent


def changed_cases(threads: str) -> tuple:
    """The recorded table, the table now, and the cases whose outputs differ between the
    two, with the cases run at ``OPENBLAS_NUM_THREADS=threads``."""
    recorded = json.loads((HERE / "cli_bytes.json").read_text())
    here = {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if any(recorded["environment"][key] != value for key, value in here.items()):
        pytest.skip(f"table recorded under {recorded['environment']}, this is {here}")
    env = dict(
        os.environ, PYTHONPATH=str(HERE.parent / "src"), OPENBLAS_NUM_THREADS=threads,
        COLUMNS="80",
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_bytes.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    now = json.loads(proc.stdout)
    cases = recorded["cases"].keys() | now["cases"].keys()
    changed = sorted(c for c in cases if recorded["cases"].get(c) != now["cases"].get(c))
    return recorded, now, changed


def test_outputs_match_the_recorded_table():
    recorded, now, changed = changed_cases("1")
    assert now["environment"] == recorded["environment"]
    assert changed == [], f"outputs differ from the recorded table in {changed}"


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # the environment field records the thread setting itself, so it is left out
    _, _, changed = changed_cases("2")
    assert changed == [], f"outputs at two BLAS threads differ from the table in {changed}"
