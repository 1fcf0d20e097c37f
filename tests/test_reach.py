"""The reach policy: the package ships only what a command, the relaxation recipe or the
perfbench tracer reaches.

``reach.py`` lists the functions of ``src/ptlind`` that no byte-table case and no recipe
enters; it runs in one subprocess at one BLAS thread.  The list must be exactly
``NEVER_ENTERED``: a function that no command reaches moves to the tests or gains a
caller, and a listed name that gains one leaves the list.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# each name, and why it ships though no command enters it
NEVER_ENTERED = {
    # the perfbench tracer looks these up by name (``test_bench_names.py``)
    "liouville.SuperOperator.dim": "perfbench's hooks read a generator's dimension",
    "liouville.sector_restrict": "a traced layer of perfbench",
    "spectral.eig_biortho": "a traced layer of perfbench",
    "spectral.steady_state": "a traced layer of perfbench",
    "threshold.is_unbroken": "a traced layer of perfbench",
    "operators.mat_exp": "a traced layer of perfbench; propagator calls _expm itself",
    "spectral.SpectralDecomposition.dim": "perfbench's _count_eig hook reads it",
    "spectral._cluster_close_eigenvalues": "eig_biortho calls it",
    "symmetry._sandwich": "check_pt's dense branch, for parities that are no signed permutation",
}


def test_no_other_function_goes_unreached():
    env = dict(
        os.environ, PYTHONPATH=str(HERE.parent / "src"), OPENBLAS_NUM_THREADS="1", COLUMNS="80"
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "reach.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    listing = proc.stdout.split("\n\n")[0].splitlines()
    names = {re.fullmatch(r"\s*\d+  (\S+)", line).group(1) for line in listing[:-1]}
    assert listing[-1].startswith(f"{len(names)} of "), listing[-1]
    assert names == NEVER_ENTERED.keys(), (
        f"entered by no command or recipe: {sorted(names - NEVER_ENTERED.keys())}; "
        f"entered now: {sorted(NEVER_ENTERED.keys() - names)}"
    )
