"""The reach policy: the package ships only what a command, the relaxation recipe or the
perfbench tracer reaches.

``reach.py`` lists the functions of ``src/ptlind`` that no byte-table case and no recipe
enters; it runs in one subprocess at one BLAS thread.  The list may shrink as such code
gains a caller or moves to the tests, but no other function may join it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the perfbench tracer looks up the first five by name (``test_bench_names.py``); the
# rest wait for a caller or a move to ``conftest.py``
NEVER_ENTERED = {
    "liouville.SuperOperator.dim",
    "liouville.sector_restrict",
    "spectral.eig_biortho",
    "spectral.steady_state",
    "threshold.is_unbroken",
    "liouville.left_identity_residual",
    "perturbation.velocity_check",
    "spectral.SpectralDecomposition.clustered_indices",
    "spectral.SpectralDecomposition.dim",
    "spectral.SpectralDecomposition.is_simple",
    "spectral.SpectralDecomposition.spectral_radius",
    "spectral._cluster_close_eigenvalues",
    "spectral.collinearity_error",
    "spectral.left_steady_vector",
    "spectral.pt_partner_check",
    "symmetry.ParitySuperOp.matrix_on",
    "symmetry._sandwich",
    "symmetry.check_inversion",
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
    assert names <= NEVER_ENTERED, f"entered by no command or recipe: {sorted(names - NEVER_ENTERED)}"
