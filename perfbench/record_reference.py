"""Record the default-seed reference outputs that the benchmark checks against.

Run from the repository root, only when a change is meant to alter results::

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for the default seed, ``gamma_pt`` of
every ``bisect`` input as ``float.hex`` and the sha256 of every ``inspect``
spectrum CSV.  Outputs are computed with one BLAS thread, as the benchmark
runs them.
"""

import json
import os
import shutil
import sys

from worker import BLAS_ENV  # imports no numpy, so the pin below comes first

for key in BLAS_ENV:
    os.environ[key] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    workdir = os.path.join(HERE, "_work", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    reference = {"seed": DEFAULT_SEED}
    try:
        for workload in WORKLOADS.values():
            if workload.reference_of is None:
                continue
            values = []
            for inp in workload.make_inputs(DEFAULT_SEED, workdir):
                out = workload.run(inp)
                problems = workload.check(inp, out, None)
                if problems:
                    sys.stderr.write(f"{workload.name}: {problems}\n")
                    return 1
                values.append(workload.reference_of(out))
            reference[workload.name] = values
            print(f"{workload.name}: {len(values)} references")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
