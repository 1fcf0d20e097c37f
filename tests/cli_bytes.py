"""Byte fingerprints of the CLI's outputs on a fixed set of invocations.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 COLUMNS=80 python tests/cli_bytes.py           # print
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 COLUMNS=80 python tests/cli_bytes.py --record  # rewrite

Each case runs ``ptlind.cli.main`` in a fresh working directory holding the
configs below and records its exit code and the sha256 of its stdout, its stderr
and every file it wrote.  ``--record`` writes the table next to this file as
``cli_bytes.json``; ``test_cli_bytes.py`` runs the cases again and compares.
``COLUMNS`` fixes the width of the help pages.  Re-record only when a change
moves an output on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ptlind.cli import main

TABLE = Path(__file__).with_name("cli_bytes.json")

CONFIGS = {
    "n3_full.json": {"model": "xxz", "n": 3, "delta": 0.5, "mu": 1.0, "gamma": 0.02},
    "n4_dmz0.json": {
        "model": "xxz", "n": 4, "delta": 0.5, "mu": 1.0, "gamma": 0.02, "sector": "dmz0",
    },
    "qubit.json": {"model": "single_qubit", "omega": 1.0, "gamma": 0.1},
    "no_gamma.json": {"model": "xxz", "n": 4, "delta": 0.5, "mu": 1.0},
    "n5_dmz0.json": {
        "model": "xxz", "n": 5, "delta": 0.5, "mu": 1.0, "gamma": 0.02, "sector": "dmz0",
    },
    "n4_full.json": {"model": "xxz", "n": 4, "delta": 0.5, "mu": 1.0, "gamma": 0.02},
    "n6_dmz0.json": {
        "model": "xxz", "n": 6, "delta": 0.5, "mu": 1.0, "gamma": 0.3, "sector": "dmz0",
    },
    # three levels, two non-Hermitian jumps scaled so that Tr D = -N^2 (perturb needs
    # it); the Hermiticity residual is nonzero at rounding level
    "custom3.json": {"model": "custom", "gamma": 0.37, "custom": {
        "hamiltonian": [
            [[0.3, 0.0], [0.7, -0.2], [0.1, 0.45]],
            [[0.7, 0.2], [-0.55, 0.0], [0.25, -0.6]],
            [[0.1, -0.45], [0.25, 0.6], [0.15, 0.0]],
        ],
        "lindblads": [
            [
                [[0.13, 0.0], [0.7, 0.0], [0.0, 0.2]],
                [[0.45, 0.0], [-0.31, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.5, -0.1], [0.18, 0.0]],
            ],
            [
                [[0.08324748368971797, 0.0], [0.2497424510691539, 0.16649496737943595],
                 [0.0, 0.0]],
                [[0.0, 0.0], [-0.08324748368971797, 0.0],
                 [0.3329899347588719, -0.2497424510691539]],
                [[0.0, 0.2913661929140129], [0.0, 0.0], [0.0, 0.0]],
            ],
        ],
    }},
}

_BRACKET = ["--gamma-min", "0.02", "--gamma-max", "0.2", "--rel-precision", "0.05"]


def _per_config(cfg: str) -> list:
    return [
        ["spectrum", "--config", cfg, "--out", "eigs.csv"],
        ["check", "--config", cfg],
        ["check", "--config", cfg, "--out", "report.json", "--tau-rel", "1e-6"],
        ["perturb", "--config", cfg, "--out-v", "V.csv"],
        ["perturb", "--config", cfg, "--out-v", "V.csv", "--out", "report.json"],
        ["threshold", "--config", cfg],
        ["threshold", "--config", cfg, "--out", "report.json", *_BRACKET, "--tau-rel", "1e-7"],
        ["evolve", "--config", cfg, "--out", "series.csv", "--points", "40"],
        ["scaling", "--config", cfg, "--out", "table.csv"],
        ["scaling", "--config", cfg, "--n-list", "4", "--out", "table.csv",
         "--out-fit", "fit.json", *_BRACKET],
    ]


CASES = [
    *(argv for cfg in ("n3_full.json", "n4_dmz0.json", "qubit.json") for argv in _per_config(cfg)),
    ["evolve", "--config", "n4_dmz0.json", "--out", "series.csv"],
    ["scaling", "--config", "n4_dmz0.json", "--n-list", " 4 ,", "--out", "table.csv", *_BRACKET],
    ["scaling", "--config", "n4_dmz0.json", "--n-list", "", "--out", "table.csv"],
    # two lengths, so the log-linear fit runs: n = 3 gives the tau-floor entry
    ["scaling", "--config", "n4_dmz0.json", "--n-list", "3,4", "--out", "table.csv",
     "--out-fit", "fit.json", *_BRACKET],
    # help pages
    ["--help"],
    *([command, "--help"] for command in
      ("spectrum", "check", "perturb", "threshold", "evolve", "scaling")),
    # refusals that were typed before
    [],
    ["bogus"],
    ["spectrum"],
    ["spectrum", "--config", "missing.json", "--out", "eigs.csv"],
    ["spectrum", "--config", "no_gamma.json", "--out", "eigs.csv"],
    ["check", "--config", "n4_dmz0.json", "--tau-rel", "0"],
    ["check", "--config", "n4_dmz0.json", "--tau-rel", "-inf"],
    ["check", "--config", "n4_dmz0.json", "--tau-rel", "abc"],
    ["threshold", "--config", "n4_dmz0.json", "--rel-precision", "0"],
    ["threshold", "--config", "n4_dmz0.json", "--gamma-min", "inf"],
    ["threshold", "--config", "n4_dmz0.json", "--gamma-min", "0.2", "--gamma-max", "0.02"],
    ["threshold", "--config", "n4_dmz0.json", "--gamma-max", "abc"],
    ["evolve", "--config", "n4_dmz0.json", "--out", "series.csv", "--points", "0"],
    ["evolve", "--config", "n4_dmz0.json", "--out", "series.csv", "--points", "abc"],
    ["evolve", "--config", "n4_dmz0.json", "--out", "series.csv", "--t-min", "abc"],
    ["evolve", "--config", "n4_dmz0.json", "--out", "series.csv", "--t-min", "-1"],
    ["scaling", "--config", "n4_dmz0.json", "--n-list", "6", "--out", "table.csv"],
    ["scaling", "--config", "n4_dmz0.json", "--n-list", "4", "--out", "table.csv",
     "--rel-precision", "-1"],
    # blocks of dimension 75 and up, where LAPACK's multishift QR takes over
    ["spectrum", "--config", "n5_dmz0.json", "--out", "eigs.csv"],
    ["check", "--config", "n5_dmz0.json"],
    ["threshold", "--config", "n5_dmz0.json", *_BRACKET],
    # 496 energy gaps, more close gap pairs than the 500 listed; a 32 x 32 V
    ["perturb", "--config", "n5_dmz0.json", "--out-v", "V.csv", "--out", "report.json"],
    ["spectrum", "--config", "n4_full.json", "--out", "eigs.csv"],
    ["check", "--config", "n4_full.json"],
    # the largest block in the table: 924-dim, gathered from 4096^2 generator positions
    ["spectrum", "--config", "n6_dmz0.json", "--out", "eigs.csv"],
    ["check", "--config", "n6_dmz0.json"],
    # a custom model: complex matrices parsed from the config, no chain structure
    ["spectrum", "--config", "custom3.json", "--out", "eigs.csv"],
    ["check", "--config", "custom3.json"],
    ["perturb", "--config", "custom3.json", "--out-v", "V.csv", "--out", "report.json"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list) -> dict:
    """Exit code and sha256 of stdout, stderr and each written file of one invocation."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, payload in CONFIGS.items():
            (work / name).write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # --help
                    code = exc.code
        finally:
            os.chdir(cwd)
        files = {
            p.name: _sha(p.read_bytes())
            for p in sorted(work.iterdir())
            if p.name not in CONFIGS
        }
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
        "files": files,
    }


def environment() -> dict:
    """What the recorded bytes depend on besides the code."""
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "COLUMNS": os.environ.get("COLUMNS"),
    }


def table() -> dict:
    return {
        "environment": environment(),
        "cases": {shlex.join(argv): run_case(argv) for argv in CASES},
    }


if __name__ == "__main__":
    text = json.dumps(table(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--record"]:
        TABLE.write_text(text)
    else:
        sys.stdout.write(text)
