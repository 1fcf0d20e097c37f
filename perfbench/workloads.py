"""The benchmark's three workloads: seeded inputs, one op per user request, output checks.

Each workload draws its inputs from ``--seed`` by Latin-hypercube sampling
(one point per stratum along every axis, so two seeds cover the same region
evenly) and hands ptlind only the generated configs.  ``run`` is the timed
user request; ``check`` returns a list of problems with its output, empty
when the output is correct.  Ops call through module attributes at call time
(``ptlind.cli.run_command``, ``ptlind.observable_decay``) so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import ptlind
import ptlind.cli

DEFAULT_SEED = 1


class OpFailed(Exception):
    """A CLI request exited with a nonzero code."""


def _latin_hypercube(rng, count: int, ranges, log_axes=()) -> list:
    columns = []
    for axis, (lo, hi) in enumerate(ranges):
        u = (rng.permutation(count) + rng.random(count)) / count
        if axis in log_axes:
            columns.append(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))
        else:
            columns.append(lo + u * (hi - lo))
    return [tuple(float(col[i]) for col in columns) for i in range(count)]


def _cli(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = ptlind.cli.run_command(argv)
    if code != 0:
        raise OpFailed(f"ptlind {argv[0]} exited with {code}: {err.getvalue().strip()}")


def _write_config(path: str, n: int, delta: float, mu: float, gamma: float, sector: str):
    config = {"model": "xxz", "n": n, "delta": delta, "mu": mu, "gamma": gamma, "sector": sector}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


class Bisect:
    """Repeated-probe path: each probe rebuilds the generator and solves the sector block."""

    name = "bisect"
    n_inputs = 64
    n_sites = 4
    # A bracket wide enough to hold every threshold of the region, so that no
    # op expands it and each takes the same 16 probes.  With (0.02, 0.2) ops
    # took 14 probes or 16 or more depending on where gamma_pt fell, and the
    # median op time flipped between the two modes from seed to seed.
    gamma_min, gamma_max, rel_precision = 1e-6, 1.0, 1e-3

    def make_inputs(self, seed: int, workdir: str) -> list:
        points = _latin_hypercube(np.random.default_rng(seed), self.n_inputs, [(0.2, 2.0), (0.3, 1.0)])
        inputs = []
        for i, (delta, mu) in enumerate(points):
            config = os.path.join(workdir, f"bisect-{i}.json")
            _write_config(config, self.n_sites, delta, mu, self.gamma_min, "dmz0")
            inputs.append({"config": config, "out": os.path.join(workdir, f"bisect-{i}.out.json")})
        return inputs

    def run(self, inp: dict):
        _cli([
            "threshold", "--config", inp["config"], "--out", inp["out"],
            "--gamma-min", repr(self.gamma_min), "--gamma-max", repr(self.gamma_max),
            "--rel-precision", repr(self.rel_precision),
        ])
        with open(inp["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def reference_of(self, out) -> str:
        return float.hex(out["gamma_pt"])

    def check(self, inp: dict, out, expected) -> list:
        problems = []
        lo, hi = out["bracket"]
        off_cross = {e["gamma"]: e["off_cross"] for e in out["evaluations"]}
        if off_cross.get(lo) != 0:
            problems.append(f"lower bracket end {lo!r} is not an unbroken evaluation")
        if not off_cross.get(hi, 0) > 0:
            problems.append(f"upper bracket end {hi!r} is not a broken evaluation")
        if not (hi - lo) / hi <= self.rel_precision:
            problems.append(f"bracket ({lo!r}, {hi!r}) is wider than rel_precision")
        if not lo <= out["gamma_pt"] <= hi:
            problems.append("gamma_pt lies outside its bracket")
        if expected is not None and self.reference_of(out) != expected:
            problems.append(f"gamma_pt {self.reference_of(out)} differs from reference {expected}")
        return problems


class Inspect:
    """Largest working set (1024^2 generator at n = 5); the only symmetry and perturbation user."""

    name = "inspect"
    n_inputs = 32
    n_sites = 5

    def make_inputs(self, seed: int, workdir: str) -> list:
        points = _latin_hypercube(
            np.random.default_rng(seed), self.n_inputs, [(0.2, 2.0), (0.3, 1.0), (0.01, 2.0)], log_axes=(2,)
        )
        inputs = []
        for i, (delta, mu, gamma) in enumerate(points):
            stem = os.path.join(workdir, f"inspect-{i}")
            _write_config(stem + ".json", self.n_sites, delta, mu, gamma, "dmz0")
            inputs.append({"config": stem + ".json", "stem": stem})
        return inputs

    def run(self, inp: dict):
        stem = inp["stem"]
        _cli(["check", "--config", inp["config"], "--out", stem + ".check.json"])
        _cli(["spectrum", "--config", inp["config"], "--out", stem + ".csv"])
        _cli(["perturb", "--config", inp["config"], "--out-v", stem + ".v.csv", "--out", stem + ".perturb.json"])
        with open(stem + ".check.json", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(stem + ".csv", "rb") as fh:
            spectrum = fh.read()
        with open(stem + ".v.csv", encoding="utf-8") as fh:
            v_rows = [line.split(",") for line in fh.read().splitlines()]
        with open(stem + ".perturb.json", encoding="utf-8") as fh:
            perturb = json.load(fh)
        return {"report": report, "spectrum": spectrum, "v_rows": v_rows, "perturb": perturb}

    def reference_of(self, out) -> str:
        return hashlib.sha256(out["spectrum"]).hexdigest()

    def check(self, inp: dict, out, expected) -> list:
        problems = []
        report = out["report"]
        block = math.comb(2 * self.n_sites, self.n_sites)
        hilbert = 2**self.n_sites
        if not report["pt"]["pt_residual"] <= 1e-12:
            problems.append(f"PT residual {report['pt']['pt_residual']!r} > 1e-12")
        if not report["hermiticity_residual"] <= 1e-13:
            problems.append(f"hermiticity residual {report['hermiticity_residual']!r} > 1e-13")
        counts = report["classification"]
        if counts["on_h"] + counts["on_v"] + counts["off_cross"] != block:
            problems.append(f"classification counts {counts} do not sum to the block dimension {block}")
        if out["spectrum"].count(b"\n") != block + 1:
            problems.append(f"spectrum CSV does not hold {block} eigenvalues")
        if len(out["v_rows"]) != hilbert or any(len(row) != hilbert for row in out["v_rows"]):
            problems.append(f"decay matrix CSV is not {hilbert} x {hilbert}")
        if len(out["perturb"]["energies"]) != hilbert:
            problems.append("perturbation report does not list every energy")
        if expected is not None and self.reference_of(out) != expected:
            problems.append(f"spectrum CSV sha256 {self.reference_of(out)} differs from reference {expected}")
        return problems


class Relax:
    """Full-space eigenvectors consumed by the steady state and probe mode; the only propagator user."""

    name = "relax"
    n_inputs = 64
    n_sites = 4
    rate_tolerance = 0.02

    def make_inputs(self, seed: int, workdir: str) -> list:
        # Region where the half-period recipe recovers gamma.  Narrow pockets
        # of anisotropy bias the fit beyond 2%: about 0.265-0.278 and
        # 0.72-0.85 (for example 1.11 gamma at delta = 0.8, gamma = 0.02).
        points = _latin_hypercube(
            np.random.default_rng(seed), self.n_inputs, [(0.3, 0.65), (0.5, 1.0), (0.03, 0.1)], log_axes=(2,)
        )
        return [ptlind.XXZParams(self.n_sites, delta, mu, gamma) for delta, mu, gamma in points]

    def run(self, params):
        current = ptlind.spin_current(params.n_sites)
        rho0, omega = ptlind.coherence_probe_state(params, current)
        t_grid = np.arange(0.5, 50.0, np.pi / omega)
        result = ptlind.observable_decay(params, current, rho0=rho0, t_grid=t_grid)
        return {"rho0": rho0, "rate": result.fitted_rate}

    reference_of = None

    def check(self, params, out, expected) -> list:
        problems = []
        rel = abs(out["rate"] - params.gamma) / params.gamma
        if not rel <= self.rate_tolerance:
            problems.append(f"fitted rate {out['rate']!r} is {rel:.2%} from gamma {params.gamma!r}")
        # The probe mode is traceless, so the probe state's trace is the steady state's.
        trace = np.trace(out["rho0"])
        if not abs(trace - 1.0) <= 1e-10:
            problems.append(f"steady state has trace {trace!r}")
        return problems


WORKLOADS = {w.name: w for w in (Bisect(), Inspect(), Relax())}
