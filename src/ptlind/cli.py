"""Command-line surface: model configs, spectra, checks, scans, time series.

Subcommands::

    ptlind spectrum  --config model.json --out eigs.csv
    ptlind check     --config model.json [--out report.json]
    ptlind perturb   --config model.json --out-v V.csv --out report.json
    ptlind threshold --config model.json --out result.json [--gamma-min ... --gamma-max ...]
    ptlind evolve    --config model.json --out series.csv [--t-min ... --t-max ... --points ...]
    ptlind scaling   --config model.json --n-list 2,3,4 --out table.csv --out-fit fit.json

Configs are JSON; unknown keys are rejected and every schema error names
the offending key.  Eigenvalue and time-series point clouds go to CSV with
17 significant digits (binary64 round-trip exact); structured reports go
to JSON and echo the full config and the tolerances used, so downstream
plots are self-describing.  Exit codes: 0 success, 1 invalid input, 2
numerical failure; machine-readable errors go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NumericalError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .liouville import (
    LindbladModel,
    SuperOperator,
    average_damping,
    build_superoperator,
    hermiticity_residual,
    sector_restrict,
)
from .operators import SIGMA_MINUS, SIGMA_Z
from .perturbation import degeneracy_report, population_matrix
from .spectral import (
    DEFAULT_TAU_REL,
    DEGENERACY_REL_TOL,
    SpectralDecomposition,
    classify_cross,
    eig_biortho,
    verify_d2,
)
from .symmetry import check_pt, xxz_parity
from .threshold import find_gamma_pt, observable_decay, scaling_study
from .xxz import XXZParams, sector_basis, spin_current, xxz_model

__all__ = ["ModelConfig", "parse_config", "write_spectrum_csv", "run_command", "main"]

_MODELS = ("xxz", "single_qubit", "custom")
_SECTORS = ("full", "dmz0")

TOLERANCES = {
    "tau_rel": DEFAULT_TAU_REL,
    "pt_residual": 1e-12,
    "hermiticity_residual": 1e-13,
    "degeneracy_rel": DEGENERACY_REL_TOL,
}


@dataclass(frozen=True)
class ModelConfig:
    """A validated model description plus the raw dict it came from."""

    model: str
    sector: str
    gamma: float
    n_sites: int | None = None
    delta: float | None = None
    mu: float | None = None
    omega: float | None = None
    hamiltonian: np.ndarray | None = field(default=None, repr=False)
    lindblads: tuple | None = field(default=None, repr=False)
    raw: dict = field(default_factory=dict, repr=False)


def _require_number(cfg: dict, key: str, prefix: str = "") -> float:
    path = prefix + key
    if key not in cfg:
        raise SchemaError(path, "missing required key")
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    if not np.isfinite(value):
        raise SchemaError(path, "must be finite")
    return float(value)


def _reject_unknown(cfg: dict, allowed, prefix: str = ""):
    for key in cfg:
        if key not in allowed:
            raise SchemaError(prefix + key, "unknown key")


def _parse_complex_matrix(entries, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise SchemaError(path, "expected a non-empty list of rows")
    dim = len(entries)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{path}[{i}]", f"expected a row of length {dim}")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in cell)
            ):
                raise SchemaError(f"{path}[{i}][{j}]", "expected a [re, im] pair of numbers")
            out[i, j] = complex(cell[0], cell[1])
    return out


def parse_config(path: str) -> ModelConfig:
    """Read and validate a model config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("", "config root must be a JSON object")
    model = raw.get("model")
    if model not in _MODELS:
        raise SchemaError("model", f"must be one of {_MODELS}, got {model!r}")
    sector = raw.get("sector", "full")
    if sector not in _SECTORS:
        raise SchemaError("sector", f"must be one of {_SECTORS}, got {sector!r}")
    gamma = _require_number(raw, "gamma")
    if gamma < 0:
        raise SchemaError("gamma", "must be non-negative")

    if model == "xxz":
        _reject_unknown(raw, {"model", "n", "delta", "mu", "gamma", "sector"})
        n = raw.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise SchemaError("n", f"expected an integer >= 2, got {n!r}")
        delta = _require_number(raw, "delta")
        mu = _require_number(raw, "mu")
        if not -1.0 <= mu <= 1.0:
            raise SchemaError("mu", f"must lie in [-1, 1], got {mu}")
        return ModelConfig(
            model=model, sector=sector, gamma=gamma, n_sites=n, delta=delta, mu=mu, raw=raw
        )

    if model == "single_qubit":
        _reject_unknown(raw, {"model", "omega", "gamma", "sector"})
        if sector != "full":
            raise SchemaError("sector", "single_qubit supports only the full sector")
        omega = _require_number(raw, "omega")
        return ModelConfig(model=model, sector=sector, gamma=gamma, omega=omega, raw=raw)

    _reject_unknown(raw, {"model", "gamma", "sector", "custom"})
    if sector != "full":
        raise SchemaError("sector", "custom models support only the full sector")
    custom = raw.get("custom")
    if not isinstance(custom, dict):
        raise SchemaError("custom", "missing required object")
    _reject_unknown(custom, {"hamiltonian", "lindblads"}, prefix="custom.")
    if "hamiltonian" not in custom:
        raise SchemaError("custom.hamiltonian", "missing required key")
    if "lindblads" not in custom:
        raise SchemaError("custom.lindblads", "missing required key")
    h = _parse_complex_matrix(custom["hamiltonian"], "custom.hamiltonian")
    if np.linalg.norm(h - h.conj().T) > 1e-12 * max(1.0, np.linalg.norm(h)):
        raise SchemaError("custom.hamiltonian", "not Hermitian")
    if not isinstance(custom["lindblads"], list) or not custom["lindblads"]:
        raise SchemaError("custom.lindblads", "expected a non-empty list of matrices")
    ls = tuple(
        _parse_complex_matrix(entry, f"custom.lindblads[{m}]")
        for m, entry in enumerate(custom["lindblads"])
    )
    for m, L in enumerate(ls):
        if L.shape != h.shape:
            raise SchemaError(
                f"custom.lindblads[{m}]", f"shape {L.shape} does not match hamiltonian {h.shape}"
            )
    return ModelConfig(
        model=model, sector=sector, gamma=gamma, hamiltonian=h, lindblads=ls, raw=raw
    )


def _lindblad_model(cfg: ModelConfig) -> LindbladModel:
    if cfg.model == "xxz":
        return xxz_model(XXZParams(cfg.n_sites, cfg.delta, cfg.mu, cfg.gamma))
    if cfg.model == "single_qubit":
        return LindbladModel(0.5 * cfg.omega * SIGMA_Z, (SIGMA_MINUS,), cfg.gamma)
    return LindbladModel(cfg.hamiltonian, cfg.lindblads, cfg.gamma)


def _superoperator(cfg: ModelConfig) -> tuple[SuperOperator, SuperOperator]:
    """(full-space, sector-restricted) generator for a config."""
    full = build_superoperator(_lindblad_model(cfg))
    if cfg.sector == "dmz0":
        return full, sector_restrict(full, sector_basis(cfg.n_sites, 0))
    return full, full


def _xxz_params(cfg: ModelConfig) -> XXZParams:
    if cfg.model != "xxz":
        raise ValidationError(f"this command requires an xxz model config, got {cfg.model!r}")
    return XXZParams(cfg.n_sites, cfg.delta, cfg.mu, cfg.gamma)


def write_spectrum_csv(dec: SpectralDecomposition, path: str):
    """Eigenvalues as ``re,im`` rows, 17 significant digits, sorted as decomposed."""
    if dec.dim == 0:
        raise ValidationError("refusing to write an empty spectrum")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re,im\n")
        for lam in dec.eigenvalues:
            fh.write(f"{lam.real:.16e},{lam.imag:.16e}\n")


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


def _write_json(obj: dict, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_spectrum(args) -> None:
    cfg = parse_config(args.config)
    _, sup = _superoperator(cfg)
    write_spectrum_csv(eig_biortho(sup), args.out)


def _cmd_check(args) -> None:
    cfg = parse_config(args.config)
    full, sup = _superoperator(cfg)
    gamma_bar = average_damping(full)
    dec = eig_biortho(sup)
    cls = classify_cross(dec, gamma_bar, tau_rel=args.tau_rel)
    d2 = verify_d2(dec, gamma_bar)
    report = {
        "config": cfg.raw,
        "tolerances": dict(TOLERANCES, tau_rel=args.tau_rel),
        "gamma_bar": gamma_bar,
        "hermiticity_residual": hermiticity_residual(full),
        "classification": {
            "tau": cls.tau,
            "on_h": len(cls.on_h),
            "on_v": len(cls.on_v),
            "off_cross": len(cls.off_cross),
        },
        "d2": {"max_v_error": d2.max_v_error, "max_h_error": d2.max_h_error},
        "pt": None,
    }
    if cfg.model == "xxz":
        sym = check_pt(full, xxz_parity(cfg.n_sites))
        report["pt"] = {
            "pt_residual": sym.pt_residual,
            "involution_residual": sym.involution_residual,
            "unitarity_residual": sym.unitarity_residual,
        }
    _write_json(report, args.out)


def _cmd_perturb(args) -> None:
    cfg = parse_config(args.config)
    model = _lindblad_model(cfg)
    rep = population_matrix(model)
    deg = degeneracy_report(model.hamiltonian)
    with open(args.out_v, "w", encoding="utf-8", newline="\n") as fh:
        for row in rep.v_matrix:
            fh.write(",".join(f"{x:.16e}" for x in row) + "\n")
    report = {
        "config": cfg.raw,
        "tolerances": TOLERANCES,
        "energies": [float(e) for e in rep.energies],
        "xi": [[z.real, z.imag] for z in rep.xi],
        "symmetry_defect": rep.symmetry_defect,
        "reality_defect": rep.reality_defect,
        "degeneracy": {
            "tol": deg.tol,
            "degenerate_pairs": [list(p) for p in deg.degenerate_pairs],
            "degenerate_gap_pairs": [[list(a), list(b)] for a, b in deg.degenerate_gap_pairs],
        },
    }
    _write_json(report, args.out)


def _cmd_threshold(args) -> None:
    cfg = parse_config(args.config)
    params = _xxz_params(cfg)
    result = find_gamma_pt(
        params.n_sites,
        params.delta,
        params.mu,
        args.gamma_min,
        args.gamma_max,
        sector=cfg.sector if cfg.sector == "dmz0" else "full",
        rel_precision=args.rel_precision,
        tau_rel=args.tau_rel,
    )
    report = {
        "config": cfg.raw,
        "tolerances": dict(TOLERANCES, tau_rel=args.tau_rel, rel_precision=args.rel_precision),
        "gamma_pt": result.gamma_pt,
        "bracket": list(result.bracket),
        "sector": result.sector,
        "evaluations": [
            {"gamma": g, "off_cross": k, "min_off_distance": d}
            for (g, k, d) in result.evaluations
        ],
    }
    _write_json(report, args.out)


def _cmd_evolve(args) -> None:
    cfg = parse_config(args.config)
    params = _xxz_params(cfg)
    observable = spin_current(params.n_sites)
    t_grid = np.linspace(args.t_min, args.t_max, args.points)
    result = observable_decay(params, observable, t_grid=t_grid)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,deviation\n")
        for t, d in zip(result.times, result.deviations):
            fh.write(f"{t:.16e},{d:.16e}\n")
    _write_json(
        {
            "config": cfg.raw,
            "tolerances": TOLERANCES,
            "observable": "spin_current",
            "fitted_rate": _finite_or_none(result.fitted_rate),
            "n_fit_points": result.n_fit_points,
        },
        None,
    )


def _cmd_scaling(args) -> None:
    cfg = parse_config(args.config)
    params = _xxz_params(cfg)
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    result = scaling_study(
        n_list,
        params.delta,
        params.mu,
        rel_precision=args.rel_precision,
        gamma_min=args.gamma_min,
        gamma_max=args.gamma_max,
        tau_rel=args.tau_rel,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,gamma_pt\n")
        for n, g in result.entries:
            fh.write(f"{n},{g:.16e}\n")
    _write_json(
        {
            "config": cfg.raw,
            "tolerances": dict(TOLERANCES, tau_rel=args.tau_rel, rel_precision=args.rel_precision),
            "n_list": n_list,
            "entries": [[n, g] for n, g in result.entries],
            "slope": _finite_or_none(result.slope),
            "intercept": _finite_or_none(result.intercept),
        },
        args.out_fit,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are validation failures
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ptlind", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="model config JSON")
        p.set_defaults(func=func)
        return p

    p = add("spectrum", _cmd_spectrum, "write the eigenvalue point cloud to CSV")
    p.add_argument("--out", required=True)

    p = add("check", _cmd_check, "symmetry, mirror-image, and classification report")
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--tau-rel", type=float, default=TOLERANCES["tau_rel"])

    p = add("perturb", _cmd_perturb, "population decay matrix, its spectrum, degeneracies")
    p.add_argument("--out-v", required=True, help="CSV path for the decay matrix")
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")

    p = add("threshold", _cmd_threshold, "bisect the symmetry-breaking coupling")
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--gamma-min", type=float, default=1e-3)
    p.add_argument("--gamma-max", type=float, default=20.0)
    p.add_argument("--rel-precision", type=float, default=1e-3)
    p.add_argument("--tau-rel", type=float, default=TOLERANCES["tau_rel"])

    p = add("evolve", _cmd_evolve, "spin-current relaxation time series")
    p.add_argument("--out", required=True, help="CSV path for the time series")
    p.add_argument("--t-min", type=float, default=0.5)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--points", type=int, default=200)

    p = add("scaling", _cmd_scaling, "threshold versus chain length plus log-linear fit")
    p.add_argument("--n-list", default="2,3,4")
    p.add_argument("--out", required=True, help="CSV path for the (n, gamma_pt) table")
    p.add_argument("--out-fit", default=None, help="JSON fit report path (default: stdout)")
    p.add_argument("--gamma-min", type=float, default=1e-3)
    p.add_argument("--gamma-max", type=float, default=20.0)
    p.add_argument("--rel-precision", type=float, default=1e-3)
    p.add_argument("--tau-rel", type=float, default=TOLERANCES["tau_rel"])

    return parser


def _emit_error(exc: Exception):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SchemaError):
        payload["key"] = exc.key
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def run_command(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
        return 0
    except ValidationError as exc:
        _emit_error(exc)
        return 1
    except NumericalError as exc:
        _emit_error(exc)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)
