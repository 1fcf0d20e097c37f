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
numerical failure; machine-readable errors go to stderr as JSON.  The
command runs OpenBLAS at one thread, so its bytes do not depend on the
machine's thread setting.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    NumericalError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .liouville import (
    LindbladModel,
    _generator_entries,
    _refuse_large,
    average_damping,
    build_superoperator,
    hermiticity_residual,
)
from .operators import SIGMA_MINUS, SIGMA_Z, _refuse_large_parts, _require_chain_length, is_hermitian
from .perturbation import degeneracy_report, population_matrix
from .spectral import (
    DEFAULT_TAU_REL,
    DEGENERACY_REL_TOL,
    _eigenvalues,
    _LastSolve,
    classify_cross,
    verify_d2,
)
from .symmetry import check_pt, xxz_parity
from .threshold import find_gamma_pt, observable_decay, scaling_study
from .xxz import SECTORS, XXZParams, _largest_parts, sector_positions
from .xxz import spin_current, xxz_model

__all__ = ["ModelConfig", "parse_config", "write_spectrum_csv", "run_command", "main"]

_MODELS = ("xxz", "single_qubit", "custom")

TOLERANCES = {
    "tau_rel": DEFAULT_TAU_REL,
    "pt_residual": 1e-12,
    "hermiticity_residual": 1e-13,
    "degeneracy_rel": DEGENERACY_REL_TOL,
}


@dataclass(frozen=True)
class ModelConfig:
    """A validated config: model kind, sector, the model and the raw dict it came from.

    ``spec`` is the chain's :class:`XXZParams` for ``xxz`` and the
    :class:`LindbladModel` itself for ``single_qubit`` and ``custom``.
    """

    model: str
    sector: str
    spec: XXZParams | LindbladModel = field(repr=False)
    raw: dict = field(repr=False)


def _finite(value: int | float, path: str) -> float:
    """A JSON number as a finite float; an integer beyond binary64 range is not finite."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, "must be finite")
    return number


def _require_number(cfg: dict, key: str, prefix: str = "") -> float:
    path = prefix + key
    if key not in cfg:
        raise SchemaError(path, "missing required key")
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    return _finite(value, path)


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
            re, im = (_finite(x, f"{path}[{i}][{j}]") for x in cell)
            out[i, j] = complex(re, im)
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
    if sector not in SECTORS:
        raise SchemaError("sector", f"must be one of {SECTORS}, got {sector!r}")
    gamma = _require_number(raw, "gamma")
    if gamma < 0:
        raise SchemaError("gamma", "must be non-negative")
    if model != "xxz" and sector != "full":
        raise SchemaError("sector", f"{model} models support only the full sector")

    if model == "xxz":
        _reject_unknown(raw, {"model", "n", "delta", "mu", "gamma", "sector"})
        n = raw.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise SchemaError("n", f"expected an integer >= 2, got {n!r}")
        _keyed("n", _require_chain_length, n)
        delta = _require_number(raw, "delta")
        mu = _require_number(raw, "mu")
        if not -1.0 <= mu <= 1.0:
            raise SchemaError("mu", f"must lie in [-1, 1], got {mu}")
        params = XXZParams(n, delta, mu, gamma)
        h, jumps = _largest_parts(params)
        _keyed("delta", _refuse_large_parts, 2**n, h, ())
        _keyed("gamma", _refuse_large_parts, 2**n, h, jumps, gamma)
        return ModelConfig(model, sector, params, raw)

    if model == "single_qubit":
        _reject_unknown(raw, {"model", "omega", "gamma", "sector"})
        h = 0.5 * _require_number(raw, "omega") * SIGMA_Z
        _keyed("omega", _refuse_large, h, ())
        _keyed("gamma", _refuse_large, h, (SIGMA_MINUS,), gamma)
        return ModelConfig(model, sector, LindbladModel(h, (SIGMA_MINUS,), gamma), raw)

    _reject_unknown(raw, {"model", "gamma", "sector", "custom"})
    custom = raw.get("custom")
    if not isinstance(custom, dict):
        raise SchemaError("custom", "missing required object")
    _reject_unknown(custom, {"hamiltonian", "lindblads"}, prefix="custom.")
    if "hamiltonian" not in custom:
        raise SchemaError("custom.hamiltonian", "missing required key")
    if "lindblads" not in custom:
        raise SchemaError("custom.lindblads", "missing required key")
    h = _parse_complex_matrix(custom["hamiltonian"], "custom.hamiltonian")
    _keyed("custom.hamiltonian", _refuse_large, h, ())  # before the Hermiticity check's norm
    if not is_hermitian(h):
        raise SchemaError("custom.hamiltonian", "not Hermitian")
    if not isinstance(custom["lindblads"], list) or not custom["lindblads"]:
        raise SchemaError("custom.lindblads", "expected a non-empty list of matrices")
    count, limit = len(custom["lindblads"]), h.shape[0] ** 2 - 1  # LindbladModel's limit
    if count > limit:
        raise SchemaError("custom.lindblads", f"{count} jump operators exceed the limit {limit}")
    ls = tuple(
        _parse_complex_matrix(entry, f"custom.lindblads[{m}]")
        for m, entry in enumerate(custom["lindblads"])
    )
    for m, L in enumerate(ls):
        if L.shape != h.shape:
            raise SchemaError(
                f"custom.lindblads[{m}]", f"shape {L.shape} does not match hamiltonian {h.shape}"
            )
    _keyed("custom.lindblads", _refuse_large, h, ls)
    _keyed("gamma", _refuse_large, h, ls, gamma)
    return ModelConfig(model, sector, LindbladModel(h, ls, gamma), raw)


def _keyed(key: str, rule, *args) -> None:
    """A library rule applied to a config entry: its refusal is a SchemaError naming ``key``."""
    try:
        rule(*args)
    except ValidationError as exc:
        raise SchemaError(key, str(exc)) from None


def _lindblad_model(cfg: ModelConfig) -> LindbladModel:
    """The config's model; the xxz chain is built here, once per command that needs it."""
    return xxz_model(cfg.spec) if cfg.model == "xxz" else cfg.spec


def _sector(cfg: ModelConfig):
    """Flat positions of the config's sector; None for the full space (any non-chain model)."""
    return sector_positions(cfg.spec.n_sites, cfg.sector) if cfg.model == "xxz" else None


def _xxz_params(cfg: ModelConfig) -> XXZParams:
    if cfg.model != "xxz":
        raise ValidationError(f"this command requires an xxz model config, got {cfg.model!r}")
    return cfg.spec


def _write_csv(path: str, rows, header: str | None = None) -> None:
    """Rows of numbers, one line each: floats with 17 significant digits (binary64
    round-trip exact), integers as they are."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.16e}" if isinstance(x, float) else str(x) for x in row) + "\n")


def write_spectrum_csv(eigenvalues: np.ndarray, path: str):
    """Eigenvalues as ``re,im`` rows, 17 significant digits, in the order given."""
    w = np.asarray(eigenvalues, dtype=complex)
    if w.size == 0:
        raise ValidationError("refusing to write an empty spectrum")
    _write_csv(path, zip(w.real, w.imag), "re,im")


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


def _report(cfg: ModelConfig, args, path: str | None, fields: dict) -> None:
    """Write ``fields`` as a JSON report to ``path`` (stdout if None), echoing the config
    and the tolerances in force: the table, overridden by the command's tolerance options."""
    given = {key: value for key, value in vars(args).items() if key in ("tau_rel", "rel_precision")}
    report = dict(fields, config=cfg.raw, tolerances=dict(TOLERANCES, **given))
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity has no JSON token
        raise NumericalError(f"report holds a non-finite number: {exc}") from None
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


_BLOCK_SOLVE = _LastSolve()


def _block_eigenvalues(cfg: ModelConfig, build) -> np.ndarray:
    """Eigenvalues of the config's sector block, which ``build()`` forms.

    ``check`` and ``spectrum`` read the same array, so the last one solved in this
    process is kept (read-only), keyed on the config's canonical JSON text; ``build``
    runs only for a config other than the last one.  The solve owns the block that it
    builds (:func:`spectral._eigenvalues`), and no other reference to it is kept.
    """
    key = json.dumps(cfg.raw, sort_keys=True)
    return _BLOCK_SOLVE(key, lambda: _eigenvalues(lambda: build().matrix))


def _cmd_spectrum(cfg: ModelConfig, args) -> None:
    w = _block_eigenvalues(cfg, lambda: build_superoperator(_lindblad_model(cfg), _sector(cfg)))
    write_spectrum_csv(w, args.out)


def _cmd_check(cfg: ModelConfig, args) -> None:
    model = _lindblad_model(cfg)
    w = _block_eigenvalues(cfg, lambda: build_superoperator(model, _sector(cfg)))
    # the full-space residuals read the generator's nonzero entries; only the block
    # that LAPACK solves is dense
    full = _generator_entries(model)
    gamma_bar = average_damping(full)
    cls = classify_cross(w, gamma_bar, args.tau_rel)
    d2 = verify_d2(w, gamma_bar)
    report = {
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
        sym = check_pt(full, xxz_parity(cfg.spec.n_sites))
        report["pt"] = {
            "pt_residual": sym.pt_residual,
            "involution_residual": sym.involution_residual,
            "unitarity_residual": sym.unitarity_residual,
        }
    _report(cfg, args, args.out, report)


def _cmd_perturb(cfg: ModelConfig, args) -> None:
    model = _lindblad_model(cfg)
    rep = population_matrix(model)
    deg = degeneracy_report(model.hamiltonian)
    _write_csv(args.out_v, rep.v_matrix)
    _report(cfg, args, args.out, {
        "energies": [float(e) for e in rep.energies],
        "xi": [[z.real, z.imag] for z in rep.xi],
        "symmetry_defect": rep.symmetry_defect,
        "reality_defect": rep.reality_defect,
        "degeneracy": {
            "tol": deg.tol,
            "degenerate_pairs": [list(p) for p in deg.degenerate_pairs],
            "degenerate_gap_pairs": [[list(a), list(b)] for a, b in deg.degenerate_gap_pairs],
        },
    })


def _bisection(cfg: ModelConfig, args) -> dict:
    """The config's sector and the bracket options, as keywords of the bisection."""
    keys = ("gamma_min", "gamma_max", "rel_precision", "tau_rel")
    return dict({key: getattr(args, key) for key in keys}, sector=cfg.sector)


def _cmd_threshold(cfg: ModelConfig, args) -> None:
    params = _xxz_params(cfg)
    result = find_gamma_pt(params.n_sites, params.delta, params.mu, **_bisection(cfg, args))
    _report(cfg, args, args.out, {
        "gamma_pt": result.gamma_pt,
        "bracket": list(result.bracket),
        "sector": result.sector,
        "evaluations": [
            {"gamma": g, "off_cross": k, "min_off_distance": d}
            for (g, k, d) in result.evaluations
        ],
    })


def _cmd_evolve(cfg: ModelConfig, args) -> None:
    params = _xxz_params(cfg)
    observable = spin_current(params.n_sites)
    t_grid = np.linspace(args.t_min, args.t_max, args.points)
    result = observable_decay(params, observable, t_grid=t_grid)
    _write_csv(args.out, zip(result.times, result.deviations), "t,deviation")
    _report(cfg, args, None, {
        "observable": "spin_current",
        "fitted_rate": _finite_or_none(result.fitted_rate),
        "n_fit_points": result.n_fit_points,
    })


def _cmd_scaling(cfg: ModelConfig, args) -> None:
    params = _xxz_params(cfg)
    result = scaling_study(args.n_list, params.delta, params.mu, **_bisection(cfg, args))
    _write_csv(args.out, result.entries, "n,gamma_pt")
    _report(cfg, args, args.out_fit, {
        "n_list": args.n_list,
        "entries": [[n, g] for n, g in result.entries],
        "slope": _finite_or_none(result.slope),
        "intercept": _finite_or_none(result.intercept),
    })


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in any float spelling is an option's value: argparse alone
        # reads "-1e-3" and "-inf" as unknown flags and says "expected one argument"
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse usage errors are validation failures
        raise ValidationError(message)


def _checked(convert, accept, rule: str):
    """An argparse ``type`` that converts like ``convert``, and under its name (argparse
    reports "invalid float value"), then refuses a value that ``accept`` rejects."""
    @functools.wraps(convert)
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


def _chain_lengths(text: str) -> list:
    """``--n-list``: comma-separated integers; blank entries are skipped."""
    try:
        return [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


# options that more than one subcommand takes, each declared once: (flag, keywords)
_REPORT_OUT = ("--out", {"default": None, "help": "JSON report path (default: stdout)"})
_TAU_REL = ("--tau-rel", {"type": float, "default": TOLERANCES["tau_rel"]})
_BRACKET = (
    ("--gamma-min", {"type": float, "default": 1e-3}),
    ("--gamma-max", {"type": float, "default": 20.0}),
    ("--rel-precision", {"type": float, "default": 1e-3}),
    _TAU_REL,
)
_FINITE = _checked(float, math.isfinite, "must be finite")


@functools.cache  # one per process: argparse reads the terminal width when it formats help
def _build_parser() -> _Parser:
    parser = _Parser(prog="ptlind", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("spectrum", _cmd_spectrum, "write the eigenvalue point cloud to CSV",
         (("--out", {"required": True}),)),
        ("check", _cmd_check, "symmetry, mirror-image, and classification report",
         (_REPORT_OUT, _TAU_REL)),
        ("perturb", _cmd_perturb, "population decay matrix, its spectrum, degeneracies",
         (("--out-v", {"required": True, "help": "CSV path for the decay matrix"}), _REPORT_OUT)),
        ("threshold", _cmd_threshold, "bisect the symmetry-breaking coupling",
         (_REPORT_OUT, *_BRACKET)),
        ("evolve", _cmd_evolve, "spin-current relaxation time series", (
            ("--out", {"required": True, "help": "CSV path for the time series"}),
            ("--t-min", {"type": _FINITE, "default": 0.5}),
            ("--t-max", {"type": _FINITE, "default": 50.0}),
            ("--points", {"type": _checked(int, lambda k: k >= 0, "must be >= 0"), "default": 200}),
        )),
        ("scaling", _cmd_scaling, "threshold versus chain length plus log-linear fit", (
            ("--n-list", {"type": _chain_lengths, "default": "2,3,4"}),
            ("--out", {"required": True, "help": "CSV path for the (n, gamma_pt) table"}),
            ("--out-fit", {"default": None, "help": "JSON fit report path (default: stdout)"}),
            *_BRACKET,
        )),
    )
    for name, func, helptext, options in commands:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="model config JSON")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def run_command(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        args.func(parse_config(args.config), args)
        return 0
    except (ValidationError, NumericalError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaError):
            payload["key"] = exc.key
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1 if isinstance(exc, ValidationError) else 2


# the thread setters of the OpenBLAS builds that numpy and scipy bundle, and of plain ones
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _pin_blas_threads() -> list:
    """Set every OpenBLAS loaded in this process to one thread, through its own setter;
    returns the paths of those it set.

    OpenBLAS splits long sums and products by its thread count, and the last bits of an
    eigenvalue, a norm or a time series follow, so the outputs are the same bytes only at
    one thread.  The libraries are read from ``/proc/self/maps``; where there is none, or
    a library has none of the known setters (another BLAS), nothing is changed.
    """
    maps = Path("/proc/self/maps")
    last = [line.split()[-1] for line in maps.read_text().splitlines()] if maps.exists() else []
    paths = sorted({path for path in last if "/" in path and "openblas" in path.lower()})
    pinned = []
    for path in paths:
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _BLAS_THREAD_SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter(1)
            pinned.append(path)
    return pinned


def main(argv=None) -> int:
    """The ``ptlind`` command: :func:`run_command` with OpenBLAS at one thread, so that
    the outputs do not depend on the machine's thread setting."""
    _pin_blas_threads()
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
