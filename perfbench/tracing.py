"""Outside-in tracing of ptlind's public functions.

The wrappers live in the benchmark, not in the library: each one replaces a
public function on every ``ptlind`` module that binds it (for example
``ptlind.threshold.build_superoperator`` and ``ptlind.cli.build_superoperator``),
so calls between the library's own modules are traced while no library file
changes.  Each call records a span (name, start, end, parent, op id) in memory;
a layer's self time is its span duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "xxz": ("xxz_model", "sector_basis", "spin_current"),
    "liouville": ("build_superoperator", "sector_restrict", "propagator", "hermiticity_residual"),
    "operators": ("mat_exp",),
    "symmetry": ("xxz_parity", "check_pt"),
    "spectral": ("eig_biortho", "classify_cross", "verify_d2", "steady_state"),
    "perturbation": ("population_matrix", "degeneracy_report"),
    "threshold": ("find_gamma_pt", "is_unbroken", "observable_decay", "coherence_probe_state"),
    "cli": ("run_command", "parse_config", "write_spectrum_csv"),
}
LAYER_NAMES = tuple(f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs)

# Computed counts: each maps (counts, args, kwargs, result) to increments at a
# layer boundary.  Sizes come from array shapes, not from measured traffic.


def _count_build(counts, args, kwargs, result):
    counts["built_entries"] += result.dim**2
    counts["liouville.build_superoperator.bytes"] += 16 * result.dim**2


def _count_restrict(counts, args, kwargs, result):
    counts["kept_entries"] += result.dim**2


def _count_eig(counts, args, kwargs, result):
    counts["spectral.eig_biortho.dim_cubed"] += result.dim**3


def _count_decay(counts, args, kwargs, result):
    counts["grid_steps"] += result.times.size


_HOOKS = {
    "liouville.build_superoperator": _count_build,
    "liouville.sector_restrict": _count_restrict,
    "spectral.eig_biortho": _count_eig,
    "threshold.observable_decay": _count_decay,
}


def _ptlind_modules():
    return [m for name, m in list(sys.modules.items()) if name == "ptlind" or name.startswith("ptlind.")]


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``remove`` restores them."""

    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, func):
        hook = _HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if name == "cli.run_command" and result != 0:
                self.errors[name] += 1
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = _ptlind_modules()
        for name in LAYER_NAMES:
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"ptlind.{module_name}"), func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list:
        """Self time of every span: its duration minus the union of its children."""
        children: dict = {}
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(index)
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child in sorted(children.get(index, ()), key=lambda c: self.spans[c][1]):
                c_start, c_end = max(self.spans[child][1], reach), min(self.spans[child][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def summary(self, n_ops: int, op_wall_s: float) -> dict:
        """Per-op layer table plus the computed counts, keyed by metric name."""
        calls, self_s = Counter(), Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
            out[f"{name}.errors"] = self.errors[name] / n_ops
        built = self.counts["built_entries"]
        out["liouville.sector_keep_ratio"] = self.counts["kept_entries"] / built if built else 0.0
        out["liouville.build_superoperator.bytes"] = self.counts["liouville.build_superoperator.bytes"] / n_ops
        out["spectral.eig_biortho.dim_cubed"] = self.counts["spectral.eig_biortho.dim_cubed"] / n_ops
        props = calls["liouville.propagator"]
        out["liouville.propagator.steps_per_call"] = self.counts["grid_steps"] / props if props else 0.0
        out["trace.op_wall_s"] = op_wall_s / n_ops
        out["trace.self_share"] = sum(self_s.values()) / op_wall_s
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [list(span) for span in self.spans],
                },
                fh,
            )
