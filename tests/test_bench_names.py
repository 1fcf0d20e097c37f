"""The names of ``ptlind`` that the benchmark harness reaches still resolve.

``perfbench/tracing.py`` looks up every function of its ``LAYERS`` with ``getattr`` when
a traced run starts, and ``perfbench/workloads.py`` calls a few package attributes
directly.  A name removed from the package would break those runs only once they start;
these tests catch it first.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ptlind
import ptlind.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in _layers().items() for name in names]
)
def test_traced_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ptlind.{module}"), name, None))


@pytest.mark.parametrize(
    "owner, name",
    [
        (ptlind, "XXZParams"),
        (ptlind, "spin_current"),
        (ptlind, "coherence_probe_state"),
        (ptlind, "observable_decay"),
        (ptlind.cli, "run_command"),
    ],
)
def test_workload_attribute_resolves(owner, name):
    assert callable(getattr(owner, name, None))
