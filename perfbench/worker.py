"""One workload process: set up, then run the closed loop untraced and/or traced.

Started by ``run.py`` with a command such as::

    python3 perfbench/worker.py --workload bisect --seed 1 --blas-threads 1 \
        --untraced-seconds 30 --workdir perfbench/_work/example

The BLAS thread count is pinned through the environment before numpy loads.
Set-up is the import, the input generation and one untimed warm-up op; the
process prints, as its last stdout line, one JSON object with the monotonic
time at which set-up ended, each loop's op times and failures, the peak RSS
and the library versions.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blas-threads", type=int, required=True)
    parser.add_argument("--untraced-seconds", type=float, default=0.0)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--spans-out", default=None, help="where to write the traced spans")
    parser.add_argument("--workdir", required=True, help="scratch directory for configs and outputs")
    return parser.parse_args(argv)


def _blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                out[os.path.basename(path)] = func()
                break
    return out


def _versions() -> dict:
    import numpy
    import scipy

    def blas(info):
        dep = info.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "python": sys.version.split()[0],
    }


def timed_loop(workload, inputs, references, seconds, tracer=None) -> dict:
    """Closed loop, one client: start the next op only after the last one ends.

    An op fails on a nonzero exit code, an exception or a failed output
    check; failed ops count as attempted and are left out of the op times.
    """
    durations, failures, all_durations = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        index = attempted % len(inputs)
        inp = inputs[index]
        if tracer is not None:
            tracer.op_id = attempted
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
            problems = None
        except Exception as exc:  # any error ends the op as failed; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if problems is None:
            expected = references[index % len(references)] if references else None
            try:
                problems = workload.check(inp, out, expected)
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        attempted += 1
        all_durations.append(t1 - t0)
        if problems:
            failures.append({"input": index, "problems": problems})
        else:
            durations.append(t1 - t0)
    return {
        "attempted": attempted,
        "failures": failures,
        "op_s": durations,
        "wall_s": time.perf_counter() - start,
        "all_op_s": all_durations,
    }


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    for key in BLAS_ENV:
        os.environ[key] = str(args.blas_threads)

    import json
    import resource
    import shutil

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import ptlind

    if not os.path.abspath(ptlind.__file__).startswith(src + os.sep):
        sys.stderr.write(f"ptlind was imported from {ptlind.__file__}, not from {src}\n")
        return 2

    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    references = None
    # The references were recorded with one BLAS thread; other thread counts
    # change the last bits of the eigenvalues, so they are checked only there.
    if args.seed == DEFAULT_SEED and args.blas_threads == 1 and workload.reference_of is not None:
        with open(os.path.join(here, "reference.json"), encoding="utf-8") as fh:
            references = json.load(fh)[workload.name]

    os.makedirs(args.workdir, exist_ok=True)
    try:
        inputs = workload.make_inputs(args.seed, args.workdir)
        warm = timed_loop(workload, inputs[:1], references, 0.0)
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "warmup_failures": warm["failures"]}
        if args.untraced_seconds > 0:
            result["untraced"] = timed_loop(workload, inputs, references, args.untraced_seconds)
        if args.traced_seconds > 0:
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, inputs, references, args.traced_seconds, tracer)
            finally:
                tracer.remove()
            traced["layers"] = tracer.summary(traced["attempted"], sum(traced["all_op_s"]))
            result["traced"] = traced
            if args.spans_out:
                tracer.write_spans(args.spans_out)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads_env"] = args.blas_threads
    result["blas_threads_runtime"] = _blas_runtime_threads()
    result["versions"] = _versions()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
