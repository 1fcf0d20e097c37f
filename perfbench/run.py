"""ptlind benchmark: three seeded closed-loop workloads, end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload bisect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload inspect --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics untraced, with BLAS pinned to
one thread: three processes set up (import, input generation, one warm-up
op) and the median of their set-up times is ``setup_s``; the last one then
runs the closed loop for ``--seconds``.  ``--trace 1`` gives the per-layer
metrics instead: one single-thread process runs half the time untraced and
half traced (their ratio is the tracing overhead), and a second process runs
the traced loop with one BLAS thread per core, reported beside it.

Every op's output is checked.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with metadata and every op time, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bisect", "inspect", "relax")
SETUPS_PER_RUN = 3
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
COMPUTED_UNITS = {
    "liouville.sector_keep_ratio": "ratio",
    "liouville.build_superoperator.bytes": "B/op",
    "spectral.eig_biortho.dim_cubed": "count/op",
    "liouville.propagator.steps_per_call": "count",
    "trace.op_wall_s": "s/op",
    "trace.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "blas_nproc.trace.op_wall_s": "s/op",
}
LAYER_SUFFIX_UNITS = {"calls": "count/op", "self_s": "s/op", "errors": "count/op"}


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_NAMES:
        for suffix, unit in LAYER_SUFFIX_UNITS.items():
            units[f"{name}.{suffix}"] = unit
    units.update(COMPUTED_UNITS)
    for name in LAYER_NAMES:
        units[f"blas_nproc.{name}.self_s"] = "s/op"
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit():
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _spawn(args, n: int, threads: int, deadline: float, untraced=0.0, traced=0.0, spans_out=None) -> dict:
    """Run one worker process to completion; adds its ``setup_s`` to the result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--blas-threads", str(threads),
        "--untraced-seconds", repr(untraced), "--traced-seconds", repr(traced),
        "--workdir", os.path.join(HERE, "_work", f"{os.getpid()}-{n}"),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {n} did not finish within the run budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {n} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {n} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _tail(op_s: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(op_s)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _rate(loop: dict) -> float:
    return len(loop["op_s"]) / loop["wall_s"]


def _failures(*workers) -> tuple:
    """(attempted, failed, failure records) over warm-ups and loops of these workers."""
    attempted, records = 0, []
    for w in workers:
        attempted += 1
        records += w["warmup_failures"]
        for key in ("untraced", "traced"):
            if key in w:
                attempted += w[key]["attempted"]
                records += w[key]["failures"]
    return attempted, len(records), records


def _end_to_end(args, deadline) -> tuple:
    workers = [_spawn(args, n, 1, deadline) for n in range(SETUPS_PER_RUN - 1)]
    main = _spawn(args, SETUPS_PER_RUN - 1, 1, deadline, untraced=args.seconds)
    workers.append(main)
    loop = main["untraced"]
    if not loop["op_s"]:
        raise BenchError(f"every op failed: {loop['failures'][:3]}")
    tail, tail_pct = _tail(loop["op_s"])
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": _rate(loop),
        "op_p50_s": statistics.median(loop["op_s"]),
        "op_tail_s": tail,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "op_tail_percentile": tail_pct,
        "op_samples": len(loop["op_s"]),
        "setup_samples_s": [w["setup_s"] for w in workers],
        "op_s": loop["op_s"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, notes, [main], _failures(*workers)


def _per_layer(args, deadline) -> tuple:
    nproc = len(os.sched_getaffinity(0))
    results_dir = os.path.join(HERE, "results")
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}")
    half = args.seconds / 2.0
    single = _spawn(args, 0, 1, deadline, untraced=half, traced=half, spans_out=f"{stem}-spans-1thread.json")
    multi = _spawn(args, 1, nproc, deadline, traced=half, spans_out=f"{stem}-spans-{nproc}thread.json")
    for loop in (single["untraced"], single["traced"], multi["traced"]):
        if not loop["op_s"]:
            raise BenchError(f"every op of a loop failed: {loop['failures'][:3]}")
    values = dict(single["traced"]["layers"])
    values["trace.overhead_ratio"] = _rate(single["traced"]) / _rate(single["untraced"])
    for name in LAYER_NAMES:
        values[f"blas_nproc.{name}.self_s"] = multi["traced"]["layers"][f"{name}.self_s"]
    values["blas_nproc.trace.op_wall_s"] = multi["traced"]["layers"]["trace.op_wall_s"]
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    notes = {
        "nproc_blas_threads": nproc,
        "layers_1thread": single["traced"]["layers"],
        f"layers_{nproc}thread": multi["traced"]["layers"],
        "traced_ops": [single["traced"]["attempted"], multi["traced"]["attempted"]],
    }
    return metrics, notes, [single, multi], _failures(single, multi)


def _print_layer_table(notes: dict):
    nproc = notes["nproc_blas_threads"]
    one, many = notes["layers_1thread"], notes[f"layers_{nproc}thread"]
    wall1, wall_n = one["trace.op_wall_s"], many["trace.op_wall_s"]
    print(f"# per-op layer table (traced ops: {notes['traced_ops'][0]} at 1 BLAS thread, "
          f"{notes['traced_ops'][1]} at {nproc})")
    print(f"# {'layer':38s} {'calls':>8s} {'self s (1 thr)':>15s} {'share':>7s} "
          f"{f'self s ({nproc} thr)':>15s} {'share':>7s}")
    for name in LAYER_NAMES:
        s1, sn = one[f"{name}.self_s"], many[f"{name}.self_s"]
        print(f"# {name:38s} {one[f'{name}.calls']:8.2f} {s1:15.6f} {s1 / wall1:7.1%} "
              f"{sn:15.6f} {sn / wall_n:7.1%}")
    print(f"# {'op wall':38s} {'':8s} {wall1:15.6f} {one['trace.self_share']:7.1%} "
          f"{wall_n:15.6f} {many['trace.self_share']:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ptlind", "__init__.py")):
        sys.stderr.write(f"no ptlind sources under {os.path.join(ROOT, 'src')}; run from a full checkout\n")
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    try:
        if args.trace:
            metrics, notes, workers, (attempted, failed, records) = _per_layer(args, deadline)
        else:
            metrics, notes, workers, (attempted, failed, records) = _end_to_end(args, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": [w["blas_threads_env"] for w in workers],
        "blas_threads_runtime": [w["blas_threads_runtime"] for w in workers],
        "versions": workers[0]["versions"],
        "closed_loop_clients": 1,
    }
    record = {"meta": meta, "metrics": metrics, "notes": notes, "failures": records}
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# meta " + json.dumps(meta, sort_keys=True))
    for failure in records[:5]:
        print("# failed op " + json.dumps(failure))
    if args.trace:
        _print_layer_table(notes)
        print(f"# tracing overhead: traced/untraced ops_per_s = {metrics['trace.overhead_ratio']['value']:.4f}")
    else:
        for name, m in metrics.items():
            print(f"# {name:12s} {m['value']:.6g} {m['unit']}")
        print(f"# op_tail_s is p{notes['op_tail_percentile']:.0f} of {notes['op_samples']} ops")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
