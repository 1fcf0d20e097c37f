"""Fast self-test of the benchmark harness (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that each workload runs a few ops with no failure in both modes,
that every metric named in ``BENCHMARK.json`` is printed with its unit, and
that deliberately corrupted outputs (including a one-ulp change of
``gamma_pt`` on the default seed) are counted as failed ops.
"""

import json
import math
import os
import shutil
import subprocess
import sys

from worker import BLAS_ENV, timed_loop  # imports no numpy, so the pin below comes first

for key in BLAS_ENV:
    os.environ[key] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _bump_gamma_pt(out):
    out["gamma_pt"] = math.nextafter(out["gamma_pt"], math.inf)
    return out


def _widen_bracket(out):
    out["bracket"][1] *= 2.0
    return out


def _break_pt(out):
    out["report"]["pt"]["pt_residual"] = 1e-6
    return out


def _flip_spectrum_digit(out):
    out["spectrum"] = out["spectrum"].replace(b"e-", b"e+", 1)
    return out


def _bias_rate(out):
    out["rate"] *= 1.05
    return out


CORRUPTIONS = {
    "bisect": (_bump_gamma_pt, _widen_bracket),
    "inspect": (_break_pt, _flip_spectrum_digit),
    "relax": (_bias_rate,),
}


class _Corrupted:
    def __init__(self, workload, corrupt):
        self.workload, self.corrupt = workload, corrupt

    def run(self, inp):
        return self.corrupt(self.workload.run(inp))

    def check(self, inp, out, expected):
        return self.workload.check(inp, out, expected)


def _check_run(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        wrong = sorted(n for n in set(expected) & set(got) if got[n] != expected[n])
        problems.append(f"{workload} trace {trace}: missing {missing}, wrong unit {wrong}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append(f"{workload} trace {trace}: a metric value is not a number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            found = _check_run(name, trace, expected[trace])
            problems += found
            print(f"run {name} --trace {trace}: {'FAILED' if found else 'ok'}", flush=True)

    workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, corruptions in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            inputs = workload.make_inputs(DEFAULT_SEED, workdir)[:1]
            refs = reference.get(name)
            for corrupt in corruptions:
                loop = timed_loop(_Corrupted(workload, corrupt), inputs, refs, 0.0)
                counted = loop["attempted"] == 1 and len(loop["failures"]) == 1
                print(f"corrupt {name} with {corrupt.__name__}: "
                      f"{'counted as failed' if counted else 'NOT counted'}", flush=True)
                if not counted:
                    problems.append(f"{name}: corrupted output ({corrupt.__name__}) passed the check")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
