"""The CLI's exit-code contract over fuzzed configs and options.

Every run of every command ends in exit code 0, 1 (invalid input) or 2 (numerical
failure) and raises nothing, with numpy's warnings as errors.  Its stdout and every
file it writes parse as strict JSON or as CSV of finite floats, and a refusal writes
one JSON object with ``error`` to stderr.  Chains stay at n <= 4 and custom models at
dim <= 3, so no draw reaches a large allocation.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ptlind.cli import run_command

_WRONG_TYPES = st.sampled_from(["1.0", None, True, [], {}])
_TINY = st.sampled_from([5e-324, -0.0])


def _mostly(valid, *rare):
    """``valid`` most of the time (and when shrunk), else one of the ``rare`` strategies.

    The two ``rare`` draws are inner integers: hypothesis favours the ends of a range.
    """
    return st.integers(0, 9).flatmap(lambda k: rare[k % len(rare)] if k in (4, 5) else valid)


def _real(lo, hi):
    return _mostly(st.floats(lo, hi), _TINY)


_CELL = st.tuples(_real(-2.0, 2.0), _real(-2.0, 2.0)).map(list)
_BAD_CELL = st.sampled_from(
    [[1e300, 0.0], [0.0, -1e300], [1.0], [1.0, 0.0, 0.0], [True, 0.0], ["1", 0.0], 1.0, None]
)


@st.composite
def _matrix(draw, dim, hermitian=False):
    """Rows of ``[re, im]`` cells, Hermitian if asked."""
    rows = [[draw(_CELL) for _ in range(dim)] for _ in range(dim)]
    if hermitian:  # the lower triangle mirrors the upper; the diagonal is real
        for j in range(dim):
            for k in range(j + 1):
                rows[j][k] = [rows[k][j][0], 0.0 if j == k else -rows[k][j][1]]
    return rows


@st.composite
def _custom(draw):
    dim = draw(st.integers(2, 3))
    lindblads = [draw(_matrix(dim)) for _ in range(draw(st.integers(1, 2)))]
    return {"hamiltonian": draw(_matrix(dim, hermitian=True)), "lindblads": lindblads}


@st.composite
def _bad_custom(draw):
    """A custom model with one fault: a bad cell, a ragged row, a non-Hermitian or
    one-level Hamiltonian, or a jump operator of the wrong size."""
    custom = draw(_custom())
    h = custom["hamiltonian"]
    fault = draw(st.sampled_from(["cell", "ragged", "skew", "one-level", "jump-size"]))
    if fault == "cell":
        target = draw(st.sampled_from([h, *custom["lindblads"]]))
        target[draw(st.integers(0, len(target) - 1))][0] = draw(_BAD_CELL)
    elif fault == "ragged":
        h[-1].pop()
    elif fault == "skew":
        h[0][-1] = [1.0, 1.0]
    elif fault == "one-level":
        custom["hamiltonian"] = [[[1.0, 0.0]]]
    else:
        custom["lindblads"].append(draw(_matrix(len(h) % 3 + 1)))
    return custom


_NUMBER_BAD = st.one_of(st.sampled_from([1e300, -1e300]), _WRONG_TYPES)
# each key: (valid values, values that parse_config or the library must refuse)
_KEYS = {
    # 400, 700 and 2000 overflow the generator's norms by length alone; each is refused
    # before any array exists
    "n": (
        st.integers(2, 4),
        st.sampled_from([1, 0, 2.5, 1e300, "3", True, None, 400, 700, 2000]),
    ),
    "delta": (_real(-1.5, 1.5), _NUMBER_BAD),
    "mu": (_real(-1.0, 1.0), _NUMBER_BAD),
    "gamma": (_real(0.0, 1.0), st.one_of(st.just(-5e-324), _NUMBER_BAD)),
    "omega": (_real(-2.0, 2.0), _NUMBER_BAD),
    "sector": (st.just("full"), st.sampled_from(["dmz1", 0, None])),
    "custom": (_custom(), st.one_of(_bad_custom(), st.sampled_from([{}, [], None]))),
}
_MODEL_KEYS = {
    "xxz": ("n", "delta", "mu", "gamma", "sector"),
    "single_qubit": ("omega", "gamma", "sector"),
    "custom": ("gamma", "sector", "custom"),
}


@st.composite
def configs(draw, models=tuple(_MODEL_KEYS)):
    """A config drawn key by key from valid values, mostly of one of ``models``; then up
    to two of its keys are dropped or replaced by a value to refuse (a boundary magnitude
    such as 1e300, a wrong type, a malformed matrix), or an unknown key rides along."""
    other = st.sampled_from([*(m for m in _MODEL_KEYS if m not in models), "ising", None])
    model = draw(_mostly(st.sampled_from(models), other))
    keys = _MODEL_KEYS.get(model, ("gamma",))
    cfg = {"model": model, **{key: draw(_KEYS[key][0]) for key in keys}}
    if model == "xxz":
        cfg["sector"] = draw(st.sampled_from(["full", "dmz0"]))
    for key in draw(st.lists(st.sampled_from([*keys, "unknown"]), max_size=2, unique=True)):
        if key == "unknown":
            cfg[draw(st.sampled_from(sorted(set(_KEYS) - set(keys))))] = 1.0
        elif draw(st.integers(0, 3)) == 0:
            del cfg[key]
        else:
            cfg[key] = draw(_KEYS[key][1])
    return cfg


def _flag(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def _option(flag, values, junk=()):
    """``[flag, value]`` for a drawn value, or nothing (the default); now and then a
    ``junk`` value that the command must refuse."""
    option = st.one_of(st.just([]), _flag(flag, values))
    return _mostly(option, _flag(flag, junk)) if junk else option


_TAU_REL = _option("--tau-rel", ["1e-6", "5e-324", "1e300"], ["0", "-1e-3", "nan"])
_BRACKET = (
    _option("--gamma-min", ["0.02", "5e-324", "1e-300"], ["0", "-1", "inf"]),
    _option("--gamma-max", ["0.2", "1", "1e300"], ["5e-324"]),
    _option("--rel-precision", ["0.05", "1e-17"], ["0", "nan"]),
    _TAU_REL,
)
_REPORT = _option("--out", ["report.json"])
_COMMANDS = {
    "spectrum": (st.just(["--out", "eigs.csv"]),),
    "check": (_REPORT, _TAU_REL),
    "perturb": (st.just(["--out-v", "V.csv"]), _REPORT),
    "threshold": (_REPORT, *_BRACKET),
    "evolve": (
        st.just(["--out", "series.csv"]),
        _option("--t-min", ["0", "0.5", "2"], ["-1"]),
        _option("--t-max", ["10", "1e20", "1e300", "0.1"]),
        _mostly(_flag("--points", ["1", "5", "50"]), _flag("--points", ["0", "-1"])),
    ),
    "scaling": (
        st.just(["--out", "table.csv"]),
        _mostly(_flag("--n-list", ["4", "3,4", "2,3,4", "2"]), _flag("--n-list", ["", "2,2"])),
        _option("--out-fit", ["fit.json"]),
        *_BRACKET,
    ),
}


@st.composite
def invocations(draw):
    """A config and a command line without ``--config``, whose output paths are bare
    names; the chain-only commands mostly get a chain."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    models = ("xxz",) if command in ("threshold", "evolve", "scaling") else tuple(_MODEL_KEYS)
    argv = [command, *(token for option in _COMMANDS[command] for token in draw(option))]
    return draw(configs(models)), argv


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _check_csv(text: str) -> None:
    lines = text.splitlines()
    assert lines, "empty CSV"
    if lines[0] in ("re,im", "t,deviation", "n,gamma_pt"):
        lines = lines[1:]
    for line in lines:
        for token in line.split(","):
            assert math.isfinite(float(token)), line


_FIG_TOP = {"model": "xxz", "n": 4, "delta": 0.5, "mu": 1.0, "gamma": 0.02, "sector": "dmz0"}
_RELAX = {"model": "xxz", "n": 3, "delta": 0.5, "mu": 1.0, "gamma": 0.02}
_HUGE_H = {"model": "custom", "gamma": 0.1, "custom": {
    "hamiltonian": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "lindblads": [[[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
}}


@settings(
    max_examples=175, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocation=invocations())
# a bracket whose product underflows, and one narrower than the float resolution,
# used to be bisected forever
@example(invocation=(_FIG_TOP, ["threshold", "--gamma-min", "5e-324", "--gamma-max", "0.2"]))
@example(invocation=(_FIG_TOP, ["threshold", "--rel-precision", "1e-17"]))
# a subnormal lower end, on a chain broken at zero coupling, used to be divided to 0
# and probed there
@example(invocation=(_RELAX, ["threshold", "--gamma-min", "5e-324", "--tau-rel", "1e-17"]))
# an overflowing propagator used to write nan rows and exit 0, and a finite but
# wrong one overflowed in the stepping with numpy's warning
@example(invocation=(_RELAX, ["evolve", "--out", "s.csv", "--t-max", "1e20", "--points", "5"]))
@example(invocation=(_RELAX, ["evolve", "--out", "s.csv", "--t-max", "1e300", "--points", "5"]))
@example(invocation=(
    dict(_RELAX, n=2, delta=0.0, mu=0.0, gamma=0.0),
    ["evolve", "--out", "s.csv", "--t-max", "1e20", "--points", "50"],
))
# the Hermiticity check's norm used to overflow with numpy's warning
@example(invocation=(_HUGE_H, ["check"]))
# one run that writes both of its outputs, since the draws rarely reach it
@example(invocation=(
    _FIG_TOP, ["scaling", "--n-list", "4", "--out", "t.csv", "--out-fit", "f.json"]
))
def test_exit_code_contract(invocation):
    config, (command, *options) = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("model.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_command([command, "--config", "model.json", *options])
        written = {path.name: path.read_text(encoding="utf-8") for path in Path(".").iterdir()}
    assert code in (0, 1, 2)
    if out.getvalue():
        assert isinstance(_strict_json(out.getvalue()), dict)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1
        assert "error" in _strict_json(err.getvalue())
    for name, text in written.items():
        if name.endswith(".csv"):
            _check_csv(text)
        elif name != "model.json":
            assert isinstance(_strict_json(text), dict), name
