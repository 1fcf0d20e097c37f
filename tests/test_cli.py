import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ptlind import (
    ConvergenceFailure,
    NumericalError,
    ParseError,
    SchemaError,
    SuperOperator,
    ValidationError,
    XXZParams,
    average_damping,
    classify_cross,
    eig_biortho,
    verify_d2,
)
from ptlind import cli, threshold, tolerances
from ptlind.cli import TOLERANCES, _report, main, parse_config, write_spectrum_csv
from ptlind.spectral import SpectralDecomposition

from conftest import count_calls, full_build

FIG_TOP = {
    "model": "xxz",
    "n": 4,
    "delta": 0.5,
    "mu": 1.0,
    "gamma": 0.02,
    "sector": "dmz0",
}

QUBIT = {"model": "single_qubit", "omega": 1.0, "gamma": 0.1}


@pytest.fixture(autouse=True)
def empty_block_solve():
    """No test sees a block solve kept from an earlier one: call counts do not depend on order."""
    cli._BLOCK_SOLVE.entries.clear()


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_valid_xxz(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FIG_TOP))
        assert cfg.model == "xxz"
        assert cfg.spec.n_sites == 4 and cfg.sector == "dmz0"
        assert cfg.raw == FIG_TOP

    def test_missing_gamma(self, tmp_path):
        payload = dict(FIG_TOP)
        del payload["gamma"]
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.key == "gamma"

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(FIG_TOP, extra=1)
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.key == "extra"

    def test_non_numeric_gamma_rejected(self, tmp_path):
        payload = dict(FIG_TOP, gamma=True)
        with pytest.raises(SchemaError):
            parse_config(write_config(tmp_path, payload))

    def test_driving_out_of_range(self, tmp_path):
        payload = dict(FIG_TOP, mu=1.5)
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.key == "mu"

    @pytest.mark.parametrize("n", [400, 700, 2000])
    def test_chain_too_long_is_keyed_n(self, tmp_path, n):
        # refused by its length before any array exists, whatever delta is
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, dict(FIG_TOP, n=n)))
        assert err.value.key == "n"
        assert str(err.value) == f"n: a chain of {n} sites overflows the generator's norms"

    def test_custom_non_hermitian_hamiltonian(self, tmp_path):
        payload = {
            "model": "custom",
            "gamma": 0.1,
            "custom": {
                "hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                "lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],
            },
        }
        with pytest.raises(SchemaError) as err:
            parse_config(write_config(tmp_path, payload))
        assert err.value.key == "custom.hamiltonian"
        assert "not Hermitian" in str(err.value)

    def test_custom_valid_roundtrip(self, tmp_path):
        payload = {
            "model": "custom",
            "gamma": 0.1,
            "custom": {
                "hamiltonian": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],
            },
        }
        cfg = parse_config(write_config(tmp_path, payload))
        assert cfg.spec.hamiltonian[0, 0] == 0.5
        assert cfg.spec.lindblads[0][1, 0] == 1.0

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["custom.hamiltonian[1][1]", "custom.lindblads[0][1][0]"])
    def test_custom_non_finite_cell_rejected(self, tmp_path, cell, key):
        # json reads NaN and Infinity as floats; the cell is refused where it enters
        h = "[[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]"
        jump = "[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]"
        if key.startswith("custom.hamiltonian"):
            h = h.replace("[-0.5, 0]", f"[-0.5, {cell}]")
        else:
            jump = jump.replace("[1, 0]", f"[{cell}, 0]")
        path = tmp_path / "model.json"
        path.write_text(
            f'{{"model": "custom", "gamma": 0.1, '
            f'"custom": {{"hamiltonian": {h}, "lindblads": [{jump}]}}}}'
        )
        with pytest.raises(SchemaError) as err:
            parse_config(str(path))
        assert err.value.key == key
        assert "must be finite" in str(err.value)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(path))


_H2 = [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
_JUMP2 = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]


def _custom(**entries):
    """A valid custom config with ``entries`` replacing (or, as None, removing) its keys."""
    custom = {"hamiltonian": _H2, "lindblads": [_JUMP2]}
    custom.update(entries)
    return {"model": "custom", "gamma": 0.1,
            "custom": {k: v for k, v in custom.items() if v is not None}}


class TestSchemaRefusals:
    """One refusal per branch of ``parse_config``: exit 1, the key and the message."""

    @pytest.mark.parametrize(
        "payload, key, message",
        [
            (_custom(hamiltonian="x"), "custom.hamiltonian", "expected a non-empty list of rows"),
            (_custom(hamiltonian=[_H2[0], _H2[1][:1]]), "custom.hamiltonian[1]",
             "expected a row of length 2"),
            (_custom(hamiltonian=[_H2[0], [[0, 0], [1]]]), "custom.hamiltonian[1][1]",
             "expected a [re, im] pair of numbers"),
            ([FIG_TOP], "", "config root must be a JSON object"),
            (dict(FIG_TOP, gamma=-0.1), "gamma", "must be non-negative"),
            (dict(QUBIT, sector="dmz0"), "sector",
             "single_qubit models support only the full sector"),
            (dict(_custom(), sector="dmz0"), "sector", "custom models support only the full sector"),
            ({"model": "custom", "gamma": 0.1}, "custom", "missing required object"),
            (_custom(hamiltonian=None), "custom.hamiltonian", "missing required key"),
            (_custom(lindblads=None), "custom.lindblads", "missing required key"),
            (_custom(lindblads=[]), "custom.lindblads", "expected a non-empty list of matrices"),
            (_custom(lindblads=[[[[0, 0]] * 3] * 3]), "custom.lindblads[0]",
             "shape (3, 3) does not match hamiltonian (2, 2)"),
            # the magnitude rule, applied where the entries are read
            (dict(QUBIT, omega=1e308), "omega",
             "Hamiltonian entries up to 5.000e+307 overflow the generator's norms"),
            (dict(QUBIT, gamma=1e300), "gamma",
             "coupling gamma = 1e+300 overflows the generator's norms"),
            (_custom(lindblads=[[[[0, 0], [0, 0]], [[1e200, 0], [0, 0]]]]), "custom.lindblads",
             "jump operator entries up to 1.000e+200 overflow the generator's norms"),
            (dict(_custom(), gamma=1e300), "gamma",
             "coupling gamma = 1e+300 overflows the generator's norms"),
        ],
    )
    def test_refused_with_its_key(self, tmp_path, capsys, payload, key, message):
        assert main(["check", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SchemaError", "key": key, "message": f"{key}: {message}",
        }


class TestSpectrumCommand:
    def test_reference_panel_csv(self, tmp_path):
        cfg = write_config(tmp_path, FIG_TOP)
        out = tmp_path / "eigs.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 71
        eigs = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
        scale = max(1.0, np.abs(eigs[:, 0] + 1j * eigs[:, 1]).max())
        dist = np.minimum(np.abs(eigs[:, 1]), np.abs(eigs[:, 0] + 0.02))
        assert dist.max() <= 1e-8 * scale
        # sort contract: real part descending, imaginary ascending within ties
        order = np.lexsort((eigs[:, 1], -eigs[:, 0]))
        assert np.array_equal(order, np.arange(70))

    def test_single_qubit_rows(self, tmp_path):
        cfg = write_config(tmp_path, QUBIT)
        out = tmp_path / "eigs.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        first = [float(t) for t in lines[1].split(",")]
        assert first == [0.0, 0.0]
        eigs = sorted(
            (complex(*[float(t) for t in line.split(",")]) for line in lines[1:]),
            key=lambda z: (z.real, z.imag),
        )
        expected = sorted([0.0, -0.2, -0.1 + 1j, -0.1 - 1j], key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(eigs, expected)) < 1e-10

    def test_serialisation_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, QUBIT)
        out = tmp_path / "eigs.csv"
        main(["spectrum", "--config", cfg, "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            for tok in line.split(","):
                assert f"{float(tok):.16e}" == tok

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FIG_TOP)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--config", cfg, "--out", str(out1)])
        main(["spectrum", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("sector", ["dmz0", "full"])
    def test_same_bytes_as_the_biorthonormal_route(self, tmp_path, sector):
        # the command assembles the dmz0 block directly and solves for eigenvalues only
        params = XXZParams(4, 0.7, 0.6, 0.3)
        cfg = write_config(tmp_path, dict(FIG_TOP, delta=0.7, mu=0.6, gamma=0.3, sector=sector))
        out, ref = tmp_path / "eigs.csv", tmp_path / "ref.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        write_spectrum_csv(eig_biortho(full_build(params, sector)).eigenvalues, str(ref))
        assert out.read_bytes() == ref.read_bytes()

    def test_runs_through_the_public_functions(self, tmp_path, monkeypatch):
        built = count_calls(monkeypatch, "ptlind.cli.build_superoperator")
        written = count_calls(monkeypatch, "ptlind.cli.write_spectrum_csv")
        cfg = write_config(tmp_path, FIG_TOP)
        out = tmp_path / "eigs.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len(built) == 1 and built[0][1].size == 70
        assert len(written) == 1 and written[0][0].size == 70 and written[0][1] == str(out)

    def test_empty_spectrum_refused(self, tmp_path):
        empty = SpectralDecomposition(
            eigenvalues=np.zeros(0, dtype=complex),
            right_vectors=np.zeros((0, 0), dtype=complex),
            left_vectors=np.zeros((0, 0), dtype=complex),
            residuals=np.zeros(0),
            clusters=(),
            matrix_norm=0.0,
            hilbert_dim=0,
            index=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValidationError):
            write_spectrum_csv(empty.eigenvalues, str(tmp_path / "empty.csv"))


class TestCheckCommand:
    def test_reference_panel_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_TOP)
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == FIG_TOP
        assert report["pt"]["pt_residual"] <= 1e-12
        assert report["classification"]["off_cross"] == 0
        assert report["classification"]["on_h"] == 16
        assert report["classification"]["on_v"] == 54
        assert report["hermiticity_residual"] <= 1e-13
        assert "tau_rel" in report["tolerances"]

    def test_report_to_file_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FIG_TOP)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["check", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["check", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_classification_and_mirror_errors_of_the_biorthonormal_route(self, tmp_path, capsys):
        params = XXZParams(4, 0.7, 0.6, 0.3)
        cfg = write_config(tmp_path, dict(FIG_TOP, delta=0.7, mu=0.6, gamma=0.3))
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        gamma_bar = average_damping(full_build(params, "full"))
        dec = eig_biortho(full_build(params, "dmz0"))
        cls = classify_cross(dec.eigenvalues, gamma_bar)
        d2 = verify_d2(dec.eigenvalues, gamma_bar)
        assert report["gamma_bar"] == gamma_bar
        assert report["classification"] == {
            "tau": cls.tau,
            "on_h": len(cls.on_h),
            "on_v": len(cls.on_v),
            "off_cross": len(cls.off_cross),
        }
        assert report["d2"] == {"max_v_error": d2.max_v_error, "max_h_error": d2.max_h_error}

    def test_non_xxz_has_no_pt_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUBIT)
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pt"] is None
        assert report["d2"]["max_h_error"] <= 1e-8

    def test_residuals_read_the_generator_entries(self, tmp_path, monkeypatch):
        # one call each, on the full generator's nonzero entries, not on a dense matrix
        herm = count_calls(monkeypatch, "ptlind.cli.hermiticity_residual")
        pt = count_calls(monkeypatch, "ptlind.cli.check_pt")
        cfg = write_config(tmp_path, FIG_TOP)
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert len(herm) == 1 and len(pt) == 1
        for (entries, *_) in herm + pt:
            assert not hasattr(entries, "matrix") and entries.dim == 256


class TestCheckMemory:
    """``check`` holds no dense N^2 x N^2 buffer for the PT norms, and no full generator."""

    @pytest.fixture
    def peak(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def peak(payload) -> float:
            cfg = write_config(tmp_path, payload)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(["check", "--config", cfg]) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        return peak

    def test_chain_holds_one_buffer(self, peak):
        # n = 5 dmz0: the block solve holds the 1 MB block once, beside LAPACK's workspace,
        # and the norms are taken on the entries' groups of four: about 1.65 MiB.  With a
        # copy of the block for LAPACK and one for its range check, and the norms on groups
        # of 64, it was 4.3 MiB; one dense 1024 x 1024 buffer is 16 MiB, and the dense
        # route held the full generator, its traceless part and the sandwich, about 49 MB
        assert peak(dict(FIG_TOP, n=5, gamma=0.3)) < 2.5 * 1024**2

    def test_dense_custom_model(self, peak):
        # N = 16 with every factor dense: 65536 entries, each 24 bytes as a position and
        # a value against 16 in a dense 256 x 256 matrix.  The dense route (the generator
        # kept beside its solve, then the Hermiticity temporaries) peaked at 3.57 such
        # matrices, and the entry route at about 3.3.
        rng = np.random.default_rng(3)

        def cells(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]

        def dense(scale):
            return (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))) * scale

        a = dense(1.0)
        payload = {"model": "custom", "gamma": 0.3, "custom": {
            "hamiltonian": cells((a + a.conj().T) / 2.0),
            "lindblads": [cells(dense(1.0 / np.sqrt(32))) for _ in range(3)],
        }}
        assert peak(payload) < 3.5 * 16 * 256**2


CUSTOM = {
    "model": "custom",
    "gamma": 0.3,
    "custom": {
        "hamiltonian": [
            [[1.0, 0.0], [0.2, -0.5], [0.0, 0.0]],
            [[0.2, 0.5], [0.0, 0.0], [0.3, 0.0]],
            [[0.0, 0.0], [0.3, 0.0], [-1.0, 0.0]],
        ],
        "lindblads": [[
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.8], [0.0, 0.0]],
        ]],
    },
}
SHARED = pytest.mark.parametrize(
    "payload", [FIG_TOP, dict(FIG_TOP, n=3, sector="full"), CUSTOM],
    ids=["n4_dmz0", "n3_full", "custom"],
)


class TestSharedBlockSolve:
    """``check`` and ``spectrum`` on one config solve its block once per process."""

    @pytest.fixture
    def solves(self, monkeypatch):
        return count_calls(monkeypatch, "ptlind.cli._eigenvalues")

    @SHARED
    def test_spectrum_after_check(self, tmp_path, solves, payload):
        cfg = write_config(tmp_path, payload)
        warm, cold = tmp_path / "warm.csv", tmp_path / "cold.csv"
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(warm)]) == 0
        assert len(solves) == 1
        cli._BLOCK_SOLVE.entries.clear()
        assert main(["spectrum", "--config", cfg, "--out", str(cold)]) == 0
        assert len(solves) == 2
        assert warm.read_bytes() == cold.read_bytes()

    @SHARED
    def test_check_after_spectrum(self, tmp_path, solves, payload):
        cfg = write_config(tmp_path, payload)
        warm, cold = tmp_path / "warm.json", tmp_path / "cold.json"
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "eigs.csv")]) == 0
        assert main(["check", "--config", cfg, "--out", str(warm)]) == 0
        assert len(solves) == 1
        cli._BLOCK_SOLVE.entries.clear()
        assert main(["check", "--config", cfg, "--out", str(cold)]) == 0
        assert len(solves) == 2
        assert warm.read_bytes() == cold.read_bytes()

    @pytest.mark.parametrize("sector,block", [("dmz0", 20), ("full", 64)])
    def test_check_builds_only_the_block(self, tmp_path, monkeypatch, sector, block):
        # the full-space residuals read the generator's nonzero entries, so the one
        # dense build is the block that the eigensolve needs, and a kept solve needs none
        built = count_calls(monkeypatch, "ptlind.cli.build_superoperator")
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3, sector=sector))
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert [m.dim**2 if keep is None else keep.size for m, keep in built] == [block]
        assert main(["check", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("first,second", [(0.02, math.nextafter(0.02, 1.0)), (0.0, -0.0)])
    def test_another_coupling_is_solved_afresh(self, tmp_path, solves, first, second):
        one = write_config(tmp_path, dict(FIG_TOP, gamma=first), "one.json")
        two = write_config(tmp_path, dict(FIG_TOP, gamma=second), "two.json")
        for cfg, count in ((one, 1), (two, 2), (one, 3), (one, 3)):
            assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "eigs.csv")]) == 0
            assert len(solves) == count
            assert len(cli._BLOCK_SOLVE.entries) == 1

    def test_kept_eigenvalues_are_read_only(self, tmp_path):
        cfg = write_config(tmp_path, FIG_TOP)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "eigs.csv")]) == 0
        (kept,) = cli._BLOCK_SOLVE.entries.values()
        assert kept.shape == (70,) and not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0

    def test_a_failed_solve_leaves_the_slot_empty(self, tmp_path, monkeypatch):
        one = write_config(tmp_path, FIG_TOP, "one.json")
        two = write_config(tmp_path, dict(FIG_TOP, gamma=0.03), "two.json")
        assert main(["spectrum", "--config", one, "--out", str(tmp_path / "one.csv")]) == 0
        assert len(cli._BLOCK_SOLVE.entries) == 1

        def fail(m):
            raise ConvergenceFailure("dense eigensolver failed")

        monkeypatch.setattr(cli, "_eigenvalues", fail)
        assert main(["spectrum", "--config", two, "--out", str(tmp_path / "two.csv")]) == 2
        assert cli._BLOCK_SOLVE.entries == {}
        assert not (tmp_path / "two.csv").exists()


class TestPerturbCommand:
    def test_single_qubit_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUBIT)
        out_v = tmp_path / "v.csv"
        assert main(["perturb", "--config", cfg, "--out-v", str(out_v)]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = [
            [float(t) for t in line.split(",")] for line in out_v.read_text().splitlines()
        ]
        assert np.allclose(rows, [[1.0, 2.0], [0.0, -1.0]], atol=1e-12)
        xi = sorted(z[0] for z in report["xi"])
        assert np.allclose(xi, [-1.0, 1.0], atol=1e-9)
        assert report["energies"] == [-0.5, 0.5]

    def test_degeneracy_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIG_TOP, n=2, sector="full"))
        out_v = tmp_path / "v.csv"
        assert main(["perturb", "--config", cfg, "--out-v", str(out_v)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["degeneracy"]["degenerate_pairs"]) == 1


class TestThresholdCommand:
    def test_reference_chain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_TOP)
        code = main(
            [
                "threshold", "--config", cfg,
                "--gamma-min", "0.02", "--gamma-max", "0.2", "--rel-precision", "0.02",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.02 < report["gamma_pt"] < 0.2
        assert report["evaluations"][0]["gamma"] == 0.02

    def test_unbreakable_chain_exits_numerical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIG_TOP, n=2))
        code = main(
            ["threshold", "--config", cfg, "--gamma-min", "0.01", "--gamma-max", "1.0"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BracketInvalid"

    def test_subnormal_lower_end_is_probed_once(self, tmp_path, capsys, monkeypatch):
        # the downward expansion used to divide 5e-324 to 0.0 and probe there six times
        probes = count_calls(monkeypatch, "ptlind.threshold.classify_cross")
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3))
        argv = ["threshold", "--config", cfg, "--gamma-min", "5e-324", "--tau-rel", "1e-17"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BracketInvalid"
        assert err["message"].startswith("no unbroken coupling found down to gamma = 4.941e-324;")
        assert [args[1] for args in probes] == [5e-324]

    def test_non_finite_bracket_end_is_invalid_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_TOP)
        code = main(["threshold", "--config", cfg, "--gamma-max", "inf"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "gamma_max" in err["message"]


class TestEvolveCommand:
    def test_time_series_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIG_TOP, n=2, gamma=0.1, sector="full"))
        out = tmp_path / "series.csv"
        code = main(
            [
                "evolve", "--config", cfg, "--out", str(out),
                "--t-min", "0.5", "--t-max", "10", "--points", "40",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == 41
        report = json.loads(capsys.readouterr().out)
        assert report["observable"] == "spin_current"
        assert report["n_fit_points"] > 0


    @pytest.mark.parametrize(
        "chain,t_max,points,message",
        [
            ({"n": 3}, "1e20", "5", "matrix exponential failed: overflow encountered in matmul"),
            ({"n": 3}, "1e300", "5", "matrix exponential is not finite"),
            # a finite but wrong step propagator, its entries near 2e25, used to
            # overflow in the stepping with numpy's warning; its trace drift refuses it
            ({"n": 2, "delta": 0.0, "mu": 0.0, "gamma": 0.01}, "1e20", "50",
             "time evolution failed: the step propagator at dt = 2.041e+18 drifts "
             "1.000e+00 off the trace, above 1.0e-10"),
        ],
    )
    def test_overflowing_propagator_writes_no_series(
        self, tmp_path, monkeypatch, capsys, chain, t_max, points, message
    ):
        # the first two runs used to write nan rows and exit 0
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(FIG_TOP, sector="full", **chain))
        argv = ["evolve", "--config", cfg, "--out", "s.csv", "--points", points, "--t-max", t_max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "NumericalError", "message": message}
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("t_max", ["1e8", "1e12"])
    def test_propagator_off_the_trace_writes_no_series(self, tmp_path, monkeypatch, capsys, t_max):
        # expm's finite but wrong propagators used to give deviations off by up to 1e-6,
        # written with exit 0
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3, sector="full"))
        argv = ["evolve", "--config", cfg, "--out", "s.csv", "--points", "3", "--t-max", t_max]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "NumericalError"
        assert err["message"].startswith("time evolution failed: the step propagator at dt = ")
        assert err["message"].endswith("off the trace, above 1.0e-10")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_zero_coupling_writes_no_series(self, tmp_path, monkeypatch, capsys):
        # every energy population is a steady state: this run used to exit 0 with a
        # growing deviation and a fitted rate of -0.0240
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3, gamma=0.0, sector="full"))
        assert main(["evolve", "--config", cfg, "--out", "s.csv"]) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "NoZeroMode"
        assert err["message"].startswith("zero mode is degenerate: the two smallest ")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestScalingCommand:
    def test_single_length_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_TOP)
        out = tmp_path / "table.csv"
        code = main(
            [
                "scaling", "--config", cfg, "--n-list", "4",
                "--out", str(out),
                "--gamma-min", "0.02", "--gamma-max", "0.2", "--rel-precision", "0.05",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,gamma_pt"
        assert lines[1].startswith("4,")
        report = json.loads(capsys.readouterr().out)
        assert report["slope"] is None  # one point fixes no slope

    @pytest.mark.parametrize("sector", ["full", "dmz0"])
    def test_bisects_on_the_configured_sector(self, tmp_path, monkeypatch, sector):
        sectors, find = [], threshold.find_gamma_pt

        def recorded(*args, **kwargs):
            sectors.append(kwargs["sector"])
            return find(*args, **kwargs)

        monkeypatch.setattr(threshold, "find_gamma_pt", recorded)
        cfg = write_config(tmp_path, dict(FIG_TOP, sector=sector))
        code = main(
            [
                "scaling", "--config", cfg, "--n-list", "3,4",
                "--out", str(tmp_path / "table.csv"), "--out-fit", str(tmp_path / "fit.json"),
                "--gamma-min", "0.02", "--gamma-max", "0.2", "--rel-precision", "0.05",
            ]
        )
        assert code == 0
        assert sectors == [sector, sector]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_schema_error_carries_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "xxz", "n": 2})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["key"] == "gamma"

    def test_usage_error_is_validation(self, capsys):
        assert main(["spectrum"]) == 1

    def test_threshold_requires_xxz(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUBIT)
        code = main(["threshold", "--config", cfg])
        assert code == 1

    @pytest.mark.parametrize("command", ["check", "threshold"])
    def test_non_finite_cell_carries_its_key(self, tmp_path, capsys, command):
        path = tmp_path / "model.json"
        path.write_text(
            '{"model": "custom", "gamma": 0.1, "custom": {'
            '"hamiltonian": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]], '
            '"lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}}'
        )
        assert main([command, "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["key"] == "custom.hamiltonian[0][0]"

    @pytest.mark.parametrize("key", ["delta", "custom.hamiltonian[1][1]"])
    def test_integer_beyond_binary64_carries_its_key(self, tmp_path, capsys, key):
        # json reads 1e400 as inf but an integer literal as an exact int, which no
        # float holds
        huge = "1" + "0" * 400
        path = tmp_path / "model.json"
        if key == "delta":
            path.write_text(json.dumps(FIG_TOP).replace('"delta": 0.5', f'"delta": {huge}'))
        else:
            path.write_text(
                '{"model": "custom", "gamma": 0.1, "custom": {'
                f'"hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [{huge}, 0]]], '
                '"lindblads": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}}'
            )
        assert main(["check", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["key"] == key
        assert "must be finite" in err["message"]

    def test_too_many_jump_operators_carry_their_key(self, tmp_path, capsys):
        # N = 2 admits at most N^2 - 1 = 3 jump operators
        jump = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
        payload = {
            "model": "custom",
            "gamma": 0.1,
            "custom": {
                "hamiltonian": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "lindblads": [jump] * 4,
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["check", "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["key"] == "custom.lindblads"
        assert "limit 3" in err["message"]


_BRACKET = ["--gamma-min", "0.02", "--gamma-max", "0.2"]
_TABLE = ["--n-list", "4", "--out", "t.csv", *_BRACKET]
_SERIES = ["--out", "s.csv"]


class TestRefusedOptions:
    """Values that used to end in a traceback, a numpy warning or a silent result are
    refused as invalid input; those that were refused before keep their text."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "--tau-rel", "nan"], "tau_rel must be finite, got nan"),
            (["check", "--tau-rel", "inf"], "tau_rel must be finite, got inf"),
            (["threshold", *_BRACKET, "--rel-precision", "nan"],
             "rel_precision must be finite, got nan"),
            (["threshold", *_BRACKET, "--rel-precision", "inf"],
             "rel_precision must be finite, got inf"),
            (["threshold", *_BRACKET, "--tau-rel", "nan"], "tau_rel must be finite, got nan"),
            (["scaling", *_TABLE, "--rel-precision", "nan"],
             "rel_precision must be finite, got nan"),
            (["scaling", *_TABLE, "--tau-rel", "inf"], "tau_rel must be finite, got inf"),
            (["evolve", *_SERIES, "--points", "-1"], "argument --points: must be >= 0, got '-1'"),
            (["scaling", "--n-list", "4,x", "--out", "t.csv"],
             "argument --n-list: not a list of integers: '4,x'"),
            (["evolve", *_SERIES, "--t-max", "inf"], "argument --t-max: must be finite, got 'inf'"),
            (["evolve", *_SERIES, "--t-min", "nan"], "argument --t-min: must be finite, got 'nan'"),
            # refused before, text unchanged
            (["evolve", *_SERIES, "--points", "0"],
             "t_grid must be a non-empty strictly increasing array of times >= 0"),
            (["evolve", *_SERIES, "--points", "2.5"],
             "argument --points: invalid int value: '2.5'"),
            (["evolve", *_SERIES, "--t-max", "x"], "argument --t-max: invalid float value: 'x'"),
            (["check", "--tau-rel", "0"], "tau_rel must be positive, got 0.0"),
            (["threshold", "--rel-precision", "0"], "rel_precision must be positive, got 0.0"),
            # new refusals: an empty list used to give a null fit, a repeated one a fit
            # through two copies of one point
            (["scaling", "--n-list", "", "--out", "t.csv"],
             "chain lengths must be non-empty and distinct, got []"),
            (["scaling", "--n-list", "4,4", "--out", "t.csv"],
             "chain lengths must be non-empty and distinct, got [4, 4]"),
            # negative numbers in exponent form, or infinite, reach the library
            (["check", "--tau-rel", "-1e-3"], "tau_rel must be positive, got -0.001"),
            (["check", "--tau-rel", "-inf"], "tau_rel must be positive, got -inf"),
            (["threshold", "--gamma-min", "-1e-3"],
             "need 0 < gamma_min < gamma_max, got (-0.001, 20.0)"),
            (["threshold", "--gamma-max", "-1E+2"],
             "need 0 < gamma_min < gamma_max, got (0.001, -100.0)"),
            (["threshold", "--gamma-min", "-inf"], "gamma_min must be finite, got -inf"),
            (["threshold", *_BRACKET, "--rel-precision", "-1e-3"],
             "rel_precision must be positive, got -0.001"),
            (["scaling", *_TABLE, "--tau-rel", "-.5e-3"], "tau_rel must be positive, got -0.0005"),
            (["evolve", *_SERIES, "--t-min", "-1e-3"],
             "t_grid must be a non-empty strictly increasing array of times >= 0"),
            (["evolve", *_SERIES, "--t-max", "-Infinity"],
             "argument --t-max: must be finite, got '-Infinity'"),
        ],
    )
    def test_refused_as_invalid_input(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, FIG_TOP)
        command, *options = argv
        assert main([command, "--config", cfg, *options]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {"error": "ValidationError", "message": message}
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestMagnitudeRule:
    """A model whose generator norms would overflow is refused before numpy can warn."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def refused(self, tmp_path, capsys, payload, argv, key, message):
        # parse_config applies the rule, so the refusal names the config entry
        command, *options = argv
        assert main([command, "--config", write_config(tmp_path, payload), *options]) == 1
        captured = capsys.readouterr()
        expected = {"error": "SchemaError", "key": key, "message": f"{key}: {message}"}
        assert json.loads(captured.err) == expected
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    EVERY_COMMAND = pytest.mark.parametrize("argv", [
        ["spectrum", "--out", "eigs.csv"],
        ["check"],
        ["perturb", "--out-v", "V.csv"],
        ["threshold", *_BRACKET],
        ["evolve", "--out", "s.csv", "--points", "10"],
        ["scaling", "--n-list", "3", "--out", "t.csv", *_BRACKET],
    ])

    @EVERY_COMMAND
    def test_huge_anisotropy_refused_by_every_command(self, tmp_path, capsys, argv):
        payload = {"model": "xxz", "n": 3, "delta": 1e300, "mu": 1.0, "gamma": 0.02}
        message = "Hamiltonian entries up to 2.000e+300 overflow the generator's norms"
        self.refused(tmp_path, capsys, payload, argv, "delta", message)

    @EVERY_COMMAND
    def test_anisotropy_overflowing_the_hamiltonian_sum_refused(self, tmp_path, capsys, argv):
        # 2 delta overflows while H is summed; the rule runs on delta before the sum
        payload = {"model": "xxz", "n": 3, "delta": 1e308, "mu": 1.0, "gamma": 0.02}
        message = "Hamiltonian entries up to inf overflow the generator's norms"
        self.refused(tmp_path, capsys, payload, argv, "delta", message)

    @EVERY_COMMAND
    def test_huge_custom_hamiltonian_refused_by_every_command(self, tmp_path, capsys, argv):
        # the Hermiticity check's norm used to overflow first, with numpy's warning
        zero, big = [0.0, 0.0], [1e300, 0.0]
        payload = {"model": "custom", "gamma": 0.1, "custom": {
            "hamiltonian": [[big, zero], [zero, zero]],
            "lindblads": [[[zero, zero], [[1.0, 0.0], zero]]],
        }}
        message = "Hamiltonian entries up to 1.000e+300 overflow the generator's norms"
        self.refused(tmp_path, capsys, payload, argv, "custom.hamiltonian", message)

    @EVERY_COMMAND
    def test_huge_coupling_refused(self, tmp_path, capsys, argv):
        # threshold and scaling bisect over their own couplings, but the config's
        # gamma still describes a model, and is refused at the boundary too
        payload = {"model": "xxz", "n": 3, "delta": 0.5, "mu": 1.0, "gamma": 1e300}
        message = "coupling gamma = 1e+300 overflows the generator's norms"
        self.refused(tmp_path, capsys, payload, argv, "gamma", message)

    @pytest.mark.parametrize("sector", ["full", "dmz0"])
    def test_report_stays_finite_just_below_the_rule(self, tmp_path, capsys, sector):
        # the rule refuses n = 3 from gamma = 3.42e150 on
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3, gamma=3.4e150, sector=sector))
        assert main(["check", "--config", cfg]) == 0
        json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(token))
        cfg = write_config(tmp_path, dict(FIG_TOP, n=3, gamma=3.5e150, sector=sector))
        assert main(["check", "--config", cfg]) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_refuses_a_non_finite_number(tmp_path, capsys, value):
    # json.dumps would write the tokens NaN or Infinity, which are not JSON
    cfg = parse_config(write_config(tmp_path, QUBIT))
    out = tmp_path / "report.json"
    with pytest.raises(NumericalError, match="non-finite"):
        _report(cfg, argparse.Namespace(), str(out), {"nested": {"value": value}})
    with pytest.raises(NumericalError):
        _report(cfg, argparse.Namespace(), None, {"value": value})
    assert not out.exists()
    assert capsys.readouterr().out == ""


class TestParserOncePerProcess:
    def test_built_once(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        cfg = write_config(tmp_path, QUBIT)
        for argv in (["check", "--config", cfg], ["check", "--config", cfg, "--tau-rel", "1e-6"]):
            assert main(argv) == 0
        assert main(["check", "--config", cfg, "--tau-rel", "0"]) == 1
        assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()

    def test_help_follows_the_width_of_each_call(self, monkeypatch, capsys):
        # argparse reads the terminal width when it formats a page, not when it is built
        pages = []
        for columns in ("40", "120", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["threshold", "--help"])
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[2] != pages[1]
        assert len(pages[0].splitlines()) > len(pages[1].splitlines())  # the narrow page wraps


class TestBlasThreadPin:
    """``main`` sets each loaded OpenBLAS to one thread through the library's own setter.
    Here stand-in libraries record the setter calls, so no thread count is changed."""

    @staticmethod
    def stand_ins(monkeypatch, symbols) -> list:
        calls = []

        class Library:
            def __init__(self, path):
                for name in symbols:
                    setattr(self, name, lambda k, path=path, name=name: calls.append((path, name, k)))

        monkeypatch.setattr(cli.ctypes, "CDLL", Library)
        return calls

    def test_each_openblas_is_set_to_one_thread(self, monkeypatch):
        calls = self.stand_ins(monkeypatch, ("openblas_get_num_threads", "openblas_set_num_threads"))
        pinned = cli._pin_blas_threads()
        if not pinned:
            pytest.skip("no OpenBLAS is loaded in this process")
        assert all("openblas" in Path(path).name.lower() for path in pinned)
        assert calls == [(path, "openblas_set_num_threads", 1) for path in pinned]

    def test_a_library_without_a_known_setter_is_left_as_it_is(self, monkeypatch):
        calls = self.stand_ins(monkeypatch, ("openblas_get_num_threads",))
        assert cli._pin_blas_threads() == []
        assert calls == []

    def test_main_pins_and_run_command_does_not(self, monkeypatch, tmp_path, capsys):
        # perfbench calls run_command and measures it at the thread counts it sets
        pins = count_calls(monkeypatch, "ptlind.cli._pin_blas_threads")
        cfg = write_config(tmp_path, QUBIT)
        assert cli.run_command(["check", "--config", cfg]) == 0
        assert pins == []
        assert main(["check", "--config", cfg]) == 0
        assert pins == [()]
        capsys.readouterr()


def test_echoed_tolerances_are_pinned(tmp_path, capsys):
    # every JSON report echoes this table; a change to it changes every report
    assert TOLERANCES == {
        "tau_rel": 1e-8,
        "pt_residual": 1e-12,
        "hermiticity_residual": 1e-13,
        "degeneracy_rel": 1e-8,
    }
    cfg = write_config(tmp_path, QUBIT)
    assert main(["check", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"] == TOLERANCES
    assert main(["perturb", "--config", cfg, "--out-v", str(tmp_path / "v.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"] == TOLERANCES


def test_table_entries_are_pinned():
    # a change to any entry moves a verdict or a refusal
    assert {name: value for name, value in vars(tolerances).items() if name.isupper()} == {
        "HERMITIAN_REL": 1e-12,
        "SECTOR_REL": 1e-12,
        "DISSIPATOR_TRACE_REL": 1e-9,
        "ENERGY_DEGENERACY_REL": 1e-9,
        "TAU_REL": 1e-8,
        "CLUSTER_REL": 1e-8,
        "DEFECTIVE_OVERLAP": 1e-14,
        "ZERO_MODE_REL": 1e-9,
        "VANISHING_TRACE": 1e-300,
        "UNITARITY_REL": 1e-12,
        "INVOLUTION_REL": 1e-12,
        "RHO0_TRACE": 1e-9,
        "STEP_DRIFT": 1e-10,
        "FIT_FLOOR": 1e-10,
        "PROBE_FREQUENCY": 1e-12,
        "PROBE_POSITIVITY": 1e-12,
        "PT_RESIDUAL": 1e-12,
        "HERMITICITY_RESIDUAL": 1e-13,
    }
    # what a report echoes is what classify_cross and eig_biortho cut at
    assert inspect.signature(classify_cross).parameters["tau_rel"].default == TOLERANCES["tau_rel"]
    cut = TOLERANCES["degeneracy_rel"]  # times max(1, max |lambda|) = 1 here
    for gap, clusters in ((0.9 * cut, 1), (1.1 * cut, 0)):
        dec = eig_biortho(SuperOperator(np.diag([0.0, 0.5, 0.5 + gap, 1.0]), 2))
        assert len(dec.clusters) == clusters, gap


def test_no_tolerance_literal_outside_the_table():
    # a number in (0, 1e-6] in the code is a tolerance, and is stated in ptlind.tolerances
    source = Path(__file__).resolve().parent.parent / "src" / "ptlind"
    literals = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(source.glob("*.py")) if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)
        and 0 < abs(node.value) <= 1e-6
    ]
    assert literals == []


class TestRunFromCheckout:
    """``python -m`` works with only ``src`` on the path, no install needed."""

    @pytest.fixture
    def run(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)

        def run(module, *argv, timeout=120, **extra_env):
            return subprocess.run(
                [sys.executable, "-m", module, *argv],
                env=dict(env, **extra_env), cwd=tmp_path,
                capture_output=True, text=True, timeout=timeout,
            )

        return run

    @pytest.mark.parametrize("module", ["ptlind", "ptlind.cli"])
    def test_threshold_writes_its_report(self, run, tmp_path, module):
        cfg = write_config(tmp_path, FIG_TOP)
        out = tmp_path / "result.json"
        proc = run(
            module, "threshold", "--config", cfg, "--out", str(out),
            "--gamma-min", "0.02", "--gamma-max", "0.2", "--rel-precision", "0.05",
        )
        assert proc.returncode == 0, proc.stderr
        assert 0.02 < json.loads(out.read_text())["gamma_pt"] < 0.2

    @pytest.mark.parametrize("module", ["ptlind", "ptlind.cli"])
    def test_bad_config_exits_invalid(self, run, tmp_path, module):
        cfg = write_config(tmp_path, {"model": "xxz", "n": 4})
        proc = run(module, "threshold", "--config", cfg)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "SchemaError"

    def test_overflowing_coupling_is_invalid_input(self, run, tmp_path):
        # at gamma = 1e300 the squared entries in the PT residual's norms would overflow;
        # the report used to exit 0 with "pt_residual": NaN, then exit 2 after numpy's
        # warnings.  Python's own warning filter makes any numpy warning an error here.
        payload = {"model": "xxz", "n": 3, "delta": 0.5, "mu": 1.0, "gamma": 1e300}
        cfg = write_config(tmp_path, payload)
        proc = run("ptlind", "check", "--config", cfg, PYTHONWARNINGS="error")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "SchemaError",
            "key": "gamma",
            "message": "gamma: coupling gamma = 1e+300 overflows the generator's norms",
        }

    def test_overflowing_anisotropy_is_invalid_input(self, run, tmp_path):
        # summing H at delta = 1e308 used to end in numpy's "overflow encountered in add",
        # a traceback under -W error
        payload = {"model": "xxz", "n": 3, "delta": 1e308, "mu": 1.0, "gamma": 0.02}
        cfg = write_config(tmp_path, payload)
        proc = run("ptlind", "spectrum", "--config", cfg, "--out", "eigs.csv", PYTHONWARNINGS="error")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "SchemaError",
            "key": "delta",
            "message": "delta: Hamiltonian entries up to inf overflow the generator's norms",
        }
        assert not (tmp_path / "eigs.csv").exists()

    @pytest.mark.parametrize(
        "options,bracket",
        [
            (["--gamma-min", "5e-324", "--gamma-max", "0.2"], "(5e-324, 0.2)"),
            (["--rel-precision", "1e-17"], "(0.023741000483234888, 0.02374100048323489)"),
        ],
    )
    def test_unsplittable_bracket_exits_numerical(self, run, tmp_path, options, bracket):
        # these bisections used to loop forever: the bracket ends' product underflows
        # to 0, or they become adjacent floats, so the midpoint is not inside; the
        # timeout turns a regression into a failure
        cfg = write_config(tmp_path, FIG_TOP)
        out = tmp_path / "result.json"
        proc = run(
            "ptlind", "threshold", "--config", cfg, "--out", str(out), *options,
            timeout=60, PYTHONWARNINGS="error",
        )
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "NumericalError"
        assert err["message"].startswith(f"cannot split the bracket {bracket} to rel_precision")
        assert not out.exists()

    @pytest.mark.parametrize("sector", ["full", "dmz0"])
    def test_gamma_pt_does_not_depend_on_the_blas_thread_count(self, run, tmp_path, sector):
        # the whole report: the command runs OpenBLAS at one thread whatever the
        # setting, so each probe's min_off_distance keeps its last bits too
        cfg = write_config(tmp_path, dict(FIG_TOP, sector=sector))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"result-{threads}.json"
            proc = run(
                "ptlind", "threshold", "--config", cfg, "--out", str(out),
                "--gamma-min", "0.02", "--gamma-max", "0.2", OPENBLAS_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
