import json

import numpy as np
import pytest

from ptlind import SchemaError, ParseError, ValidationError
from ptlind.cli import main, parse_config, write_spectrum_csv
from ptlind.spectral import SpectralDecomposition

FIG_TOP = {
    "model": "xxz",
    "n": 4,
    "delta": 0.5,
    "mu": 1.0,
    "gamma": 0.02,
    "sector": "dmz0",
}

QUBIT = {"model": "single_qubit", "omega": 1.0, "gamma": 0.1}


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_valid_xxz(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, FIG_TOP))
        assert cfg.model == "xxz"
        assert cfg.n_sites == 4 and cfg.sector == "dmz0"
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
        assert cfg.hamiltonian[0, 0] == 0.5
        assert cfg.lindblads[0][1, 0] == 1.0

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(path))


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
            write_spectrum_csv(empty, str(tmp_path / "empty.csv"))


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

    def test_non_xxz_has_no_pt_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUBIT)
        assert main(["check", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pt"] is None
        assert report["d2"]["max_h_error"] <= 1e-8


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
