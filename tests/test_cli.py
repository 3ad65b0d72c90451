"""Command-line interface: payloads, determinism, exit codes."""

import json

import pytest

from chapgas.cli import main
from helpers import loads_strict

DELTA_PROBLEM = {"rho_l": 1.0, "u_l": 1.0, "rho_r": 1.0, "u_r": -1.0, "A": 0.25, "alpha": 0.5}
REGION2_PROBLEM = {"rho_l": 1.0, "u_l": 1.8, "rho_r": 2.0, "u_r": 1.2, "A": 1.5, "alpha": 0.5}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_json(tmp_path, command, payload, expect=0):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out.json"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == expect
    return loads_strict(out.read_text(encoding="utf-8"))


class TestSolve:
    def test_delta_shock_payload(self, tmp_path):
        got = run_json(tmp_path, "solve", DELTA_PROBLEM)
        assert got["variant"] == "delta_shock"
        assert got["region"] == "III"
        assert got["delta"] == {"v_delta": -0.125, "w0": 2.0}
        assert got["star"] is None
        assert got["waves"] == [{"label": "Sdelta", "c": -0.125, "beta": 0.0}]

    def test_single_contact_payload(self, tmp_path):
        payload = {"rho_l": 2.0, "u_l": 0.5, "rho_r": 1.0, "u_r": 0.5, "A": 0.5}
        got = run_json(tmp_path, "solve", payload)
        assert got["variant"] == "single_contact"
        assert got["region"] == "OnJ"

    def test_pressureless_region_is_null(self, tmp_path):
        payload = {"rho_l": 4.0, "u_l": 1.0, "rho_r": 1.0, "u_r": 0.0}
        got = run_json(tmp_path, "solve", payload)
        assert got["region"] is None
        assert got["pressureless_case"] == "compression"

    def test_unit_exponent_rejected(self, tmp_path, capsys):
        payload = dict(DELTA_PROBLEM, alpha=1.0)
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "AlphaOutOfRange" in err

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DELTA_PROBLEM)
        assert main(["solve", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert stdout == out.read_text(encoding="utf-8")


class TestSample:
    def test_vacuum_flagged_between_contacts(self, tmp_path):
        payload = {
            "rho_l": 1.0,
            "u_l": -1.0,
            "rho_r": 1.0,
            "u_r": 1.0,
            "x_min": -2.0,
            "x_max": 2.0,
            "x_count": 5,
            "times": [1.0],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,t,rho,u,kind,weight,u_delta"
        middle = lines[3].split(",")
        assert middle[0] == "0"
        assert middle[4] == "vacuum"
        assert middle[2] == ""

    def test_far_field_carries_drifted_velocity(self, tmp_path):
        payload = dict(
            REGION2_PROBLEM, beta=2.0, x_min=-5.0, x_max=5.0, x_count=3, times=[1.0]
        )
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(rows[0][2]) == 1.0
        assert float(rows[0][3]) == pytest.approx(1.8 + 2.0)
        assert float(rows[-1][2]) == 2.0
        assert float(rows[-1][3]) == pytest.approx(1.2 + 2.0)

    def test_delta_row_reports_weight(self, tmp_path):
        payload = dict(
            DELTA_PROBLEM, x_min=-0.125, x_max=0.875, x_count=5, times=[1.0]
        )
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out.csv"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert first[4] == "delta"
        assert float(first[5]) == 2.0
        assert float(first[6]) == -0.125

    def test_byte_identical_reruns(self, tmp_path):
        payload = dict(
            REGION2_PROBLEM, x_min=-1.5, x_max=2.5, x_count=101, times=[0.5, 1.0]
        )
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_grid_rejected(self, tmp_path):
        payload = dict(DELTA_PROBLEM, x_min=1.0, x_max=-1.0, x_count=5, times=[1.0])
        cfg = write_config(tmp_path, payload)
        assert main(["sample", "--config", cfg]) == 2

    def test_bad_times_rejected(self, tmp_path):
        for times in ([], [0.0], [-1.0], "1.0", [True]):
            payload = dict(DELTA_PROBLEM, x_min=-1.0, x_max=1.0, x_count=5, times=times)
            cfg = write_config(tmp_path, payload)
            assert main(["sample", "--config", cfg]) == 2


    @pytest.mark.parametrize(
        "key, literal",
        [
            ("times", "[1e400]"),
            ("times", "[0.5, 1e400]"),
            ("times", "[1" + "0" * 400 + "]"),
            ("x_min", "-1e400"),
            ("x_max", "1e400"),
            ("loc_tol", "1e400"),
        ],
    )
    def test_non_finite_input_rejected(self, tmp_path, capsys, key, literal):
        payload = dict(DELTA_PROBLEM, x_min=-1.0, x_max=1.0, x_count=5, times=[1.0])
        payload[key] = "@"
        # json.dumps cannot write 1e400 itself: it would write Infinity
        text = json.dumps(payload).replace('"@"', literal)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["sample", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "NonFiniteInput" in err and key in err

    def test_overflowing_grid_step_rejected(self, tmp_path, capsys):
        payload = dict(DELTA_PROBLEM, x_min=-1.5e308, x_max=1.5e308, x_count=5, times=[1.0])
        cfg = write_config(tmp_path, payload)
        assert main(["sample", "--config", cfg]) == 2
        assert "NonFiniteInput" in capsys.readouterr().err


class TestVerify:
    def test_constructed_fan_passes(self, tmp_path):
        got = run_json(tmp_path, "verify", dict(DELTA_PROBLEM, beta=2.0))
        assert got["passed"] is True
        assert got["variant"] == "delta_shock"
        assert all(row["ok"] for row in got["checks"])

    def test_frictionless_source_identity_is_exact(self, tmp_path):
        got = run_json(tmp_path, "verify", DELTA_PROBLEM)
        source_rows = [r for r in got["checks"] if r["name"].startswith("delta.source")]
        assert source_rows
        assert all(row["value"] == 0.0 for row in source_rows)

    def test_sabotaged_weight_fails(self, tmp_path):
        got = run_json(tmp_path, "verify", dict(DELTA_PROBLEM, w0_factor=1.1), expect=3)
        assert got["passed"] is False
        broken = {row["name"] for row in got["checks"] if not row["ok"]}
        assert any(name.startswith("grh.weight") for name in broken)
        assert any(name.startswith("weak.") for name in broken)

    def test_sabotage_needs_a_delta_fan(self, tmp_path):
        payload = {"rho_l": 1.0, "u_l": 0.0, "rho_r": 0.5, "u_r": 1.2, "A": 1.0, "w0_factor": 1.1}
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg]) == 2

    def test_shock_contact_fan_passes(self, tmp_path):
        got = run_json(tmp_path, "verify", dict(REGION2_PROBLEM, quad_n=32))
        assert got["passed"] is True
        assert got["quad_n"] == 32


class TestOracle:
    def test_shock_contact_gates_pass(self, tmp_path):
        payload = dict(REGION2_PROBLEM, x_lo=-1.5, x_hi=2.5, n_cells=500)
        got = run_json(tmp_path, "oracle", payload)
        assert got["passed"] is True
        assert got["offsets_ok"] is True
        assert got["plateau"]["ok"] is True
        assert got["clamped"] == 0
        labels = [row["label"] for row in got["offsets"]]
        assert labels == ["S1", "J"]

    def test_constant_data_is_exact(self, tmp_path):
        payload = {
            "rho_l": 2.0,
            "u_l": 0.7,
            "rho_r": 2.0,
            "u_r": 0.7,
            "A": 0.5,
            "n_cells": 200,
        }
        got = run_json(tmp_path, "oracle", payload)
        assert got["passed"] is True
        assert got["l1_error"] <= 1e-12
        assert got["offsets"] == []

    def test_delta_mass_gate(self, tmp_path):
        payload = dict(DELTA_PROBLEM, n_cells=800)
        got = run_json(tmp_path, "oracle", payload)
        assert got["passed"] is True
        assert got["delta_mass"]["ok"] is True
        assert got["delta_mass"]["expected"] == 2.0

    def test_unreachable_l1_gate_fails(self, tmp_path):
        payload = {
            "rho_l": 1.0,
            "u_l": 0.0,
            "rho_r": 0.5,
            "u_r": 1.2,
            "A": 1.0,
            "n_cells": 200,
            "l1_max": 1e-30,
        }
        got = run_json(tmp_path, "oracle", payload, expect=3)
        assert got["passed"] is False
        assert got["l1_ok"] is False


class TestLimit:
    def test_compression_sweep_reaches_pressureless_speed(self, tmp_path):
        payload = {
            "rho_l": 4.0,
            "u_l": 1.0,
            "rho_r": 1.0,
            "u_r": 0.0,
            "A": 0.25,
            "sweep": [2.0 * 2.0**-k for k in range(1, 13)],
        }
        got = run_json(tmp_path, "limit", payload)
        assert got["case"] == "compression"
        assert got["targets"]["v_delta"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        last = got["rows"][-1]
        assert abs(last["v_delta"] - 2.0 / 3.0) <= 1e-3

    def test_contact_rows_identical(self, tmp_path):
        payload = {"rho_l": 2.0, "u_l": 0.7, "rho_r": 1.0, "u_r": 0.7, "A": 0.3}
        got = run_json(tmp_path, "limit", payload)
        speeds = {row["contact_speed"] for row in got["rows"]}
        assert speeds == {0.7}

    def test_expansion_star_density_collapses(self, tmp_path):
        payload = {
            "rho_l": 1.0,
            "u_l": 0.0,
            "rho_r": 1.0,
            "u_r": 1.0,
            "A": 0.5,
            "sweep_points": 16,
        }
        got = run_json(tmp_path, "limit", payload)
        stars = [row["rho_star"] for row in got["rows"]]
        assert all(b < a for a, b in zip(stars, stars[1:]))
        assert stars[-1] < 1e-8

    def test_bad_sweep_rejected(self, tmp_path):
        payload = dict(DELTA_PROBLEM, sweep=[0.1, 0.2])
        cfg = write_config(tmp_path, payload)
        assert main(["limit", "--config", cfg]) == 2


class TestConfigHandling:
    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rho_l": 1.0})
        assert main(["solve", "--config", cfg]) == 2
        assert "config key 'u_l' is required" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["solve", "--config", str(path)]) == 2

    def test_wrong_value_type(self, tmp_path):
        cfg = write_config(tmp_path, dict(DELTA_PROBLEM, rho_l="dense"))
        assert main(["solve", "--config", cfg]) == 2

    def test_non_finite_number_rejected(self, tmp_path, capsys):
        for key, val in (("w0_factor", float("inf")), ("A", float("nan"))):
            payload = dict(DELTA_PROBLEM, **{key: val})
            cfg = write_config(tmp_path, payload)
            assert main(["verify", "--config", cfg]) == 2
            assert "NonFiniteInput" in capsys.readouterr().err

    def test_boolean_is_not_a_number(self, tmp_path):
        cfg = write_config(tmp_path, dict(DELTA_PROBLEM, rho_l=True))
        assert main(["solve", "--config", cfg]) == 2


class TestStarDensityRange:
    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    @pytest.mark.parametrize(
        "payload",
        [
            {"rho_l": 1, "u_l": 1, "rho_r": 2, "u_r": 0, "A": 1.0001, "alpha": 0.01},
            {"rho_l": 1, "u_l": 0, "rho_r": 1, "u_r": 5, "A": 0.5, "alpha": 0.003},
        ],
        ids=["overflow", "underflow"],
    )
    def test_typed_error_exits_2(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        assert "DensityOutOfRange" in capsys.readouterr().err

    def test_jump_flux_overflow_exits_2(self, tmp_path, capsys):
        # rho* ~ 5e307 is finite, but the shock's momentum flux is not
        payload = {
            "rho_l": 1, "u_l": 4, "rho_r": 2, "u_r": 3, "A": 1.000838251222243, "alpha": 0.01
        }
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DensityOutOfRange" in captured.err

    @pytest.mark.parametrize(
        "payload",
        [
            {"rho_l": 1e110, "u_l": 0.5, "rho_r": 1e110, "u_r": 0.5},
            {"rho_l": 1e110, "u_l": 1, "rho_r": 1e110, "u_r": -1},
            {"rho_l": 1, "u_l": 0.5, "rho_r": 1, "u_r": 0.5, "beta": 1e103},
            {"rho_l": 1, "u_l": 1e103, "rho_r": 1, "u_r": 1e103},
        ],
        ids=["density", "density-delta", "beta", "velocity"],
    )
    def test_problem_scale_past_cubic_range_exits_2(self, tmp_path, capsys, payload):
        # the check tolerances grow like scale**3, which leaves float64 here
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DensityOutOfRange" in captured.err

    @pytest.mark.parametrize("rho_l", [1e60, 1e80, 1e100])
    def test_rarefaction_below_resolution_exits_2(self, tmp_path, capsys, rho_l):
        # A/rho_l**alpha is below one ulp of u_l, so the fan head has no width
        payload = {"rho_l": rho_l, "u_l": -1, "rho_r": 1, "u_r": 1, "A": 0.5}
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DensityOutOfRange" in captured.err
