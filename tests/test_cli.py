"""Command-line interface: payloads, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chapgas import (
    ChapgasError,
    DensityOutOfRange,
    RiemannProblem,
    WindowOutOfDomain,
    cli,
    fv,
    states,
    waves,
)
from chapgas.cli import main
from chapgas.fv import FvConfig, gate_cells
from chapgas.verify import checks_pass, fan_checks
from chapgas.waves import SampleKind, evaluate, solve
from helpers import draw_region_problem, draw_state, draw_wide_problem, loads_strict, make_problem

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

    @pytest.mark.parametrize("command", ["solve", "sample", "verify", "oracle", "limit"])
    @pytest.mark.parametrize("alpha", [1.5, 3000, -3000])
    def test_pressureless_exponent_rejected(self, tmp_path, capsys, command, alpha):
        # 2**3000 used to overflow in chap, and -3000 to divide by zero
        payload = {"rho_l": 2, "u_l": 1, "rho_r": 1, "u_r": 0, "A": 0, "alpha": alpha}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AlphaOutOfRange" in captured.err

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

    def test_grid_whose_last_point_overflows_rejected(self, tmp_path, capsys):
        # the step and x_max are finite, but 3 * step rounds past the float
        # range: the last point used to be written as an x of inf
        payload = dict(
            DELTA_PROBLEM, x_min=-1e308, x_max=7.976931348623157e307, x_count=4, times=[1.0]
        )
        assert math.isfinite((payload["x_max"] - payload["x_min"]) / 3)
        cfg = write_config(tmp_path, payload)
        assert main(["sample", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: NonFiniteInput") and "Warning" not in err


def sample_fan(cfg: dict):
    return solve(
        make_problem(
            cfg["rho_l"], cfg["u_l"], cfg["rho_r"], cfg["u_r"],
            cfg.get("A", 0.0), cfg.get("alpha", 0.5), cfg.get("beta", 0.0),
        )
    )


def reference_sample_csv(cfg: dict) -> str:
    """The sample CSV as the plain per-row writer makes it: every regular
    row formats its own rho and u with %.17g. cfg must be valid."""
    fan = sample_fan(cfg)
    x_min, x_max, x_count = float(cfg["x_min"]), float(cfg["x_max"]), cfg["x_count"]
    loc_tol = float(cfg["loc_tol"]) if "loc_tol" in cfg else None

    def _fmt(v):
        return f"{float(v):.17g}"

    step = (x_max - x_min) / (x_count - 1)
    xs = [x_min + i * step for i in range(x_count)]
    x_cells = [_fmt(x) for x in xs]
    x_grid = np.array(xs)

    def opt(v) -> str:
        return "" if v is None else _fmt(v)

    lines = ["x,t,rho,u,kind,weight,u_delta"]
    for t in [float(t) for t in cfg["times"]]:
        s = evaluate(fan, x_grid, t, loc_tol)
        t_cell = _fmt(t)
        fixed = {
            SampleKind.VACUUM: f"{t_cell},,,{SampleKind.VACUUM},,",
            SampleKind.ON_DELTA: f"{t_cell},,,{SampleKind.ON_DELTA},"
            f"{opt(s.weight)},{opt(s.u_delta)}",
        }
        for x_cell, kind, rho, u in zip(x_cells, s.kind.tolist(), s.rho.tolist(), s.u.tolist()):
            if kind == SampleKind.REGULAR:
                lines.append(f"{x_cell},{t_cell},{_fmt(rho)},{_fmt(u)},{kind},,")
            else:
                lines.append(f"{x_cell},{fixed[kind]}")
    return "\n".join(lines) + "\n"


_TIMES = [0.5, 1.0, 1.75]
# one config per fan variant, a rarefaction interior, a delta whose loc_tol
# is the grid step, and signed zeros: -0 and 0 must stay apart in the u column
PINNED_SAMPLES = {
    "two_contacts_vacuum": {
        "rho_l": 1.0, "u_l": -1.0, "rho_r": 1.0, "u_r": 1.0, "beta": 2.0,
        "x_min": -3.0, "x_max": 3.0, "x_count": 121, "times": _TIMES,
    },
    "single_contact": {
        "rho_l": 2.0, "u_l": 0.5, "rho_r": 1.0, "u_r": 0.5, "A": 0.5, "beta": -1.0,
        "x_min": -2.0, "x_max": 2.0, "x_count": 97, "times": _TIMES,
    },
    "rarefaction_contact": {
        "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.5, "u_r": 1.2, "A": 1.0, "alpha": 0.3,
        "x_min": -1.5, "x_max": 3.0, "x_count": 301, "times": _TIMES,
    },
    "shock_contact": dict(
        REGION2_PROBLEM, beta=2.0, x_min=-1.5, x_max=6.5, x_count=200, times=_TIMES
    ),
    "delta_shock": dict(
        DELTA_PROBLEM, beta=-1.0, x_min=-3.0, x_max=2.0, x_count=151, times=_TIMES
    ),
    "delta_shock_loc_tol_step": dict(
        DELTA_PROBLEM, x_min=-1.0, x_max=1.0, x_count=33, loc_tol=2.0 / 32, times=_TIMES
    ),
    "signed_zero": {
        "rho_l": 1, "u_l": -0.0, "rho_r": 2, "u_r": 0.0, "A": 0, "beta": -0.0,
        "x_min": -1, "x_max": 1, "x_count": 5, "times": [1],
    },
}


class TestSamplePinned:
    """sample stdout is pinned byte for byte to the plain per-row writer."""

    @pytest.mark.parametrize("name", sorted(PINNED_SAMPLES))
    def test_stdout_matches_reference_writer(self, tmp_path, capsys, name):
        cfg = PINNED_SAMPLES[name]
        assert main(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == reference_sample_csv(cfg)

    def test_pins_cover_their_cases(self):
        def rows(name):
            text = reference_sample_csv(PINNED_SAMPLES[name])
            return [line.split(",") for line in text.splitlines()[1:]]

        for name, cfg in PINNED_SAMPLES.items():
            assert name.startswith(sample_fan(cfg).variant) or name == "signed_zero"
        assert any(r[4] == "vacuum" for r in rows("two_contacts_vacuum"))
        # the rarefaction interior gives a distinct density at almost every point
        assert len({r[2] for r in rows("rarefaction_contact")}) > 100
        # with loc_tol equal to the grid step, several points sit on the delta
        assert sum(r[4] == "delta" for r in rows("delta_shock_loc_tol_step")) > 3
        assert {r[3] for r in rows("signed_zero")} == {"-0", "0"}


def draw_sample_config(rng, variant: str) -> dict:
    """A valid sample config whose fan is of the given variant, from the
    tests/helpers.py ranges, on a grid of 2 to 900 points over one to three
    times. Half the grids set loc_tol to the grid step, so points land on a
    delta; half the single contacts carry -0.0 on one side and 0.0 on the
    other, half of those with equal densities, so that a run ends where only
    the sign of a zero changes."""
    alpha, beta = float(rng.choice([0.3, 0.5, 0.8])), float(rng.choice([-1.0, 0.0, 2.0]))
    (rho_l, u_l), (rho_r, u_r) = draw_state(rng), draw_state(rng)
    if variant in ("rarefaction_contact", "shock_contact"):
        region = "I" if variant == "rarefaction_contact" else "II"
        p = draw_region_problem(rng, region, alpha, beta)
    elif variant == "delta_shock" and rng.integers(2):
        p = draw_region_problem(rng, "III", alpha, beta)
    elif variant == "delta_shock":
        p = make_problem(rho_l, max(u_l, u_r) + 0.1, rho_r, min(u_l, u_r), 0.0, alpha, beta)
    elif variant == "two_contacts_vacuum":
        p = make_problem(rho_l, min(u_l, u_r), rho_r, max(u_l, u_r) + 0.1, 0.0, alpha, beta)
    elif rng.integers(2):
        u_l, u_r = (-0.0, 0.0) if rng.integers(2) else (0.0, -0.0)
        rho_r = rho_l if rng.integers(2) else rho_r
        p = make_problem(rho_l, u_l, rho_r, u_r, 0.0, alpha, float(rng.choice([-0.0, 0.0])))
    else:
        p = make_problem(rho_l, u_l, rho_r, u_l, float(rng.uniform(0.1, 2.0)), alpha, beta)
    cfg = {
        "rho_l": p.left.rho, "u_l": p.left.v, "rho_r": p.right.rho, "u_r": p.right.v,
        "A": p.params.A, "alpha": p.params.alpha, "beta": p.params.beta,
        "x_min": float(rng.uniform(-12.0, 0.0)), "x_max": float(rng.uniform(0.5, 12.0)),
        "x_count": int(rng.integers(2, 901)),
        "times": rng.uniform(0.1, 2.0, size=int(rng.integers(1, 4))).tolist(),
    }
    if rng.integers(2):
        cfg["loc_tol"] = (cfg["x_max"] - cfg["x_min"]) / (cfg["x_count"] - 1)
    return cfg


VARIANTS = (
    "two_contacts_vacuum", "single_contact", "rarefaction_contact", "shock_contact", "delta_shock"
)


class TestSampleRuns:
    """sample writes a run of rows with one kind and equal rho and u bits in
    one join; seeded draws over every variant match the per-row writer."""

    def test_seeded_draws_match_reference_writer(self, tmp_path, capsys):
        rng = np.random.default_rng(20261021)
        seen, delta_rows, sign_cuts = set(), 0, 0
        for i in range(120):
            cfg = draw_sample_config(rng, VARIANTS[i % len(VARIANTS)])
            assert main(["sample", "--config", write_config(tmp_path, cfg)]) == 0, cfg
            out, err = capsys.readouterr()
            want = reference_sample_csv(cfg)
            assert (out, err) == (want, ""), cfg
            seen.add(sample_fan(cfg).variant)
            rows = [line.split(",") for line in want.splitlines()[1:]]
            delta_rows += sum(r[4] == "delta" for r in rows)
            sign_cuts += sum(
                a[1:3] == b[1:3] and {a[3], b[3]} == {"-0", "0"} for a, b in zip(rows, rows[1:])
            )
        assert seen == set(VARIANTS)
        assert delta_rows > 0 and sign_cuts > 0


def reference_fmt(v) -> str:
    return f"{float(v):.17g}"


class TestFmt:
    """_fmt writes every float64 exactly as the f-string spelling does."""

    SPECIALS = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
        2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max,
        math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 0.1, 1e16, 1e17, 123456789012345678.0,
    ]

    def test_specials(self):
        for v in self.SPECIALS:
            assert cli._fmt(v) == reference_fmt(v)
            assert cli._fmt(np.float64(v)) == reference_fmt(np.float64(v))

    def test_ints(self):
        for v in (0, 3, -7, 2**53 + 1):
            assert cli._fmt(v) == reference_fmt(v)

    def test_seeded_bit_patterns(self):
        bits = np.random.default_rng(16).integers(0, 2**64, size=100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert [cli._fmt(v) for v in values.tolist()] == [reference_fmt(v) for v in values.tolist()]
        assert [cli._fmt(v) for v in values] == [reference_fmt(v) for v in values]


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
        got = run_json(tmp_path, "verify", dict(REGION2_PROBLEM, quad_n=48))
        assert got["passed"] is True
        assert got["quad_n"] == 48

    @pytest.mark.parametrize("quad_n", [16, 47, 1025])
    def test_quad_n_outside_the_cli_range_exits_2(self, tmp_path, capsys, quad_n):
        # the library accepts 8 to 1024; below 48 the battery fails valid fans
        cfg = write_config(tmp_path, dict(REGION2_PROBLEM, quad_n=quad_n))
        assert main(["verify", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        want = f"config key 'quad_n' must lie in [48, 1024], got {quad_n}"
        assert err == f"error: UnsupportedQuadOrder: {want}\n"

    def test_no_true_fan_fails_at_the_lowest_cli_order(self):
        # a fan that passes every check at 128 passes at the CLI's floor too;
        # fans that fail at 128 (thin shock-contact strips) stay out of it
        lo = cli._QUAD_N_RANGE[0]
        rng = np.random.default_rng(20261018)
        graded = failed_at_16 = 0
        for _ in range(300):
            p = draw_wide_problem(rng)
            try:
                rows = fan_checks(p, quad_n=128)[1]
            except ChapgasError:
                continue
            if checks_pass(rows):
                graded += 1
                assert checks_pass(fan_checks(p, quad_n=lo)[1]), p
                failed_at_16 += not checks_pass(fan_checks(p, quad_n=16)[1])
        assert graded > 250
        # the comparison has power: at 16 the same fans fail in numbers
        assert failed_at_16 > 50

    def test_near_contact_rarefaction_passes(self, tmp_path):
        # u_r is one ulp above u_l; rounding used to store the fan tail one
        # ulp left of its head, and the tail check raised OutsideFan (exit 2)
        payload = {
            "rho_l": 0.17080778300277974,
            "u_l": -13.048470106423657,
            "rho_r": 719.3301587276704,
            "u_r": -13.048470106423656,
            "A": 3.2788710223381394,
            "alpha": 0.9436228700932762,
        }
        got = run_json(tmp_path, "verify", payload)
        assert got["passed"] is True
        assert got["variant"] == "rarefaction_contact"

    @pytest.mark.parametrize("command", ["solve", "verify", "sample", "oracle"])
    def test_near_contact_shock_has_no_traceback(self, tmp_path, capsys, command):
        # u_r is one ulp below u_l and rho* rounds to rho_l; the shock speed
        # used to divide by rho* - rho_l and raise ZeroDivisionError
        payload = {
            "rho_l": 0.8195869188610332,
            "u_l": 6.46119715452744,
            "rho_r": 326.8107863965611,
            "u_r": 6.461197154527439,
            "A": 528.2769352103344,
            "alpha": 0.7958503004166151,
            "beta": 1.8921146517615917,
            "x_min": -2.0,
            "x_max": 4.0,
            "x_count": 7,
            "times": [0.5, 1.0],
            "x_lo": -400.0,
            "x_hi": 100.0,
            "n_cells": 200,
            "t_end": 0.5,
        }
        cfg = write_config(tmp_path, payload)
        code = main([command, "--config", cfg])
        # 200 cells smear the oracle's plateau past its 2% gate (exit 3)
        assert code == (3 if command == "oracle" else 0)
        assert capsys.readouterr().err == ""
        if command == "verify":
            got = run_json(tmp_path, "verify", payload)
            assert got["passed"] is True
            assert got["variant"] == "shock_contact"


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("exclusion", -0.05),
            ("delta_window", 0.0),
            ("delta_window", -0.1),
            ("max_offset_cells", -1.0),
            ("plateau_rtol", -0.02),
            ("delta_mass_rtol", -0.15),
            ("l1_max", -1.0),
            ("l1_max", "x"),
        ],
    )
    def test_bad_gate_setting_exits_2_before_the_march(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        def march(*_args, **_kwargs):
            raise AssertionError("the finite-volume march ran")

        monkeypatch.setattr("chapgas.cli.run", march)
        cfg = write_config(tmp_path, dict(DELTA_PROBLEM, n_cells=200, **{key: value}))
        assert main(["oracle", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ValidationError" in captured.err
        assert key in captured.err

    @pytest.mark.parametrize("window", [10.0, 0.001])
    def test_delta_window_off_the_grid_exits_2_before_the_march(
        self, tmp_path, capsys, monkeypatch, window
    ):
        # 10 covers the whole domain; 0.001 holds no cell centre of 1600
        def march(*_args, **_kwargs):
            raise AssertionError("the finite-volume march ran")

        monkeypatch.setattr("chapgas.cli.run", march)
        payload = dict(DELTA_PROBLEM, n_cells=1600, delta_window=window)
        assert main(["oracle", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "WindowOutOfDomain" in captured.err

    def test_wave_window_off_the_grid_exits_2_before_the_march(self, tmp_path, capsys, monkeypatch):
        # the near-contact shock pair sits near x = 7.4 at t_end = 1, off the
        # default grid on [-2, 2]; the march used to take 37 s before the
        # offset locator found that out
        payload = {
            "rho_l": 0.8195869188610332,
            "u_l": 6.46119715452744,
            "rho_r": 326.8107863965611,
            "u_r": 6.461197154527439,
            "A": 528.2769352103344,
            "alpha": 0.7958503004166151,
            "beta": 1.8921146517615917,
        }
        calls = []
        monkeypatch.setattr("chapgas.cli.run", lambda *args, **kwargs: calls.append(args))
        assert main(["oracle", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert calls == []
        assert captured.out == ""
        # the message of the window decision on the default grid at t_end
        p = make_problem(
            payload["rho_l"], payload["u_l"], payload["rho_r"], payload["u_r"],
            a=payload["A"], alpha=payload["alpha"], beta=payload["beta"],
        )
        cfg = FvConfig(problem=p, x_lo=-2.0, x_hi=2.0, n_cells=2000, t_end=1.0)
        with pytest.raises(WindowOutOfDomain) as err:
            gate_cells(cfg, solve(p), 0.1)
        assert captured.err == f"error: WindowOutOfDomain: {err.value}\n"

    def test_empty_plateau_fails_after_the_march(self, tmp_path, monkeypatch):
        # the middle 40% of this 200-cell star segment holds no cell centre:
        # the plateau gate fails, and the window is not refused before the march
        payload = {
            "rho_l": 8.535460610760541,
            "u_l": 1.1514942895661626,
            "rho_r": 5.017851847681698,
            "u_r": 1.1161249689344999,
            "A": 0.12326344759369899,
            "alpha": 0.3,
            "beta": -1.0,
            "n_cells": 200,
            "x_lo": -0.9297783870167062,
            "x_hi": 1.545903355951206,
        }
        marched, march = [], cli.run
        monkeypatch.setattr(cli, "run", lambda cfg: marched.append(cfg) or march(cfg))
        got = run_json(tmp_path, "oracle", payload, expect=3)
        assert len(marched) == 1
        assert got["plateau"] == {"cells": 0, "ok": False}
        assert got["passed"] is False

    def test_zero_gate_settings_are_accepted(self, tmp_path):
        payload = {
            "rho_l": 2.0,
            "u_l": 0.7,
            "rho_r": 2.0,
            "u_r": 0.7,
            "A": 0.5,
            "n_cells": 200,
            "exclusion": 0.0,
            "max_offset_cells": 0.0,
            "plateau_rtol": 0.0,
            "delta_mass_rtol": 0.0,
            "l1_max": 0.0,
        }
        got = run_json(tmp_path, "oracle", payload)
        assert got["max_offset_cells"] == 0.0
        assert got["l1_max"] == 0.0
        assert got["l1_ok"] is True


class TestGridBounds:
    # a grid size past the bound exits 2 with the key named, before anything
    # is built for it (at 10**13 cells np.arange raised a raw MemoryError)
    def test_absurd_n_cells_exits_2_before_the_grid(self, tmp_path, capsys, monkeypatch):
        def built(*_args, **_kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(fv, "grid", built)
        monkeypatch.setattr(cli, "run", built)
        payload = dict(DELTA_PROBLEM, A=0.0, beta=2.0, n_cells=10**13)
        assert main(["oracle", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValidationError: n_cells must be <= {fv._MAX_CELLS}, got {10**13}\n"
        )

    def test_x_count_past_the_bound_exits_2_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # one point past the bound: were the check after the x column, a
        # million points would be built and then evaluated (10**13 would
        # exhaust memory instead of failing)
        def evaluated(*_args, **_kwargs):
            raise AssertionError("the sample grid was evaluated")

        monkeypatch.setattr(cli, "evaluate", evaluated)
        x_count = cli._MAX_X_COUNT + 1
        payload = dict(DELTA_PROBLEM, x_min=-1.0, x_max=1.0, x_count=x_count, times=[1.0])
        assert main(["sample", "--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValidationError: config key 'x_count' must be <= {cli._MAX_X_COUNT}, "
            f"got {x_count}\n"
        )


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


class TestListEntries:
    """An entry of the sample times or of the limit sweep is read as a
    config number is, and an error names the user's key."""

    @pytest.mark.parametrize(
        "command, key, literal, error, reason",
        [
            ("limit", "sweep", '[0.4, "x"]', "ValidationError", "must be a number"),
            ("limit", "sweep", "[0.4, 1e400]", "NonFiniteInput", "must be finite"),
            ("sample", "times", '[0.5, "x"]', "ValidationError", "must be a number"),
            ("sample", "times", "[0.5, 1e400]", "NonFiniteInput", "must be finite"),
        ],
    )
    def test_bad_entry_names_its_key(self, tmp_path, capsys, command, key, literal, error, reason):
        payload = dict(DELTA_PROBLEM, x_min=-1.0, x_max=1.0, x_count=5, times=[1.0])
        payload[key] = "@"
        # json.dumps cannot write 1e400 itself: it would write Infinity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload).replace('"@"', literal), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {error}: config key '{key}' {reason}\n"


class TestArgv:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, description in (
            ("solve", "print the wave-fan structure as JSON"),
            ("sample", "sample the solution on a grid, CSV"),
            ("verify", "run self-consistency checks, JSON"),
            ("oracle", "cross-check against a finite-volume run, JSON"),
            ("limit", "sweep the pressure amplitude toward its limits, JSON"),
        ):
            assert [name, *description.split()] in [line.split() for line in lines]

    def test_unknown_command_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, DELTA_PROBLEM)
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--config", cfg])
        assert exc.value.code == 2

    def test_missing_config_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2

    def test_repeated_calls_print_first_call_bytes(self, tmp_path, capsysbinary, monkeypatch):
        # the parser is kept across calls; an argparse error must not change
        # what the next call prints
        monkeypatch.setenv("COLUMNS", "80")
        cfg = write_config(tmp_path, DELTA_PROBLEM)
        argvs = [["--help"], ["integrate", "--config", cfg], ["solve"], ["solve", "--config", cfg],
                 ["verify", "--bogus"], ["--help"], ["solve", "--config", cfg]]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsysbinary.readouterr()
            return code, out.out, out.err

        def first_call(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "chapgas.cli", *argv], capture_output=True,
                env=dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(sys.path)),
            )
            return proc.returncode, proc.stdout, proc.stderr

        for _ in range(2):
            for argv in argvs:
                assert in_process(argv) == first_call(argv)


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

    @pytest.mark.parametrize("command", ["solve", "verify", "sample", "oracle"])
    def test_zero_gap_exits_2(self, tmp_path, capsys, command):
        # region-II data one ulp above the S_delta line: A/rho***alpha rounds
        # to 0, so rho* is past the float64 range
        payload = {
            "rho_l": 1.0, "u_l": 0.27243838496098977, "rho_r": 2.0,
            "u_r": 0.01584994011020891, "A": 0.25658844485078086, "alpha": 0.5,
        }
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DensityOutOfRange" in captured.err

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


class TestNonFiniteOutput:
    @pytest.mark.parametrize(
        "command, payload",
        [
            (
                "sample",
                {"rho_l": 1, "u_l": 1, "rho_r": 0.04, "u_r": 2, "A": 0.25, "beta": 1e300,
                 "x_min": -2, "x_max": 4, "x_count": 5, "times": [1e10]},
            ),
            (
                "sample",
                {"rho_l": 1, "u_l": 1, "rho_r": 1, "u_r": -1, "A": 0.25,
                 "x_min": -1.25e307, "x_max": 0, "x_count": 2, "times": [1e308]},
            ),
            (
                "sample",
                {"rho_l": 1, "u_l": 1, "rho_r": 2, "u_r": 0.8, "A": 0.25, "beta": 1,
                 "x_min": -2, "x_max": 4, "x_count": 3, "times": [1e160]},
            ),
            (
                "sample",
                {"rho_l": 1, "u_l": -3, "rho_r": 1, "u_r": 3, "A": 0.25,
                 "x_min": -2, "x_max": 4, "x_count": 3, "times": [1e308]},
            ),
            (
                "sample",
                {"rho_l": 1, "u_l": 3, "rho_r": 2, "u_r": 2.5, "A": 3,
                 "x_min": -2, "x_max": 4, "x_count": 3, "times": [1e308]},
            ),
            ("limit", {"rho_l": 1e200, "u_l": 1e200, "rho_r": 1, "u_r": 0, "A": 0}),
            ("limit", {"rho_l": 1, "u_l": 1, "rho_r": 1, "u_r": -1, "A": 0, "beta": 1e308}),
        ],
        ids=["sample-drift", "sample-delta-weight", "sample-path-offset",
             "sample-rarefaction-position", "sample-shock-position", "limit-rows",
             "limit-momentum-target"],
    )
    def test_overflow_exits_2_with_empty_stdout(self, tmp_path, capsys, command, payload):
        # each of these used to exit 0 writing inf, NaN or Infinity, or (the
        # wave positions past the float range) a NumPy overflow warning
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DensityOutOfRange" in captured.err

    def test_json_writer_refuses_non_finite_numbers(self, capsys):
        for value in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
            with pytest.raises(ValueError) as want:
                json.dumps({"value": [value]}, sort_keys=True, indent=2, allow_nan=False)
            with pytest.raises(ValueError) as got:
                cli._json_text({"value": [value]})
            assert str(got.value) == str(want.value)
            with pytest.raises(DensityOutOfRange, match="not JSON compliant"):
                cli._emit_json({"value": value}, None)
        assert capsys.readouterr().out == ""


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_JSON_VALUES)
    @example({"b": [-0.0, 5e-324, 2.2250738585072014e-308, np.float64(0.1)], "a": ((), {}, [])})
    @example({"\u00e9\u2028": 'tab\t "quote" \\ \x00 \U0001f600', "": {"z": {"y": [[]]}}})
    @example([True, False, None, 0, -(2**70), 1e300, -1.5])
    def test_matches_json_dumps_byte_for_byte(self, value):
        want = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        assert cli._json_text(value) == want


REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


class TestRegionDecidedOnce:
    """Every command places its data in the phase plane once per
    RiemannProblem it builds, when the problem is built."""

    def test_one_classification_per_problem(self, tmp_path, monkeypatch, capsys):
        counts = {"built": 0, "classified": 0}
        classify, post_init = states._classify, RiemannProblem.__post_init__

        def counting_classify(p):
            counts["classified"] += 1
            return classify(p)

        def counting_post_init(p):
            counts["built"] += 1
            post_init(p)

        monkeypatch.setattr(states, "_classify", counting_classify)
        monkeypatch.setattr(RiemannProblem, "__post_init__", counting_post_init)

        # every solve and limit ref, and a stride of the slower commands
        strides = {"solve_limit": 1, "sample_dense": 4, "verify_battery": 8, "oracle_fv": 17}
        per_command = defaultdict(list)
        for workload, stride in strides.items():
            lines = (REFS / f"{workload}.jsonl").read_text(encoding="utf-8").splitlines()
            for line in lines[::stride]:
                ref = json.loads(line)
                counts.update(built=0, classified=0)
                argv = [ref["command"], "--config", write_config(tmp_path, ref["config"])]
                assert main(argv + ["--out", str(tmp_path / "out")]) == ref["exit"]
                assert counts["classified"] == counts["built"], ref["id"]
                per_command[ref["command"]].append(counts["classified"])
        capsys.readouterr()

        assert set(per_command) == {"solve", "limit", "sample", "verify", "oracle"}
        for command in ("solve", "sample", "verify", "oracle"):
            assert set(per_command[command]) == {1}, command
        # the problem, its twelve amplitudes and, for compressive data, A = 0
        assert set(per_command["limit"]) == {13, 14}
        assert sum(per_command["limit"]) / len(per_command["limit"]) == 13.5


class TestWindowsDecidedOnce:
    """oracle decides every cell range its gates read once, on the grid and
    before the march: each located wave's search window, the delta-mass
    window and the plateau. After the march the gates read those cells and
    search nothing, and the exact profile is sampled only for the L1 error.
    Each window is one np.flatnonzero over the cell centres."""

    @pytest.mark.parametrize(
        "payload, windows",
        [
            # the delta's offset window and its mass window
            (dict(DELTA_PROBLEM, n_cells=800), 2),
            # the S1 and J offset windows and the plateau
            (dict(REGION2_PROBLEM, x_lo=-1.5, x_hi=2.5, n_cells=500), 3),
        ],
        ids=["delta", "shock_contact"],
    )
    def test_one_search_per_window_before_the_march(self, tmp_path, monkeypatch, payload, windows):
        searches, profiled, marched = [], [], []
        flatnonzero, profile, march = np.flatnonzero, waves._profile, cli.run

        def counting_flatnonzero(a):
            if sys._getframe(1).f_globals["__name__"] == "chapgas.fv":
                searches.append("after" if marched else "before")
            return flatnonzero(a)

        def counting_profile(*args):
            profiled.append(sys._getframe(1).f_code.co_name)
            return profile(*args)

        def marking_run(cfg):
            state = march(cfg)
            marched.append(cfg)
            return state

        monkeypatch.setattr(np, "flatnonzero", counting_flatnonzero)
        monkeypatch.setattr(fv, "_profile", counting_profile)
        monkeypatch.setattr(waves, "_profile", counting_profile)
        monkeypatch.setattr(cli, "run", marking_run)
        got = run_json(tmp_path, "oracle", payload)
        assert len(marched) == 1
        assert searches == ["before"] * windows
        assert profiled == ["compare_to_exact"]
        gated = [got["delta_mass"], got["plateau"]]
        assert len(got["offsets"]) + sum(g is not None for g in gated) == windows
