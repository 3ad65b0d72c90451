"""Check assembly shared by the CLI verify command and the acceptance suite."""

from dataclasses import replace

import numpy as np
import pytest

from chapgas import (
    CheckRow,
    ParabolicPath,
    ValidationError,
    checks_pass,
    fan_checks,
    solve,
    verify,
)
from helpers import draw_region_problem, make_problem

VACUUM = make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0)
CONTACT = make_problem(2.0, 0.5, 1.0, 0.5, a=0.5)
RAREFACTION = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0)
SHOCK = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5)
DELTA = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0)

ALL = [VACUUM, CONTACT, RAREFACTION, SHOCK, DELTA]


def names(rows):
    return [row.name for row in rows]


class TestFanChecks:
    @pytest.mark.parametrize("p", ALL)
    def test_constructed_fans_pass(self, p):
        _, rows = fan_checks(p)
        assert rows
        assert checks_pass(rows)

    @pytest.mark.parametrize("p", ALL)
    def test_row_names_unique(self, p):
        _, rows = fan_checks(p)
        assert len(set(names(rows))) == len(rows)

    def test_row_shape(self):
        _, rows = fan_checks(CONTACT)
        row = rows[0]
        assert isinstance(row, CheckRow)
        assert set(row.__dataclass_fields__) == {"name", "value", "tol", "ok"}

    def test_contact_checks_jump_conditions_at_three_times(self):
        _, rows = fan_checks(CONTACT)
        got = [n for n in names(rows) if n.startswith("rh.J.")]
        assert got == [
            "rh.J.mass.t0",
            "rh.J.momentum.t0",
            "rh.J.mass.t1",
            "rh.J.momentum.t1",
            "rh.J.mass.t10",
            "rh.J.momentum.t10",
        ]

    def test_rarefaction_checks_edges_and_star(self):
        _, rows = fan_checks(RAREFACTION)
        got = set(names(rows))
        assert {"star.invariant", "star.speed", "fan.head.match", "fan.tail.match"} <= got
        assert {"order.fan", "order.contact"} <= got

    def test_shock_checks_lax_and_both_waves(self):
        _, rows = fan_checks(SHOCK)
        got = set(names(rows))
        assert "lax.margin" in got
        assert any(n.startswith("rh.S1.") for n in got)
        assert any(n.startswith("rh.J.") for n in got)

    def test_delta_checks_cover_grh_entropy_quadratic(self):
        _, rows = fan_checks(DELTA)
        got = set(names(rows))
        for stem in ("grh.path", "grh.weight", "grh.momentum", "delta.source"):
            assert {f"{stem}.t0", f"{stem}.t1", f"{stem}.t10"} <= got
        assert "delta.entropy" in got
        assert "delta.quadratic" in got

    def test_entropy_margin_nonnegative_in_region_interior(self):
        _, rows = fan_checks(DELTA)
        margin = next(r for r in rows if r.name == "delta.entropy")
        assert margin.value >= 0.0
        assert margin.ok

    def test_battery_rows_present_for_every_fan(self):
        for p in ALL:
            _, rows = fan_checks(p)
            weak = [n for n in names(rows) if n.startswith("weak.psi")]
            assert len(weak) == 10

    def test_lower_quadrature_order_grows_weak_residuals(self):
        _, coarse = fan_checks(SHOCK, quad_n=16)
        _, fine = fan_checks(SHOCK, quad_n=64)
        worst_coarse = max(abs(r.value) for r in coarse if r.name.startswith("weak."))
        worst_fine = max(abs(r.value) for r in fine if r.name.startswith("weak."))
        assert worst_fine < worst_coarse

    def test_random_problems_pass(self):
        rng = np.random.default_rng(23)
        for region in ("I", "II", "III"):
            for _ in range(3):
                p = draw_region_problem(rng, region, 0.5, 0.0)
                _, rows = fan_checks(p, quad_n=32)
                bad = [r for r in rows if not r.ok and not r.name.startswith("weak.")]
                assert not bad


class TestSabotage:
    def test_perturbed_weight_fails_the_right_checks(self):
        fan, rows = fan_checks(DELTA, w0_factor=1.1)
        assert not checks_pass(rows)
        failed = {r.name for r in rows if not r.ok}
        assert any(n.startswith("grh.weight") for n in failed)
        assert any(n.startswith("delta.source") for n in failed)
        assert any(n.startswith("weak.") for n in failed)
        passed_paths = [r for r in rows if r.name.startswith("grh.path")]
        assert all(r.ok for r in passed_paths)

    def test_path_with_foreign_drift_fails_grh_path(self, monkeypatch):
        # sigma(t) takes the problem's beta, so a delta whose path drifts
        # with another beta misses it by 0.5 t on every grh.path row past t = 0
        fan = solve(DELTA)
        path = ParabolicPath(fan.delta.v_delta, DELTA.params.beta + 0.5)
        drifted = replace(fan, delta=replace(fan.delta, path=path))
        monkeypatch.setattr(verify, "solve", lambda p: drifted)
        _, rows = fan_checks(DELTA, quad_n=16)
        paths = {r.name: r for r in rows if r.name.startswith("grh.path")}
        assert paths["grh.path.t0"].value == 0.0
        late = [r for name, r in paths.items() if name != "grh.path.t0"]
        assert late
        assert all(not r.ok and r.value != 0.0 for r in late)

    def test_rejected_for_fans_without_delta(self):
        with pytest.raises(ValidationError):
            fan_checks(RAREFACTION, w0_factor=1.1)


class TestChecksPass:
    def test_empty_is_vacuously_true(self):
        assert checks_pass([])

    def test_single_failure_flips_verdict(self):
        good = CheckRow("a", 0.0, 1.0, True)
        bad = CheckRow("b", 2.0, 1.0, False)
        assert checks_pass([good])
        assert not checks_pass([good, bad])
