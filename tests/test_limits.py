"""Amplitude thresholds, concentration integrals, and limit studies."""

import numpy as np
import pytest

from chapgas import (
    AlphaOutOfRange,
    CaseMismatch,
    LimitReport,
    Region,
    RegionMismatch,
    ValidationError,
    classify_region,
    concentration_integrals,
    default_sweep,
    limit_study,
    solve,
    thresholds,
)
from helpers import make_problem

COMPRESSIVE = make_problem(1.0, 1.0, 1.0, 0.5, a=0.6)
PRESSURELESS_REF = make_problem(4.0, 1.0, 1.0, 0.0, a=0.25, beta=2.0)


class TestThresholds:
    def test_unit_density(self):
        assert thresholds(COMPRESSIVE) == (0.5, 1.0)

    def test_classification_straddles_lower_threshold(self):
        assert classify_region(make_problem(1.0, 1.0, 1.0, 0.5, a=0.75)) is Region.II
        assert classify_region(make_problem(1.0, 1.0, 1.0, 0.5, a=0.4)) is Region.III

    def test_degenerate_pair_at_zero_right_velocity(self):
        assert thresholds(make_problem(4.0, 1.0, 1.0, 0.0, a=0.25)) == (2.0, 2.0)

    def test_vanishing_jump(self):
        a0, _ = thresholds(make_problem(1.0, 1.0, 1.0, 1.0 - 1e-8, a=0.1))
        assert a0 == pytest.approx(1e-8, rel=1e-6)

    def test_rejects_noncompressive_data(self):
        with pytest.raises(CaseMismatch):
            thresholds(make_problem(1.0, 0.5, 1.0, 1.0, a=0.1))
        with pytest.raises(CaseMismatch):
            thresholds(make_problem(1.0, 1.0, 1.0, 1.0, a=0.1))

    def test_rejects_unusable_exponent(self):
        with pytest.raises(AlphaOutOfRange):
            thresholds(make_problem(1.0, 1.0, 1.0, 0.5, a=0.0, alpha=1.5))

    def test_consistency_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho_l = float(rng.uniform(0.1, 10.0))
            u_r = float(rng.uniform(0.1, 4.0))
            u_l = u_r + float(rng.uniform(0.1, 4.0))
            alpha = float(rng.choice([0.3, 0.5, 0.8]))
            base = make_problem(rho_l, u_l, 1.0, u_r, a=1.0, alpha=alpha)
            a0, a1 = thresholds(base)
            assert 0.0 < a0 < a1
            below = make_problem(rho_l, u_l, 1.0, u_r, a=0.9 * a0, alpha=alpha)
            assert classify_region(below) is Region.III
            above = make_problem(
                rho_l, u_l, 1.0, u_r, a=0.5 * (a0 + a1), alpha=alpha
            )
            assert classify_region(above) is Region.II


class TestConcentrationIntegrals:
    def test_plateau_mass(self):
        # rho_star = (0.6 / 0.1)**2 = 36, mass = 36 * 0.5 / 35
        mass, momentum = concentration_integrals(COMPRESSIVE, 0.6, 1.0)
        assert mass == pytest.approx(18.0 / 35.0, rel=1e-13)
        assert momentum == pytest.approx(9.0 / 35.0, rel=1e-13)

    def test_zero_time(self):
        assert concentration_integrals(COMPRESSIVE, 0.6, 0.0) == (0.0, 0.0)

    def test_momentum_tracks_drifted_contact_velocity(self):
        drifted = make_problem(1.0, 1.0, 1.0, 0.5, a=0.6, beta=2.0)
        mass, momentum = concentration_integrals(drifted, 0.6, 1.0)
        assert momentum == pytest.approx(mass * 2.5, rel=1e-13)

    def test_rejects_subthreshold_amplitude(self):
        with pytest.raises(RegionMismatch):
            concentration_integrals(COMPRESSIVE, 0.4, 1.0)

    def test_mass_converges_to_transported_jump(self):
        errors = []
        for k in range(9):
            a = 0.5 + 0.4 * 2.0**-k
            mass, _ = concentration_integrals(COMPRESSIVE, a, 1.0)
            errors.append(abs(mass - 0.5))
        assert all(cur <= 1.1 * prev for prev, cur in zip(errors, errors[1:]))
        assert errors[-1] < 1e-5

    def test_shock_and_contact_speeds_collapse_together(self):
        for k in (4, 8, 12):
            a = 0.5 * (1.0 + 2.0**-k)
            fan = solve(make_problem(1.0, 1.0, 1.0, 0.5, a=a))
            assert abs(fan.path("S1").speed(1.0) - 0.5) <= 2.0**-k
            assert fan.path("J").speed(1.0) == 0.5


class TestDefaultSweep:
    def test_compressive_starts_below_threshold(self):
        sweep = default_sweep(COMPRESSIVE)
        assert len(sweep) == 12
        assert sweep[0] == pytest.approx(0.45, rel=1e-15)
        assert all(b == pytest.approx(0.5 * a, rel=1e-15) for a, b in zip(sweep, sweep[1:]))

    def test_expansive_starts_at_unit_amplitude(self):
        sweep = default_sweep(make_problem(1.0, 0.0, 1.0, 1.0), n=5)
        assert sweep[0] == 1.0
        assert len(sweep) == 5


class TestLimitStudy:
    def test_expansion_star_density_vanishes(self):
        rep = limit_study(make_problem(1.0, 0.0, 1.0, 1.0))
        assert isinstance(rep, LimitReport)
        assert rep.case == "expansion"
        assert rep.targets == {"x_left": 0.0, "x_right": 1.0, "rho_star": 0.0}
        for row in rep.rows:
            a = row["A"]
            assert row["region"] == "I"
            assert row["rho_star"] == pytest.approx((a / (1.0 + a)) ** 2, rel=1e-12)
        assert rep.rates["rho_star"] == pytest.approx(2.0, abs=0.2)
        assert rep.rates["head_gap"] == pytest.approx(1.0, abs=0.1)

    def test_contact_is_amplitude_independent(self):
        rep = limit_study(make_problem(2.0, 0.7, 1.0, 0.7, a=0.3))
        assert rep.case == "contact"
        assert rep.targets == {"contact_speed": 0.7}
        assert {row["contact_speed"] for row in rep.rows} == {0.7}

    def test_compression_targets_and_rates(self):
        rep = limit_study(PRESSURELESS_REF)
        assert rep.case == "compression"
        assert rep.targets["v_delta"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert rep.targets["w0"] == 2.0
        assert rep.targets["mass"] == 4.0
        assert rep.targets["momentum"] == 8.0
        assert rep.targets["A0"] == 2.0
        assert rep.rates["v_delta_err"] >= 0.9
        assert rep.rates["w0_err"] >= 0.9

    def test_compression_sweep_crossing_threshold(self):
        rep = limit_study(PRESSURELESS_REF, sweep=[2.5, 2.125, 1.0, 0.5])
        regions = [row["region"] for row in rep.rows]
        assert regions == ["II", "II", "III", "III"]
        ii_rows = rep.rows[:2]
        assert ii_rows[1]["mass_err"] < ii_rows[0]["mass_err"]
        assert all("v_delta" in row for row in rep.rows[2:])

    def test_delta_errors_shrink_linearly(self):
        rep = limit_study(PRESSURELESS_REF, sweep=[1.0, 0.5, 0.25, 0.125])
        for row in rep.rows:
            assert row["v_delta_err"] == pytest.approx(row["A"] / 3.0, rel=1e-12)
            assert row["w0_err"] == pytest.approx(row["A"], rel=1e-12)

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ValidationError):
            limit_study(PRESSURELESS_REF, sweep=[])
        with pytest.raises(ValidationError):
            limit_study(PRESSURELESS_REF, sweep=[1.0, -0.5])
        with pytest.raises(ValidationError):
            limit_study(PRESSURELESS_REF, sweep=[0.5, 1.0])
        with pytest.raises(ValidationError):
            limit_study(PRESSURELESS_REF, sweep=[1.0, 1.0])
