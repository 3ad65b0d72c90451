"""Delta-shock construction: closed forms and GRH identities."""

import dataclasses

import numpy as np
import pytest

from chapgas import (
    DeltaShockWave,
    ParabolicPath,
    RegionMismatch,
    c_identity_residual,
    entropy_check,
    grh_residual,
    make_delta_wave,
    problem_scale,
    speed_quadratic_residual,
)
from helpers import draw_region_problem, make_problem

# Equal densities, symmetric velocities: v_delta and w0 in closed form.
EQUAL_DENSITY = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, alpha=0.5)
# No pressure, compressive: the weight rate is sqrt(rho_l rho_r) (u_l - u_r).
PRESSURELESS = make_problem(4.0, 1.0, 1.0, 0.0)


def region3_sweep(n=50, alphas=(0.3, 0.5, 0.8), betas=(-1.0, 0.0, 2.0)):
    rng = np.random.default_rng(11)
    out = []
    for alpha in alphas:
        for beta in betas:
            out.extend(draw_region_problem(rng, "III", alpha, beta) for _ in range(n))
    return out


class TestClosedForms:
    def test_equal_density_speed(self):
        assert make_delta_wave(EQUAL_DENSITY).v_delta == -0.125

    def test_equal_density_weight_rate(self):
        assert make_delta_wave(EQUAL_DENSITY).w0 == 2.0

    def test_pressureless_speed(self):
        assert make_delta_wave(PRESSURELESS).v_delta == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_pressureless_weight_rate(self):
        assert make_delta_wave(PRESSURELESS).w0 == pytest.approx(2.0, rel=1e-15)

    def test_weight_rate_at_coalescence_boundary(self):
        # u_r = u_l - A/rho^alpha with equal densities: w0 = A * rho**(1 - alpha)
        p = make_problem(1.0, 1.0, 1.0, 0.5, a=0.5, alpha=0.5)
        wave = make_delta_wave(p)
        assert wave.w0 == 0.5
        assert wave.v_delta == 0.5
        assert entropy_check(p, wave)

    def test_beta_does_not_enter_coefficients(self):
        drifted = make_delta_wave(make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0))
        still = make_delta_wave(PRESSURELESS)
        assert (drifted.v_delta, drifted.w0) == (still.v_delta, still.w0)

    def test_weight_positive_in_interior(self):
        for p in region3_sweep(20):
            assert make_delta_wave(p).w0 > 0.0

    def test_rejects_region_one_data(self):
        with pytest.raises(RegionMismatch):
            make_delta_wave(make_problem(1.0, 0.0, 1.0, 1.0, a=0.5))

    def test_rejects_region_two_data(self):
        with pytest.raises(RegionMismatch):
            make_delta_wave(make_problem(1.0, 1.0, 1.0, 0.8, a=0.5))

    def test_rejects_pressureless_expansion(self):
        with pytest.raises(RegionMismatch):
            make_delta_wave(make_problem(1.0, 0.0, 1.0, 1.0))


class TestWaveApi:
    def test_kinematics(self):
        wave = DeltaShockWave(ParabolicPath(c=0.5, beta=1.0), w0=2.0)
        assert [f.name for f in dataclasses.fields(wave)] == ["path", "w0"]
        assert wave.v_delta == 0.5
        assert wave.path.speed(2.0) == 2.5
        assert wave.path.position(2.0) == 3.0
        assert wave.weight(3.0) == 6.0
        for gone in ("sigma", "u_delta", "position", "beta"):
            assert not hasattr(wave, gone)

    def test_pressureless_reference_trajectory(self):
        wave = make_delta_wave(make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0))
        assert wave.path == ParabolicPath(c=wave.v_delta, beta=2.0)
        assert wave.path.position(1.0) == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert wave.weight(1.0) == pytest.approx(2.0, rel=1e-15)


class TestGrhResidual:
    def test_pressureless_with_friction(self):
        p = make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0)
        wave = make_delta_wave(p)
        r1, r2, r3 = grh_residual(p, wave, 1.0)
        assert r1 == 0.0
        assert abs(r2) <= 1e-10
        assert abs(r3) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 5.0])
    def test_equal_density_example(self, t):
        wave = make_delta_wave(EQUAL_DENSITY)
        r1, r2, r3 = grh_residual(EQUAL_DENSITY, wave, t)
        assert r1 == 0.0
        assert abs(r2) <= 1e-10
        assert abs(r3) <= 1e-10

    def test_sweep(self):
        for p in region3_sweep(15):
            wave = make_delta_wave(p)
            s = problem_scale(p)
            for t in (0.0, 1.0, 10.0):
                r1, r2, r3 = grh_residual(p, wave, t)
                assert r1 == 0.0
                assert abs(r2) <= 1e-10 * s**2
                assert abs(r3) <= 1e-10 * s**3

    def test_wrong_speed_breaks_momentum_balance(self):
        # equal densities keep r2 speed-independent, so only r3 reacts
        wave = make_delta_wave(EQUAL_DENSITY)
        bad = DeltaShockWave(ParabolicPath(wave.v_delta + 0.1, wave.path.beta), wave.w0)
        r1, r2, r3 = grh_residual(EQUAL_DENSITY, bad, 1.0)
        assert r1 == 0.0
        assert r2 == 0.0
        assert abs(r3) > 1e-3

    def test_wrong_weight_breaks_both_jump_equations(self):
        wave = make_delta_wave(EQUAL_DENSITY)
        bad = DeltaShockWave(wave.path, wave.w0 * 1.1)
        r1, r2, r3 = grh_residual(EQUAL_DENSITY, bad, 1.0)
        assert r1 == 0.0
        assert abs(r2) > 1e-3
        assert abs(r3) > 1e-3

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_wrong_drift_breaks_path_equation(self, t):
        # sigma(t) takes the problem's beta, so a path drifting with
        # another beta misses it by (beta' - beta) t
        p = make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0)
        wave = make_delta_wave(p)
        bad = DeltaShockWave(ParabolicPath(wave.v_delta, 2.5), wave.w0)
        r1, _, _ = grh_residual(p, bad, t)
        assert r1 == pytest.approx(0.5 * t, rel=1e-12)


class TestEntropy:
    def test_equal_density_example(self):
        wave = make_delta_wave(EQUAL_DENSITY)
        assert entropy_check(EQUAL_DENSITY, wave)

    def test_bracket(self):
        # u_r <= v_delta <= u_l - A/rho_l**alpha in the region interior
        for p in region3_sweep(15):
            wave = make_delta_wave(p)
            g = p.params
            assert p.right.v <= wave.v_delta <= p.left.v - g.chap(p.left.rho)

    def test_swapped_states_fail(self):
        swapped = make_problem(1.0, -1.0, 1.0, 1.0, a=0.25, alpha=0.5)
        wave = make_delta_wave(EQUAL_DENSITY)
        assert not entropy_check(swapped, wave)


class TestQuadraticResidual:
    def test_equal_density_example(self):
        wave = make_delta_wave(EQUAL_DENSITY)
        assert speed_quadratic_residual(EQUAL_DENSITY, wave) == 0.0

    def test_sweep(self):
        for p in region3_sweep(15):
            wave = make_delta_wave(p)
            s = problem_scale(p)
            assert abs(speed_quadratic_residual(p, wave)) <= 1e-10 * s**3

    def test_detects_wrong_root(self):
        wave = make_delta_wave(EQUAL_DENSITY)
        bad = DeltaShockWave(ParabolicPath(wave.v_delta + 0.1, wave.path.beta), wave.w0)
        assert abs(speed_quadratic_residual(EQUAL_DENSITY, bad)) > 1e-3


class TestCIdentity:
    def test_equal_density_with_friction(self):
        p = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, alpha=0.5, beta=0.5)
        wave = make_delta_wave(p)
        assert c_identity_residual(p, wave, 1.0) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0, 7.0])
    def test_frictionless(self, t):
        wave = make_delta_wave(EQUAL_DENSITY)
        assert c_identity_residual(EQUAL_DENSITY, wave, t) == 0.0

    def test_sweep(self):
        for p in region3_sweep(15):
            wave = make_delta_wave(p)
            s = problem_scale(p)
            for t in (0.0, 1.0, 10.0):
                assert abs(c_identity_residual(p, wave, t)) <= 1e-10 * s**3

    def test_matches_negated_third_grh_residual(self):
        # same identity transcribed independently, so agreement is to round-off
        for p in region3_sweep(3):
            wave = make_delta_wave(p)
            s = problem_scale(p)
            r3 = grh_residual(p, wave, 2.0)[2]
            residual = c_identity_residual(p, wave, 2.0)
            assert residual == pytest.approx(-r3, abs=1e-12 * s**3)


class TestSeams:
    def test_density_seam_linear(self):
        eq = make_delta_wave(EQUAL_DENSITY)
        for eps in (1e-5, 1e-7, 1e-9, -1e-5, -1e-9):
            wave = make_delta_wave(make_problem(1.0, 1.0, 1.0 + eps, -1.0, a=0.25, alpha=0.5))
            assert abs(wave.v_delta - eq.v_delta) <= 2.0 * abs(eps)
            assert abs(wave.w0 - eq.w0) <= 2.0 * abs(eps)

    def test_pressure_seam_linear(self):
        # A = 10**-k approaches the pressureless coefficients at rate O(A)
        still = make_delta_wave(PRESSURELESS)
        for k in range(2, 9):
            a = 10.0**-k
            wave = make_delta_wave(make_problem(4.0, 1.0, 1.0, 0.0, a=a, alpha=0.5))
            assert abs(wave.v_delta - still.v_delta) <= 2.0 * a
            assert abs(wave.w0 - still.w0) <= 2.0 * a

