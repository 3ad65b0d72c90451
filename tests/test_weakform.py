"""Distributional weak-form residuals and the test-function battery."""

import math
from dataclasses import replace

import numpy as np
import pytest

from chapgas import (
    DeltaShockWave,
    NonFiniteInput,
    TestFunction,
    UnsupportedQuadOrder,
    ValidationError,
    problem_scale,
    residual_battery,
    solve,
    wave_paths,
    weak_residual,
)
from chapgas.waves import _profile
from chapgas.weakform import _bump_pair, _check_order, _crossing_times, _gauss
from helpers import make_problem

REGION1 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0)
REGION2 = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5)
REGION3 = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0)
PLESS_DELTA = make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0)
VACUUM = make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0)
CONTACT = make_problem(2.0, 0.5, 1.0, 0.5, a=0.5)

ALL_FANS = [REGION1, REGION2, REGION3, PLESS_DELTA, VACUUM, CONTACT]


def battery_maxima(p, orders):
    """Worst |R| over the battery, one entry per quadrature order."""
    fan = solve(p)
    battery = residual_battery(fan)
    out = []
    for n in orders:
        worst = 0.0
        for psi in battery:
            r1, r2 = weak_residual(p, fan, psi, n)
            worst = max(worst, abs(r1), abs(r2))
        out.append(worst)
    return out


def reference_bump(s):
    """The bump as one factor per pass: exp(-1/(1-s^2)) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def reference_dbump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    g = 1.0 - si * si
    out[inside] = np.exp(-1.0 / g) * (-2.0 * si / (g * g))
    return out


def reference_weak_residual(p, fan, psi, quad_n):
    """weak_residual evaluating psi.value/dx/dt on the fully broadcast T grid."""
    n = _check_order(quad_n)
    g = p.params
    nodes, wts = _gauss(n)
    t_lo, t_hi = psi.t0 - psi.rt, psi.t0 + psi.rt
    x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
    paths = [path for _, path in wave_paths(fan)]
    cuts = {t_lo, t_hi}
    for path in paths:
        for edge in (x_lo, x_hi):
            cuts.update(_crossing_times(path.c, g.beta, edge, t_lo, t_hi))
    panels = sorted(cuts)
    r1 = 0.0
    r2 = 0.0
    for ta, tb in zip(panels[:-1], panels[1:]):
        if tb <= ta:
            continue
        tj = 0.5 * (ta + tb) + 0.5 * (tb - ta) * nodes
        wj = 0.5 * (tb - ta) * wts
        half = 0.5 * g.beta * tj * tj
        rows = [np.full(tj.shape, x_lo)]
        for path in paths:
            rows.append(np.clip(path.c * tj + half, x_lo, x_hi))
        rows.append(np.full(tj.shape, x_hi))
        for lo, hi in zip(rows[:-1], rows[1:]):
            width = hi - lo
            if not np.any(width > 0.0):
                continue
            X = lo[:, None] + width[:, None] * (0.5 * (nodes[None, :] + 1.0))
            T = np.broadcast_to(tj[:, None], X.shape)
            W = (wj * 0.5 * width)[:, None] * wts[None, :]
            rho, u = _profile(fan, X, T)
            mom = rho * u - g.A * rho ** (1.0 - g.alpha)
            psi_t = psi.dt(X, T)
            psi_x = psi.dx(X, T)
            r1 += float(np.sum(W * (rho * psi_t + rho * u * psi_x)))
            r2 += float(
                np.sum(W * (mom * psi_t + mom * u * psi_x + g.beta * rho * psi.value(X, T)))
            )
        if fan.variant == "delta_shock":
            d = fan.delta
            xt = d.position(tj)
            wt = d.weight(tj)
            ud = d.u_delta(tj)
            along = psi.dt(xt, tj) + ud * psi.dx(xt, tj)
            r1 += float(np.sum(wj * wt * along))
            r2 += float(np.sum(wj * (wt * ud * along + g.beta * wt * psi.value(xt, tj))))
    return r1, r2


class TestTestFunction:
    def test_support_and_symmetry(self):
        psi = TestFunction(x0=1.0, t0=2.0, rx=0.5, rt=1.0)
        assert psi.value(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert psi.value(1.5, 2.0) == 0.0
        assert psi.value(1.0, 3.0) == 0.0
        assert psi.value(0.6, 2.0) == pytest.approx(psi.value(1.4, 2.0), rel=1e-12)

    def test_derivatives_vanish_outside(self):
        psi = TestFunction(x0=0.0, t0=1.0, rx=1.0, rt=0.5)
        assert psi.dx(1.0, 1.0) == 0.0
        assert psi.dt(0.0, 1.5) == 0.0
        assert psi.dx(-0.5, 1.0) > 0.0
        assert psi.dt(0.0, 1.2) < 0.0

    def test_rejects_support_touching_zero_time(self):
        with pytest.raises(ValidationError):
            TestFunction(x0=0.0, t0=1.0, rx=1.0, rt=1.0)

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValidationError):
            TestFunction(x0=0.0, t0=1.0, rx=0.0, rt=0.5)
        with pytest.raises(ValidationError):
            TestFunction(x0=0.0, t0=1.0, rx=1.0, rt=-0.5)

    def test_rejects_nonfinite_fields(self):
        with pytest.raises(NonFiniteInput):
            TestFunction(x0=float("nan"), t0=1.0, rx=1.0, rt=0.5)


class TestExactness:
    """The per-strip factor reuse must not change a single bit."""

    EDGES = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.5, 0.5, 0.0])

    def test_pair_matches_reference_factors(self):
        s = np.concatenate((self.EDGES, -self.EDGES, [1.0 - 1e-3, 0.999999, 7.0]))
        b, db = _bump_pair(s)
        assert np.array_equal(b, reference_bump(s))
        assert np.array_equal(db, reference_dbump(s))

    def test_value_and_derivatives_match_reference(self):
        psi = TestFunction(x0=0.0, t0=2.0, rx=1.0, rt=1.0)
        # s = x exactly; s = t - 2 lands within one ulp of 3 on either edge of the support
        x = np.concatenate((self.EDGES, -self.EDGES, [0.3, -0.7, 4.0]))
        t = np.array([1.0, 3.0, np.nextafter(3.0, 0.0), np.nextafter(3.0, 4.0), 2.2, 2.0, 0.5])
        X, T = np.meshgrid(x, t)
        bx, dbx = reference_bump(X), reference_dbump(X)
        bt, dbt = reference_bump(T - 2.0), reference_dbump(T - 2.0)
        assert np.array_equal(psi.value(X, T), bx * bt)
        assert np.array_equal(psi.dx(X, T), dbx / 1.0 * bt)
        assert np.array_equal(psi.dt(X, T), bx * (dbt / 1.0))

    @pytest.mark.parametrize("quad_n", [64, 128])
    @pytest.mark.parametrize("p", ALL_FANS)
    def test_battery_equals_reference(self, p, quad_n):
        fan = solve(p)
        for psi in residual_battery(fan):
            got = weak_residual(p, fan, psi, quad_n)
            assert got == reference_weak_residual(p, fan, psi, quad_n)

    def test_sabotaged_delta_equals_reference(self):
        fan = solve(REGION3)
        bad = replace(fan, delta=replace(fan.delta, w0=fan.delta.w0 * 1.1))
        battery = residual_battery(fan)
        got = [weak_residual(REGION3, bad, psi, 64) for psi in battery]
        assert got == [reference_weak_residual(REGION3, bad, psi, 64) for psi in battery]
        assert got[0] != weak_residual(REGION3, fan, battery[0], 64)


class TestQuadOrderGuard:
    @pytest.mark.parametrize("bad", [True, 16.0, "32", 4, 2048, 7])
    def test_rejected_orders(self, bad):
        fan = solve(CONTACT)
        psi = TestFunction(x0=0.5, t0=1.0, rx=1.0, rt=0.5)
        with pytest.raises(UnsupportedQuadOrder):
            weak_residual(CONTACT, fan, psi, bad)

    def test_bounds_accepted(self):
        fan = solve(CONTACT)
        psi = TestFunction(x0=0.5, t0=1.0, rx=1.0, rt=0.5)
        weak_residual(CONTACT, fan, psi, 8)
        weak_residual(CONTACT, fan, psi, 128)


class TestResiduals:
    def test_constant_data_machine_zero(self):
        p = make_problem(2.0, 0.5, 2.0, 0.5, a=0.5)
        fan = solve(p)
        psi = TestFunction(x0=0.3, t0=1.0, rx=1.5, rt=0.5)
        r1, r2 = weak_residual(p, fan, psi, 64)
        s = problem_scale(p)
        assert abs(r1) <= 1e-12 * s**2
        assert abs(r2) <= 1e-12 * s**3

    @pytest.mark.parametrize("p", ALL_FANS)
    def test_battery_small_at_64(self, p):
        worst = battery_maxima(p, [64])[0]
        assert worst <= 1e-6 * problem_scale(p) ** 3

    @pytest.mark.parametrize("p", ALL_FANS)
    def test_battery_decreases_16_to_128(self, p):
        seq = battery_maxima(p, [16, 32, 64, 128])
        floor = 1e-12 * problem_scale(p) ** 3
        for prev, cur in zip(seq[:-1], seq[1:]):
            assert cur <= 1.1 * prev or cur <= floor

    def test_delta_fan_halving_order_gains_four_x(self):
        fan = solve(REGION3)
        psi = residual_battery(fan)[0]
        r32 = max(map(abs, weak_residual(REGION3, fan, psi, 32)))
        r64 = max(map(abs, weak_residual(REGION3, fan, psi, 64)))
        assert r64 <= r32 / 4.0

    def test_deterministic(self):
        fan = solve(REGION2)
        psi = residual_battery(fan)[2]
        assert weak_residual(REGION2, fan, psi, 32) == weak_residual(
            REGION2, fan, psi, 32
        )

    def test_sabotaged_weight_keeps_momentum_residual_large(self):
        fan = solve(REGION3)
        bad_delta = DeltaShockWave(fan.delta.v_delta, fan.delta.w0 * 1.1, fan.delta.beta)
        bad = replace(fan, delta=bad_delta)
        psi = residual_battery(fan)[0]
        r2_seq = [abs(weak_residual(REGION3, bad, psi, n)[1]) for n in (32, 64, 128)]
        assert all(r > 1e-3 for r in r2_seq)
        # the defect converges to the analytic violation, not to zero
        assert r2_seq[2] == pytest.approx(r2_seq[1], rel=1e-6)


class TestBattery:
    @pytest.mark.parametrize("p", ALL_FANS)
    def test_five_bumps_supported_in_positive_time(self, p):
        battery = residual_battery(solve(p))
        assert len(battery) == 5
        for psi in battery:
            assert isinstance(psi, TestFunction)
            assert psi.t0 - psi.rt > 0.0

    def test_wide_bump_covers_every_wave(self):
        fan = solve(REGION2)
        wide = residual_battery(fan)[0]
        for _, path in wave_paths(fan):
            assert abs(path.position(1.0) - wide.x0) < wide.rx

    def test_delta_fan_has_bump_on_trajectory(self):
        fan = solve(REGION3)
        assert fan.variant == "delta_shock"
        x_delta = fan.delta.position(1.0)
        battery = residual_battery(fan)
        assert any(abs(psi.x0 - x_delta) < 1e-12 for psi in battery)
