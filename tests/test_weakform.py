"""Distributional weak-form residuals and the test-function battery."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from chapgas import (
    ChapgasError,
    DeltaShockWave,
    NonFiniteInput,
    TestFunction,
    UnsupportedQuadOrder,
    ValidationError,
    problem_scale,
    residual_battery,
    solve,
    weak_residual,
)
from chapgas import weakform
from chapgas.waves import _profile
from chapgas.weakform import _bump_pair, _check_order, _crossing_times, _gauss, _work
from helpers import make_problem

REGION1 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0)
REGION2 = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5)
REGION3 = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0)
PLESS_DELTA = make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0)
VACUUM = make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0)
CONTACT = make_problem(2.0, 0.5, 1.0, 0.5, a=0.5)

ALL_FANS = [REGION1, REGION2, REGION3, PLESS_DELTA, VACUUM, CONTACT]

# thin region-II shock-contact strips: a few nodes of the star strip round
# onto its edges, so those strips must keep the per-point profile
THIN_FAIL_TO_PASS = make_problem(
    2.3654770044225333, 8.28080064205011, 11.729740163780688, 1.4101975692004238,
    a=11.856959214450118, alpha=0.028655694282015823, beta=2.498937130399818,
)
THIN_PASS_TO_FAIL = make_problem(
    10.745003502911016, 15.716807340838983, 0.12566073182088605, 6.998056175718018,
    a=26.26106516867096, alpha=0.013972570130356757, beta=2.6900481028623418,
)
# region II with a star density of about 2e29
HUGE_STAR = make_problem(
    6.4630484387332325, -16.409068501417842, 41.60643376739215, -17.209138986919385,
    a=1.3557018708407524, alpha=0.01419833529644283, beta=-4.647632987739987,
)
VACUUM_DRIFT = make_problem(0.3, -2.0, 5.0, 1.5, beta=2.5)


def draw_wide_problem(rng):
    """One draw over the property-test ranges (tests/test_fan_property.py)."""
    rho_l, rho_r = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
    u_l, u_r = rng.uniform(-50.0, 50.0, size=2)
    if rng.integers(5) == 0:
        u_r = u_l
    alpha = rng.uniform(0.01, 0.99)
    beta = rng.uniform(-5.0, 5.0)
    a_ref = rho_l**alpha * (u_l - u_r if u_l > u_r else 1.0)
    a = 3.0 * a_ref * rng.uniform() if rng.integers(5) else 0.0
    return make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha, beta=beta)


def battery_maxima(p, orders):
    """Worst |R| over the battery, one entry per quadrature order."""
    fan = solve(p)
    battery = residual_battery(fan)
    out = []
    for n in orders:
        worst = 0.0
        for psi in battery:
            r1, r2 = weak_residual(fan, psi, n)
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
    paths = [wave.path for wave in fan.waves]
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
            xt = d.path.position(tj)
            wt = d.weight(tj)
            ud = d.path.speed(tj)
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

    @pytest.mark.parametrize("quad_n", [64, 128, 256])
    @pytest.mark.parametrize("p", ALL_FANS)
    def test_battery_equals_reference(self, p, quad_n):
        fan = solve(p)
        for psi in residual_battery(fan):
            got = weak_residual(fan, psi, quad_n)
            assert got == reference_weak_residual(p, fan, psi, quad_n)

    def test_all_inside_pair_matches_reference_factors(self):
        # every s strictly inside (-1, 1), the innermost floats included
        s = np.concatenate((np.linspace(-1.0, 1.0, 257)[1:-1], self.EDGES[1:2], -self.EDGES[1:2]))
        assert np.all(np.abs(s) < 1.0)
        for shaped in (s, s.reshape(-1, 1), s[:256].reshape(16, 16)):
            b, db = _bump_pair(shaped)
            assert np.array_equal(b, reference_bump(shaped))
            assert np.array_equal(db, reference_dbump(shaped))

    @pytest.mark.parametrize(
        "p, quad_n",
        [(THIN_FAIL_TO_PASS, 128), (THIN_PASS_TO_FAIL, 128), (HUGE_STAR, 64)]
        + [(VACUUM_DRIFT, n) for n in (16, 64, 128)],
        ids=["thin_fail_to_pass", "thin_pass_to_fail", "huge_star", "vacuum16", "vacuum64", "vacuum128"],
    )
    def test_pinned_battery_equals_reference(self, p, quad_n):
        fan = solve(p)
        for psi in residual_battery(fan):
            assert weak_residual(fan, psi, quad_n) == reference_weak_residual(p, fan, psi, quad_n)

    def test_decreasing_wave_speeds_raise(self):
        # every strip's segment is fan.states[k] only while the waves are in order
        fan = solve(REGION2)
        shock, contact = fan.waves
        early = contact._replace(path=replace(contact.path, c=shock.path.c - 0.3))
        with pytest.raises(ValidationError, match="J is slower than wave S1"):
            replace(fan, waves=(shock, early))

    def test_seeded_wide_sweep_equals_reference(self):
        rng = np.random.default_rng(20170627)
        for _ in range(200):
            p = draw_wide_problem(rng)
            try:
                fan = solve(p)
                battery = residual_battery(fan)
            except ChapgasError:
                continue
            for psi in battery:
                assert weak_residual(fan, psi, 16) == reference_weak_residual(p, fan, psi, 16)

    def test_sabotaged_delta_equals_reference(self):
        fan = solve(REGION3)
        bad = replace(fan, delta=replace(fan.delta, w0=fan.delta.w0 * 1.1))
        battery = residual_battery(fan)
        got = [weak_residual(bad, psi, 64) for psi in battery]
        assert got == [reference_weak_residual(REGION3, bad, psi, 64) for psi in battery]
        assert got[0] != weak_residual(fan, battery[0], 64)


def battery_reference(p, quad_n):
    fan = solve(p)
    battery = residual_battery(fan)
    return fan, battery, [reference_weak_residual(p, fan, psi, quad_n) for psi in battery]


class TestWorkBuffers:
    """The strip kernel's reused work arrays and the data it relies on."""

    def test_gauss_arrays_are_read_only(self):
        nodes, wts = _gauss(64)
        for a in (nodes, wts, _work(64).frac):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert _gauss(64)[0][0] == np.polynomial.legendre.leggauss(64)[0][0]

    def test_node_fractions_nondecreasing(self):
        # the end-column inside test holds only on monotone rows; _Work
        # checks this for every order it builds
        for n in (8, 64, 127, 128, 255, 256, 1024):
            assert np.all(np.diff(_gauss(n)[0]) >= 0.0)

    def test_work_set_refuses_unordered_nodes(self, monkeypatch):
        nodes, wts = _gauss(8)
        monkeypatch.setattr(weakform, "_gauss", lambda n: (nodes[::-1], wts))
        with pytest.raises(RuntimeError, match="not in order"):
            weakform._Work(8)

    def test_interleaved_orders_and_fans_equal_reference(self):
        fans = {n: [battery_reference(p, n) for p in (REGION3, REGION1)] for n in (64, 128)}
        for n in (64, 128, 64):
            for i in range(5):
                for fan, battery, ref in fans[n]:
                    assert weak_residual(fan, battery[i], n) == ref[i]

    def test_keeps_the_last_two_orders(self):
        for n in (64, 128, 256, 128):
            _work(n)
        assert [ws.n for ws in weakform._kept.sets] == [128, 256]
        assert _work(512) is not _work(512)  # above the kept range: fresh each call
        assert [ws.n for ws in weakform._kept.sets] == [128, 256]

    @pytest.mark.parametrize(
        "p, psi, path",
        [
            # the left edge of the support lies 2**-53 left of a stationary
            # contact, so some nodes of that strip round onto s = -1
            (make_problem(2.0, 0.0, 1.0, 0.0, a=0.5),
             TestFunction(x0=float(np.nextafter(1.0, 0.0)), t0=1.0, rx=1.0, rt=0.5),
             "_bump_pair"),
            (make_problem(2.0, 0.0, 1.0, 0.0, a=0.5),
             TestFunction(x0=-float(np.nextafter(1.0, 0.0)), t0=1.0, rx=1.0, rt=0.5),
             "_bump_pair"),
            (REGION1, None, "_profile"),
        ],
        ids=["cut_bump_left", "cut_bump_right", "rarefaction_interior"],
    )
    def test_fallback_paths_equal_reference(self, monkeypatch, p, psi, path):
        fan = solve(p)
        psi = residual_battery(fan)[0] if psi is None else psi
        calls = []
        original = getattr(weakform, path)

        def spy(*args):
            calls.append(np.shape(args[0] if path == "_bump_pair" else args[1]))
            return original(*args)

        monkeypatch.setattr(weakform, path, spy)
        for n in (16, 64, 128):
            del calls[:]
            assert weak_residual(fan, psi, n) == reference_weak_residual(p, fan, psi, n)
            assert (n, n) in calls  # the kernel took this path on a full strip

    def test_threads_equal_reference(self):
        cases = [(p, n, battery_reference(p, n)) for p, n in
                 [(REGION3, 64), (REGION1, 128), (VACUUM, 64), (REGION2, 128)]]
        errors = []

        def worker(p, n, case):
            fan, battery, ref = case
            try:
                for _ in range(3):
                    got = [weak_residual(fan, psi, n) for psi in battery]
                    if got != ref:
                        errors.append((p, n, got, ref))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=case) for case in cases]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestQuadOrderGuard:
    @pytest.mark.parametrize("bad", [True, 16.0, "32", 4, 2048, 7])
    def test_rejected_orders(self, bad):
        fan = solve(CONTACT)
        psi = TestFunction(x0=0.5, t0=1.0, rx=1.0, rt=0.5)
        with pytest.raises(UnsupportedQuadOrder):
            weak_residual(fan, psi, bad)

    def test_bounds_accepted(self):
        fan = solve(CONTACT)
        psi = TestFunction(x0=0.5, t0=1.0, rx=1.0, rt=0.5)
        weak_residual(fan, psi, 8)
        weak_residual(fan, psi, 128)


class TestResiduals:
    def test_constant_data_machine_zero(self):
        p = make_problem(2.0, 0.5, 2.0, 0.5, a=0.5)
        fan = solve(p)
        psi = TestFunction(x0=0.3, t0=1.0, rx=1.5, rt=0.5)
        r1, r2 = weak_residual(fan, psi, 64)
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
        r32 = max(map(abs, weak_residual(fan, psi, 32)))
        r64 = max(map(abs, weak_residual(fan, psi, 64)))
        assert r64 <= r32 / 4.0

    def test_deterministic(self):
        fan = solve(REGION2)
        psi = residual_battery(fan)[2]
        assert weak_residual(fan, psi, 32) == weak_residual(fan, psi, 32)

    def test_sabotaged_weight_keeps_momentum_residual_large(self):
        fan = solve(REGION3)
        bad_delta = DeltaShockWave(fan.delta.path, fan.delta.w0 * 1.1)
        bad = replace(fan, delta=bad_delta)
        psi = residual_battery(fan)[0]
        r2_seq = [abs(weak_residual(bad, psi, n)[1]) for n in (32, 64, 128)]
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
        for wave in fan.waves:
            assert abs(wave.path.position(1.0) - wide.x0) < wide.rx

    def test_delta_fan_has_bump_on_trajectory(self):
        fan = solve(REGION3)
        assert fan.variant == "delta_shock"
        x_delta = fan.delta.path.position(1.0)
        battery = residual_battery(fan)
        assert any(abs(psi.x0 - x_delta) < 1e-12 for psi in battery)
