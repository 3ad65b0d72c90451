"""Distributional weak-form residuals and the test-function battery."""

import math
import os
import subprocess
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
from chapgas.verify import fan_checks
from chapgas.waves import _profile
from chapgas.weakform import _bump_pair, _check_order, _crossing_times, _gauss, _work
from helpers import draw_wide_problem, make_problem

REGION1 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0)
REGION2 = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5)
REGION3 = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0)
PLESS_DELTA = make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0)
VACUUM = make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0)
CONTACT = make_problem(2.0, 0.5, 1.0, 0.5, a=0.5)

ALL_FANS = [REGION1, REGION2, REGION3, PLESS_DELTA, VACUUM, CONTACT]

# thin region-II shock-contact fans: the star strip is so thin that a grid
# node can round onto one of its waves and take the neighbour's state.
# test_pinned_battery_equals_reference holds their exact-x constant strips to
# the tensor reference that gives each node its own strip's state: at order
# 128, the same verdicts and totals within 1e-4 of tol
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


def reference_bump_integral(lo, width, cells=24, order=20):
    """(int b, int b') over [lo, lo + width] by composite Gauss: cut into
    `cells` equal cells of `order` nodes, elementwise over lo and width."""
    lo, width = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(width, dtype=float))
    x, w = np.polynomial.legendre.leggauss(order)
    h = (width / cells)[..., None, None]
    s = lo[..., None, None] + h * (np.arange(cells)[:, None] + 0.5 * (x + 1.0))
    wts = 0.5 * h * w
    return (wts * reference_bump(s)).sum(axis=(-2, -1)), (wts * reference_dbump(s)).sum(axis=(-2, -1))


def reference_b(s):
    """B(s) = int_{-1}^{s} b, from reference_bump_integral with 300 cells of 24 nodes."""
    return reference_bump_integral(-1.0, np.asarray(s) + 1.0, cells=300, order=24)[0]


def reference_panels(p, fan, psi, quad_n):
    """Time nodes and weights of each panel, as weak_residual cuts them."""
    n = _check_order(quad_n)
    g = p.params
    nodes, wts = _gauss(n)
    t_lo, t_hi = psi.t0 - psi.rt, psi.t0 + psi.rt
    x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
    cuts = {t_lo, t_hi}
    for wave in fan.waves:
        for edge in (x_lo, x_hi):
            cuts.update(_crossing_times(wave.path.c, g.beta, edge, t_lo, t_hi))
    panels = sorted(cuts)
    for ta, tb in zip(panels[:-1], panels[1:]):
        yield 0.5 * (ta + tb) + 0.5 * (tb - ta) * nodes, 0.5 * (tb - ta) * wts


def strip_kind(fan, k):
    if fan.states[k] is not None:
        return "constant"
    return "vacuum" if fan.is_vacuum(k) else "rarefaction"


def reference_tensor_parts(p, fan, psi, quad_n, own_state=False):
    """The tensor-grid residual: psi.value/dx/dt on the fully broadcast T
    grid of every strip. Returns the total (R1, R2), summed in panel order,
    and each part (constant, vacuum, rarefaction, delta) summed alone.

    The states come from _profile, node by node, so on a strip a few ulps
    wide a node that rounds onto a wave takes its neighbour's state; with
    own_state, every node of a constant strip takes the strip's state."""
    g = p.params
    nodes, wts = _gauss(_check_order(quad_n))
    x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
    total = [0.0, 0.0]
    parts = {kind: [0.0, 0.0] for kind in ("constant", "vacuum", "rarefaction", "delta")}

    def add(kind, r1, r2):
        for acc in (total, parts[kind]):
            acc[0] += r1
            acc[1] += r2

    for tj, wj in reference_panels(p, fan, psi, quad_n):
        half = 0.5 * g.beta * tj * tj
        rows = [np.full(tj.shape, x_lo)]
        for wave in fan.waves:
            rows.append(np.clip(wave.path.c * tj + half, x_lo, x_hi))
        rows.append(np.full(tj.shape, x_hi))
        for k, (lo, hi) in enumerate(zip(rows[:-1], rows[1:])):
            width = hi - lo
            if not np.any(width > 0.0):
                continue
            X = lo[:, None] + width[:, None] * (0.5 * (nodes[None, :] + 1.0))
            T = np.broadcast_to(tj[:, None], X.shape)
            W = (wj * 0.5 * width)[:, None] * wts[None, :]
            rho, u = _profile(fan, X, T)
            if own_state and fan.states[k] is not None:
                rho = np.full(X.shape, fan.states[k].rho)
                u = fan.states[k].v + g.beta * T
            mom = rho * u - g.A * rho ** (1.0 - g.alpha)
            psi_t = psi.dt(X, T)
            psi_x = psi.dx(X, T)
            add(
                strip_kind(fan, k),
                float(np.sum(W * (rho * psi_t + rho * u * psi_x))),
                float(np.sum(W * (mom * psi_t + mom * u * psi_x + g.beta * rho * psi.value(X, T)))),
            )
        if fan.variant == "delta_shock":
            d = fan.delta
            xt = d.path.position(tj)
            wt = d.weight(tj)
            ud = d.path.speed(tj)
            along = psi.dt(xt, tj) + ud * psi.dx(xt, tj)
            add(
                "delta",
                float(np.sum(wj * wt * along)),
                float(np.sum(wj * (wt * ud * along + g.beta * wt * psi.value(xt, tj)))),
            )
    return tuple(total), {kind: tuple(acc) for kind, acc in parts.items()}


def reference_tensor_residual(p, fan, psi, quad_n):
    """weak_residual on the tensor grid, as it was computed before the
    constant strips were taken exactly in x."""
    return reference_tensor_parts(p, fan, psi, quad_n)[0]


def reference_exact_x(p, fan, psi, quad_n):
    """The constant strips' part of (R1, R2), each strip's x integrals of
    psi, psi_x and psi_t from reference_bump_integral. A strip runs from its
    left wave's position, clipped to the support, over the difference of
    the two clipped positions."""
    g = p.params
    r1 = r2 = 0.0
    for tj, wj in reference_panels(p, fan, psi, quad_n):
        st = (tj - psi.t0) / psi.rt
        bt, dbt_rt = reference_bump(st), reference_dbump(st) / psi.rt
        x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
        rows = [np.full(tj.shape, x_lo)]
        for wave in fan.waves:
            rows.append(np.clip(wave.path.position(tj), x_lo, x_hi))
        rows.append(np.full(tj.shape, x_hi))
        for k, seg in enumerate(fan.states):
            if seg is None:
                continue
            d_b, db = reference_bump_integral(
                np.clip((rows[k] - psi.x0) / psi.rx, -1.0, 1.0), (rows[k + 1] - rows[k]) / psi.rx
            )
            u = seg.v + g.beta * tj
            mom = seg.rho * u - g.A * seg.rho ** (1.0 - g.alpha)
            area = psi.rx * d_b
            r1 += float(np.sum(wj * (seg.rho * area * dbt_rt + seg.rho * u * db * bt)))
            r2 += float(np.sum(wj * (mom * area * dbt_rt + mom * u * db * bt + g.beta * seg.rho * area * bt)))
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


def assert_matches_references(p, fan, psi, quad_n, tensor_within=1e-4, own_state=False, exact=True):
    """weak_residual's three parts against the references.

    The rarefaction interiors and the delta line keep the tensor grid's bits;
    with exact, the constant strips lie within 1e-12 scale**3 of the exact-x
    reference.
    With tensor_within set, each total lies within that share of verify's
    tol (1e-6 scale**3) of the tensor reference and has its verdict; with
    "verdict", only the verdict is compared.
    """
    constant, rarefaction, delta = weakform._parts(fan, [psi], quad_n)[0]
    total, parts = reference_tensor_parts(p, fan, psi, quad_n, own_state=own_state)
    assert rarefaction == parts["rarefaction"]
    assert delta == parts["delta"]
    scale3 = problem_scale(p) ** 3
    if exact:
        for got, want in zip(constant, reference_exact_x(p, fan, psi, quad_n)):
            assert abs(got - want) <= 1e-12 * scale3
    if tensor_within is None:
        return
    tol = 1e-6 * scale3
    for got, want in zip(weak_residual(fan, psi, quad_n), total):
        assert (abs(got) <= tol) == (abs(want) <= tol)
        if tensor_within != "verdict":
            assert abs(got - want) <= tensor_within * tol


class TestExactness:
    """Rarefaction interiors and the delta line keep their bits; the
    constant strips, now exact in x, keep the tensor grid's verdicts."""

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
            assert_matches_references(p, fan, psi, quad_n)

    def test_all_inside_pair_matches_reference_factors(self):
        # every s strictly inside (-1, 1), the innermost floats included
        s = np.concatenate((np.linspace(-1.0, 1.0, 257)[1:-1], self.EDGES[1:2], -self.EDGES[1:2]))
        assert np.all(np.abs(s) < 1.0)
        for shaped in (s, s.reshape(-1, 1), s[:256].reshape(16, 16)):
            b, db = _bump_pair(shaped)
            assert np.array_equal(b, reference_bump(shaped))
            assert np.array_equal(db, reference_dbump(shaped))

    @pytest.mark.parametrize(
        "p, quad_n, within",
        [(THIN_FAIL_TO_PASS, 128, 1e-4), (THIN_PASS_TO_FAIL, 128, 1e-4), (HUGE_STAR, 64, 1e-4)]
        + [(VACUUM_DRIFT, 16, "verdict"), (VACUUM_DRIFT, 64, 1e-4), (VACUUM_DRIFT, 128, 1e-4)],
        ids=["thin_fail_to_pass", "thin_pass_to_fail", "huge_star", "vacuum16", "vacuum64", "vacuum128"],
    )
    def test_pinned_battery_equals_reference(self, p, quad_n, within):
        # On the thin star strips a grid node can round onto a wave and take
        # its neighbour's state; the tensor reference that gives each node
        # its strip's state is the one the exact-x strips must match. At
        # order 16 the tensor grid's own x error is a sizeable share of tol.
        fan = solve(p)
        for psi in residual_battery(fan):
            assert_matches_references(p, fan, psi, quad_n, within, own_state=True)

    def test_decreasing_wave_speeds_raise(self):
        # every strip's segment is fan.states[k] only while the waves are in order
        fan = solve(REGION2)
        shock, contact = fan.waves
        early = contact._replace(path=replace(contact.path, c=shock.path.c - 0.3))
        with pytest.raises(ValidationError, match="J is slower than wave S1"):
            replace(fan, waves=(shock, early))

    @staticmethod
    def wide_sweep():
        rng = np.random.default_rng(20170627)
        for _ in range(200):
            p = draw_wide_problem(rng)
            try:
                fan = solve(p)
                battery = residual_battery(fan)
            except ChapgasError:
                continue
            yield p, fan, battery

    def test_seeded_wide_sweep_equals_reference(self):
        # at order 16 the tensor grid is too coarse in x to grade the
        # exact-x strips: the parts are pinned here, the totals at order 64
        for p, fan, battery in self.wide_sweep():
            for psi in battery:
                assert_matches_references(p, fan, psi, 16, None)

    def test_seeded_wide_sweep_keeps_tensor_verdicts(self):
        for p, fan, battery in self.wide_sweep():
            for psi in battery:
                assert_matches_references(p, fan, psi, 64, exact=False)

    def test_sabotaged_delta_equals_reference(self):
        fan = solve(REGION3)
        bad = replace(fan, delta=replace(fan.delta, w0=fan.delta.w0 * 1.1))
        battery = residual_battery(fan)
        for psi in battery:
            assert_matches_references(REGION3, bad, psi, 64)
        assert weak_residual(bad, battery[0], 64) != weak_residual(fan, battery[0], 64)


class TestAntiderivative:
    """B(s), the integral of the bump from -1 to s, from the lazy table."""

    @staticmethod
    def b_of(s):
        s = np.asarray(s, dtype=float)
        return weakform._bump_integrals(np.full(s.shape, -1.0), s + 1.0)[0]

    POINTS = np.sort(np.concatenate((
        [-1.0, np.nextafter(-1.0, 0.0), 0.0, np.nextafter(1.0, 0.0), 1.0],
        np.linspace(-1.0, 1.0, 41)[1:-1],
        np.random.default_rng(42).uniform(-1.0, 1.0, 24),
        1.0 - 10.0 ** np.arange(-12.0, 0.0, 2.0),
    )))

    def test_matches_independent_reference(self):
        assert self.POINTS.size >= 40
        got = self.b_of(self.POINTS)
        assert np.all(np.abs(got - reference_b(self.POINTS)) <= 2e-15)
        assert got[0] == 0.0
        assert np.all(np.diff(got) >= 0.0)
        full = reference_bump_integral(-1.0, 2.0, cells=300, order=24)[0]
        assert abs(got[-1] - full) <= 2e-15
        assert got[-1] == weakform._bump_table()[1][-1]

    def test_thin_intervals_keep_relative_accuracy(self):
        lo = np.array([-0.7, -0.2, 0.0, 0.3, 0.5 - 1e-14, 0.9])
        for width in (1e-15, 1e-13, 1e-9, 1e-5):
            d_b, db = weakform._bump_integrals(lo, np.full(lo.shape, width))
            ref_b, ref_db = reference_bump_integral(lo, width, cells=1, order=4)
            np.testing.assert_allclose(d_b, ref_b, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(db, ref_db, rtol=1e-10, atol=0.0)

    def test_empty_intervals_give_positive_zeros(self):
        rng = np.random.default_rng(22)
        lo = rng.uniform(-1.0, 0.9, (3, 4, 16))
        width = np.where(rng.uniform(size=lo.shape) < 0.4, 0.0, rng.uniform(0.0, 0.1, lo.shape))
        some = width > 0.0
        assert 0 < some.sum() < some.size
        got = weakform._bump_integrals(lo, width)
        alone = weakform._bump_integrals(lo[some], width[some])
        for part, want in zip(got, alone):
            assert part.shape == lo.shape
            assert np.all(part[~some] == 0.0) and not np.signbit(part[~some]).any()
            assert part[some].tobytes() == want.tobytes()
        for part in weakform._bump_integrals(lo, np.zeros(lo.shape)):
            assert part.shape == lo.shape
            assert np.all(part == 0.0) and not np.signbit(part).any()

    def test_table_is_built_once_lazily_and_read_only(self):
        code = (
            "import chapgas, chapgas.cli\n"
            "from chapgas import weakform\n"
            "print(weakform._bump_table.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "0", out.stderr
        fan = solve(REGION2)
        for psi in residual_battery(fan):
            weak_residual(fan, psi, 32)
        info = weakform._bump_table.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        assert weakform._bump_table() is weakform._bump_table()
        for arr in weakform._bump_table():
            with pytest.raises(ValueError):
                arr[0] = 0.0


def weak_failures(p, fan, quad_n, residual):
    """True when any weak.* row of fan fails, the rows graded as verify grades them."""
    tol = 1e-6 * problem_scale(p) ** 3
    return any(abs(r) > tol for psi in residual_battery(fan) for r in residual(fan, psi))


class TestWeakPower:
    """Summed over a fan, the exact x terms telescope toward the jump rows;
    the weak rows must still catch what the tensor grid caught."""

    def test_wrong_weights_fail_where_the_tensor_grid_failed(self):
        rng = np.random.default_rng(11)
        fans = []
        while len(fans) < 120:
            p = draw_wide_problem(rng)
            try:
                fan = solve(p)
            except ChapgasError:
                continue
            if fan.delta is not None:
                fans.append((p, fan))
        for factor in (1.01, 1.1, 10.0):
            caught, tensor = set(), set()
            for i, (p, fan) in enumerate(fans):
                rows = fan_checks(p, quad_n=64, w0_factor=factor)[1]
                if any(not row.ok for row in rows if row.name.startswith("weak.")):
                    caught.add(i)
                bad = replace(fan, delta=replace(fan.delta, w0=fan.delta.w0 * factor))
                if weak_failures(p, bad, 64, lambda f, psi: reference_tensor_residual(p, f, psi, 64)):
                    tensor.add(i)
            assert caught >= tensor
            assert len(caught) >= 0.3 * len(fans)

    def test_true_fans_fail_no_more_than_on_the_tensor_grid(self):
        # the five that fail are thin shock-contact strips, which the
        # tensor grid fails too
        rng = np.random.default_rng(20261018)
        failed = []
        for _ in range(1500):
            p = draw_wide_problem(rng)
            try:
                fan = solve(p)
            except ChapgasError:
                continue
            if weak_failures(p, fan, 64, lambda f, psi: weak_residual(f, psi, 64)):
                failed.append((p, fan))
        assert len(failed) == 5
        for p, fan in failed:
            assert fan.variant == "shock_contact"
            assert weak_failures(p, fan, 64, lambda f, psi: reference_tensor_residual(p, f, psi, 64))


def battery_parts(p, quad_n):
    """The fan, its battery and the tensor reference's parts per bump."""
    fan = solve(p)
    battery = residual_battery(fan)
    return fan, battery, [reference_tensor_parts(p, fan, psi, quad_n)[1] for psi in battery]


def assert_grid_parts_equal(got, parts):
    """The rarefaction and delta parts of weakform._parts against the reference's."""
    assert got[1:] == (parts["rarefaction"], parts["delta"])


class TestWorkBuffers:
    """The rarefaction kernel's reused work arrays and the data it relies on."""

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
        fans = {n: [battery_parts(p, n) for p in (REGION3, REGION1)] for n in (64, 128)}
        for n in (64, 128, 64):
            for i in range(5):
                for fan, battery, ref in fans[n]:
                    assert_grid_parts_equal(weakform._parts(fan, [battery[i]], n)[0], ref[i])

    def test_keeps_the_last_two_orders(self):
        for n in (64, 128, 256, 128):
            _work(n)
        assert [ws.n for ws in weakform._kept.sets] == [128, 256]
        assert _work(512) is not _work(512)  # above the kept range: fresh each call
        assert [ws.n for ws in weakform._kept.sets] == [128, 256]

    @staticmethod
    def spy_on(monkeypatch, name, grid_arg):
        """Record the grid shape of each call to weakform.<name>."""
        calls = []
        original = getattr(weakform, name)

        def spy(*args):
            calls.append(np.shape(args[grid_arg]))
            return original(*args)

        monkeypatch.setattr(weakform, name, spy)
        return calls

    def test_closed_form_takes_full_strips(self, monkeypatch):
        fan = solve(REGION1)
        psi = residual_battery(fan)[0]
        interior = self.spy_on(monkeypatch, "_interior", 3)
        profile = self.spy_on(monkeypatch, "_profile", 1)
        for n in (16, 64, 128):
            del interior[:], profile[:]
            got = weakform._parts(fan, [psi], n)[0]
            assert_grid_parts_equal(got, reference_tensor_parts(REGION1, fan, psi, n)[1])
            assert (n, n) in interior and profile == []

    def test_strip_with_a_node_on_the_head_falls_back_to_profile(self, monkeypatch):
        # the head x = -t/2 + t^2/4 turns at (1, -1/4), and the bump's right
        # edge sits 1e-13 right of that: for |t - 1| < 6e-7 the strip runs
        # from the head to the edge, so thin that the first node column
        # rounds onto the head, where _profile's tie rule gives the left state
        p = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0, beta=0.5)
        fan = solve(p)
        head = fan.waves[0].path
        assert (head.c, head.beta) == (-0.5, 0.5)
        psi = TestFunction(x0=-0.75 + 1e-13, t0=1.0, rx=0.5, rt=0.4)
        on_head = []
        original = weakform._profile

        def spy(fan, X, t):
            # the head's position as _profile computes it
            on_head.append(bool(np.all(X[:, :1] == head.c * t + 0.5 * p.params.beta * t * t)))
            return original(fan, X, t)

        monkeypatch.setattr(weakform, "_profile", spy)
        got = weakform._parts(fan, [psi], 128)[0]
        assert_grid_parts_equal(got, reference_tensor_parts(p, fan, psi, 128)[1])
        assert on_head == [True]

    def test_threads_equal_reference(self):
        cases = [(p, n, battery_parts(p, n)) for p, n in
                 [(REGION3, 64), (REGION1, 128), (VACUUM, 64), (REGION2, 128)]]
        # the bits one thread gets alone, the whole battery in one pass
        alone = {id(case): weakform._parts(case[0], case[1], n) for _, n, case in cases}
        errors = []

        def worker(p, n, case):
            fan, battery, ref = case
            try:
                for _ in range(3):
                    got = weakform._parts(fan, battery, n)
                    if got != alone[id(case)]:
                        errors.append((p, n, got))
                    for parts, want in zip(got, ref):
                        assert_grid_parts_equal(parts, want)
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


def bits(values):
    """Floats, nested in lists and tuples, spelled in hex, so 0.0 and -0.0 differ."""
    if isinstance(values, (list, tuple)):
        return [bits(v) for v in values]
    return float(values).hex()


def assert_one_pass_equals_one_bump_calls(fan, battery, quad_n):
    """_parts and weak_residual on the whole battery give every bump the
    bits of a call on that bump alone."""
    alone = [weakform._parts(fan, [psi], quad_n)[0] for psi in battery]
    assert bits(weakform._parts(fan, battery, quad_n)) == bits(alone)
    alone = [weak_residual(fan, psi, quad_n) for psi in battery]
    assert bits(weak_residual(fan, battery, quad_n)) == bits(alone)


class TestOnePass:
    """A battery in one pass: the panels of all its bumps on one ragged axis."""

    @pytest.mark.parametrize("quad_n", [64, 128])
    @pytest.mark.parametrize("p", ALL_FANS)
    def test_battery_equals_one_bump_calls(self, p, quad_n):
        fan = solve(p)
        assert_one_pass_equals_one_bump_calls(fan, residual_battery(fan), quad_n)

    def test_seeded_wide_sweep_equals_one_bump_calls(self):
        rng = np.random.default_rng(2110)
        graded = 0
        for _ in range(120):
            p = draw_wide_problem(rng)
            try:
                fan = solve(p)
                battery = residual_battery(fan)
            except ChapgasError:
                continue
            assert_one_pass_equals_one_bump_calls(fan, battery, 64)
            graded += 1
        assert graded >= 100

    def test_sabotaged_delta_equals_one_bump_calls(self):
        fan, rows = fan_checks(REGION3, 64, w0_factor=1.3)
        assert fan.delta.w0 == solve(REGION3).delta.w0 * 1.3
        assert not all(row.ok for row in rows if row.name.startswith("weak."))
        for n in (64, 128):
            assert_one_pass_equals_one_bump_calls(fan, residual_battery(fan), n)

    @pytest.mark.parametrize("p", [REGION1, REGION2, PLESS_DELTA])
    def test_ragged_panels_equal_one_bump_calls(self, p):
        # a narrow bump on each wave, which the wave crosses, one beside it
        # and the battery: bump i owns a different number of rows each time
        fan = solve(p)
        battery = list(residual_battery(fan))
        for wave in fan.waves:
            x = wave.path.position(1.0)
            battery[:0] = [TestFunction(x0=x, t0=1.0, rx=0.05, rt=0.4),
                           TestFunction(x0=x + 0.3, t0=1.0, rx=0.2, rt=0.4)]
        counts = [len(list(reference_panels(p, fan, psi, 64))) for psi in battery]
        assert len(set(counts)) >= 3
        for n in (64, 128):
            assert_one_pass_equals_one_bump_calls(fan, battery, n)

    def test_empty_sequence_has_no_residuals(self):
        fan = solve(REGION1)
        assert weak_residual(fan, [], 64) == [] == weakform._parts(fan, [], 64)

    @pytest.mark.parametrize("bad", [3.0, None, "psi", np.zeros(4), (1.0, 1.0, 0.5, 0.5)])
    def test_anything_but_bumps_raises_validation_error(self, bad):
        fan = solve(REGION2)
        psi = residual_battery(fan)[0]
        for arg in (bad, [psi, bad], (bad,), [[psi]]):
            with pytest.raises(ValidationError, match="TestFunction"):
                weak_residual(fan, arg, 64)

    def test_fan_checks_grade_the_battery_in_one_call(self, monkeypatch):
        # verify reaches the kernel through its own bindings of
        # weak_residual and residual_battery, once per fan
        import chapgas.verify as verify

        calls = []

        def spy(name):
            original = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *a, **k: calls.append(name) or original(*a, **k))

        spy("weak_residual")
        spy("residual_battery")
        _, rows = fan_checks(REGION1, 64)
        assert sorted(calls) == ["residual_battery", "weak_residual"]
        assert [row.name for row in rows if row.name.startswith("weak.")] == [
            f"weak.psi{i}.{law}" for i in range(5) for law in ("mass", "momentum")
        ]


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
