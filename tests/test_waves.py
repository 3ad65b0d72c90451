"""Wave-fan construction, profile evaluation, and jump-condition residuals."""

import numpy as np
import pytest

from chapgas import (
    ChapgasError,
    DensityOutOfRange,
    GasParams,
    NegativeTime,
    NonFiniteInput,
    OutsideFan,
    PressurelessNotApplicable,
    PrimState,
    Region,
    RegionMismatch,
    SampleKind,
    SolutionSlice,
    evaluate,
    fan_checks,
    intermediate_state,
    problem_scale,
    rarefaction_state,
    rh_residual,
    riemann_invariants,
    solve,
    wave_positions,
)
from chapgas.waves import _profile
from helpers import draw_region_problem, make_problem, rh_scales

EXAMPLE_B = make_problem(1.0, 1.0, 2.0, 0.8, a=0.25, alpha=0.5)


class TestIntermediateState:
    def test_example_b_star(self):
        star = intermediate_state(EXAMPLE_B)
        assert star.rho == pytest.approx(25.0, rel=1e-14)
        assert star.v == 0.8

    def test_region_i_star(self):
        p = make_problem(1.0, 1.0, 1.0, 2.0, a=0.25, alpha=0.5)
        star = intermediate_state(p)
        assert star.rho == pytest.approx(0.04, rel=1e-14)
        assert star.v == 2.0

    def test_rejects_region_iii(self):
        with pytest.raises(RegionMismatch):
            intermediate_state(make_problem(1.0, 1.0, 1.0, -1.0, a=0.25))

    def test_invariant_match_sweep(self):
        rng = np.random.default_rng(5)
        for region in ("I", "II"):
            for alpha in (0.3, 0.5, 0.8):
                for _ in range(40):
                    p = draw_region_problem(rng, region, alpha, 0.0)
                    star = intermediate_state(p)
                    w_l, _ = riemann_invariants(p.left, p.params)
                    w_s, _ = riemann_invariants(star, p.params)
                    assert abs(w_s - w_l) <= 1e-12 * max(1.0, abs(w_l), problem_scale(p))
                    assert star.v == p.right.v

    @pytest.mark.parametrize(
        "rho_l, u_l, rho_r, u_r, a, alpha",
        [
            (1.0, 1.0, 2.0, 0.0, 1.0001, 0.01),  # region II: rho* overflows
            (1.0, 0.0, 1.0, 5.0, 0.5, 0.003),  # region I: rho* underflows to 0
        ],
    )
    def test_star_density_out_of_float_range(self, rho_l, u_l, rho_r, u_r, a, alpha):
        p = make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha)
        with pytest.raises(DensityOutOfRange):
            intermediate_state(p)
        with pytest.raises(DensityOutOfRange):
            solve(p)

    def test_star_density_past_range_at_zero_gap(self):
        # one ulp above the S_delta line: the data classify as region II, but
        # (u_r - u_l) + A/rho_l**alpha, which is A/rho***alpha, rounds to 0
        p = make_problem(
            1.0, 0.27243838496098977, 2.0, 0.01584994011020891, a=0.25658844485078086
        )
        assert p.region is Region.II
        assert p.right.v - p.left.v + p.params.chap(p.left.rho) == 0.0
        with pytest.raises(DensityOutOfRange):
            intermediate_state(p)
        with pytest.raises(DensityOutOfRange):
            solve(p)

    @pytest.mark.parametrize("a", [0.0, -0.0], ids=["zero", "negative-zero"])
    @pytest.mark.parametrize("u_r", [2.0, 1.0, 0.0], ids=["I", "OnJ", "III"])
    def test_pressureless_rejected(self, a, u_r):
        # with no pressure there is no 1-wave, and (A/gap) is 0/0 on contact data
        with pytest.raises(PressurelessNotApplicable):
            intermediate_state(make_problem(1.0, 1.0, 2.0, u_r, a=a))

    def test_shock_speed_overflow(self):
        # rho* ~ 1e308 is finite, but rho* v* in the shock speed overflows
        p = make_problem(1.0, 4.0, 2.0, 3.0, a=1.0008324561779927, alpha=0.01)
        assert intermediate_state(p).rho < np.inf
        with pytest.raises(DensityOutOfRange):
            solve(p)


    def test_shock_speed_bounded_by_contact(self):
        # rounding put the shock speed one ulp above u_r for these data
        p = make_problem(
            0.32223212896655423,
            8.279978926912982,
            17.102330744315545,
            0.8030728765025117,
            a=8.443618855241898,
            alpha=0.011581244787339993,
            beta=-2.2174234276444027,
        )
        fan = solve(p)
        assert fan.variant == "shock_contact"
        assert fan.path("S1").c == fan.path("J").c == 0.8030728765025117

    def test_near_contact_speeds_nondecreasing(self):
        # u_r one ulp, or up to 1e-10 relative, above u_l: rounding could put
        # the rarefaction tail one ulp left of its head
        rng = np.random.default_rng(5)
        for _ in range(2000):
            rho_l, rho_r = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
            u_l = float(rng.uniform(-50.0, 50.0))
            if rng.integers(2):
                u_r = float(np.nextafter(u_l, np.inf))
            else:
                u_r = u_l + abs(u_l) * 1e-10 * float(rng.uniform())
            alpha = rng.uniform(0.01, 0.99)
            a = 3.0 * rho_l**alpha * rng.uniform()
            fan = solve(make_problem(rho_l, u_l, rho_r, u_r, a, alpha, rng.uniform(-5.0, 5.0)))
            speeds = [wave.path.c for wave in fan.waves]
            assert speeds == sorted(speeds)

    def test_shock_below_float_resolution(self):
        # u_r is one ulp below u_l and rho* rounds to rho_l: the shock speed
        # (rho* v* - rho_l u_l) / (rho* - rho_l) used to divide by zero
        p = make_problem(
            0.8195869188610332,
            6.46119715452744,
            326.8107863965611,
            6.461197154527439,
            528.2769352103344,
            0.7958503004166151,
            1.8921146517615917,
        )
        fan = solve(p)
        assert fan.star.rho == p.left.rho
        assert fan.path("S1").c == p.left.v - p.params.alpha * p.params.chap(p.left.rho)
        assert fan.path("S1").c <= fan.path("J").c

    def test_near_contact_region_ii_raises_only_typed_errors(self):
        # u_r one ulp, or 1e-15 to 1e-10 relative, below u_l, with A large
        # enough that the data sit in region II
        rng = np.random.default_rng(5)
        x = np.linspace(-100.0, 100.0, 41)
        for _ in range(2000):
            rho_l, rho_r = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
            u_l = float(rng.uniform(-50.0, 50.0))
            if rng.integers(2):
                u_r = float(np.nextafter(u_l, -np.inf))
            else:
                u_r = u_l - abs(u_l) * 10.0 ** rng.uniform(-15.0, -10.0)
            alpha = rng.uniform(0.01, 0.99)
            a = rho_l**alpha * 10.0 ** rng.uniform(-8.0, 3.0)
            p = make_problem(rho_l, u_l, rho_r, u_r, a, alpha, rng.uniform(-5.0, 5.0))
            try:
                evaluate(solve(p), x, 1.0)
            except ChapgasError:
                pass


class TestRarefactionState:
    def test_head_below_float_resolution(self):
        # xi - w_l rounds to 0 when A/rho_l**alpha is below one ulp of v_l
        g = GasParams(0.5, 0.5)
        left = PrimState(1e60, -1.0)
        head = left.v - g.alpha * g.chap(left.rho)
        with pytest.raises(DensityOutOfRange):
            rarefaction_state(head, 1.0, left, g)

    def test_contract_example(self):
        # interior state on the contract's worked fan
        st = rarefaction_state(0.95, 1.0, PrimState(1.0, 1.0), GasParams(0.25, 0.5))
        assert st.rho == pytest.approx(0.390625, rel=1e-14)
        assert st.v == pytest.approx(1.15, rel=1e-14)

    def test_head_recovers_left_state(self):
        g = GasParams(1.0, 0.5)
        left = PrimState(1.0, 0.0)
        head = left.v - g.alpha * g.chap(left.rho)
        st = rarefaction_state(head, 1.0, left, g)
        assert st.rho == pytest.approx(left.rho, rel=1e-13)
        assert st.v == pytest.approx(left.v, abs=1e-13)

    def test_outside_fan_raises(self):
        g = GasParams(1.0, 0.5)
        with pytest.raises(OutsideFan):
            rarefaction_state(-0.5001, 1.0, PrimState(1.0, 0.0), g)

    def test_pressureless_rejected(self):
        with pytest.raises(PressurelessNotApplicable):
            rarefaction_state(0.0, 1.0, PrimState(1.0, 0.0), GasParams(0.0, 0.5))

    def test_lambda1_equals_xi_inside(self):
        # the similarity variable is the first characteristic speed
        from chapgas.states import eigenvalues

        g = GasParams(0.7, 0.3, beta=1.5)
        left = PrimState(2.0, -0.4)
        t = 2.0
        head = left.v - g.alpha * g.chap(left.rho) + g.beta * t
        for xi in np.linspace(head, head + 1.2, 7):
            st = rarefaction_state(float(xi), t, left, g)
            lam1, _ = eigenvalues(st, g, t)
            assert lam1 == pytest.approx(xi, rel=1e-12, abs=1e-12)


class TestSolveDispatch:
    def test_vacuum_fan(self):
        fan = solve(make_problem(1.0, -1.0, 1.0, 1.0))
        assert fan.variant == "two_contacts_vacuum"
        assert fan.path("J1").c == -1.0
        assert fan.path("J2").c == 1.0

    def test_single_contact_pressureless(self):
        fan = solve(make_problem(1.0, 0.5, 2.0, 0.5))
        assert fan.variant == "single_contact"
        assert fan.path("J").c == 0.5

    def test_single_contact_on_j(self):
        fan = solve(make_problem(1.0, 1.0, 3.0, 1.0, a=0.5))
        assert fan.variant == "single_contact"
        assert fan.path("J").c == 1.0

    def test_pressureless_compression_is_delta(self):
        fan = solve(make_problem(1.0, 1.0, 1.0, 0.0))
        assert fan.variant == "delta_shock"

    def test_region_i_fan(self):
        fan = solve(make_problem(1.0, 0.0, 0.5, 1.2, a=1.0))
        assert fan.variant == "rarefaction_contact"
        assert fan.path("R1.head").c == pytest.approx(-0.5, abs=1e-15)
        assert fan.path("R1.tail").c == pytest.approx(0.1, rel=1e-12, abs=1e-13)
        assert fan.path("J").c == 1.2

    def test_example_b_fan_positions(self):
        fan = solve(EXAMPLE_B)
        assert fan.variant == "shock_contact"
        assert fan.path("S1").c == pytest.approx(19.0 / 24.0, rel=1e-12)
        assert fan.path("J").c == 0.8

    def test_region_iii_fan(self):
        fan = solve(make_problem(1.0, 1.0, 1.0, -1.0, a=0.25))
        assert fan.variant == "delta_shock"
        assert fan.delta.v_delta == pytest.approx(-0.125, abs=1e-15)
        assert fan.delta.w0 == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "p",
        [
            make_problem(1.0, 1.0, 1.0, -1.0, a=0.25),
            make_problem(4.0, 1.0, 1.0, -2.0, a=0.25, alpha=0.3, beta=-1.5),
            make_problem(1.0, 1.0, 2.0, 0.75, a=0.25, beta=2.0),
            make_problem(4.0, 1.0, 1.0, 0.0, beta=2.0),
            make_problem(1.0, 1.0, 1.0, 0.0, a=-0.0),
        ],
        ids=["region-III", "region-III-drift", "on-Sdelta", "pressureless", "negative-zero-A"],
    )
    def test_delta_rides_the_fan_path(self, p):
        # one trajectory per wave: the delta and its Sdelta wave share it,
        # and rescaling the weight keeps it
        fan = solve(p)
        assert fan.variant == "delta_shock"
        assert fan.delta.path is fan.path("Sdelta")
        assert fan.delta.path.beta == p.params.beta
        sabotaged, _ = fan_checks(p, quad_n=16, w0_factor=1.1)
        assert sabotaged.delta.path is sabotaged.path("Sdelta")
        assert sabotaged.delta.w0 == fan.delta.w0 * 1.1


class TestWavePaths:
    @pytest.mark.parametrize(
        "p,labels",
        [
            (make_problem(1.0, -1.0, 1.0, 1.0), ["J1", "J2"]),
            (make_problem(1.0, 0.5, 2.0, 0.5), ["J"]),
            (make_problem(1.0, 0.0, 0.5, 1.2, a=1.0), ["R1.head", "R1.tail", "J"]),
            (EXAMPLE_B, ["S1", "J"]),
            (make_problem(1.0, 1.0, 1.0, -1.0, a=0.25), ["Sdelta"]),
        ],
    )
    def test_labels(self, p, labels):
        assert [wave.label for wave in solve(p).waves] == labels

    def test_positions_are_ordered(self):
        rng = np.random.default_rng(17)
        for region in ("I", "II"):
            for _ in range(30):
                p = draw_region_problem(rng, region, 0.5, rng.choice([-1.0, 0.0, 2.0]))
                for t in (0.5, 1.0, 4.0):
                    pos = [x for _, x in wave_positions(solve(p), t)]
                    assert pos == sorted(pos)


class TestRhResidual:
    def test_zero_across_fan_waves(self):
        rng = np.random.default_rng(29)
        for region in ("I", "II"):
            for alpha in (0.3, 0.5, 0.8):
                for beta in (-1.0, 0.0, 2.0):
                    for _ in range(15):
                        p = draw_region_problem(rng, region, alpha, beta)
                        fan = solve(p)
                        s = problem_scale(p)
                        pieces = (
                            [
                                (p.left, fan.star, fan.path("S1")),
                                (fan.star, p.right, fan.path("J")),
                            ]
                            if fan.variant == "shock_contact"
                            else [(fan.star, p.right, fan.path("J"))]
                        )
                        for left, right, path in pieces:
                            for t in (0.0, 1.0, 10.0):
                                e1, e2 = rh_residual(left, right, path, p.params, t)
                                s1, s2 = rh_scales(left, right, p.params, t)
                                assert abs(e1) <= 1e-12 * max(s1, s**2)
                                assert abs(e2) <= 1e-12 * max(s2, s**3)

    def test_nonzero_for_wrong_speed(self):
        from chapgas import ParabolicPath

        p = EXAMPLE_B
        fan = solve(p)
        bad = ParabolicPath(c=fan.path("S1").c + 0.1, beta=0.0)
        e1, _ = rh_residual(p.left, fan.star, bad, p.params, 0.0)
        assert abs(e1) > 1e-3

    def test_lax_inequalities_region_ii(self):
        from chapgas.states import eigenvalues

        rng = np.random.default_rng(41)
        for _ in range(60):
            p = draw_region_problem(rng, "II", 0.5, 0.0)
            fan = solve(p)
            lam1_l, _ = eigenvalues(p.left, p.params)
            lam1_s, lam2_s = eigenvalues(fan.star, p.params)
            s = 1e-12 * problem_scale(p)
            assert lam1_s - s <= fan.path("S1").c <= lam1_l + s
            assert fan.path("S1").c <= lam2_s + s


class TestEvaluate:
    def test_rejects_nonpositive_time(self):
        fan = solve(EXAMPLE_B)
        with pytest.raises(NegativeTime):
            evaluate(fan, 0.0, 0.0)
        with pytest.raises(NegativeTime):
            evaluate(fan, 0.0, -1.0)

    def test_piecewise_values_region_ii(self):
        fan = solve(EXAMPLE_B)
        t = 1.0
        left = evaluate(fan, 0.0, t)
        star = evaluate(fan, 0.796, t)
        right = evaluate(fan, 1.0, t)
        assert left.kind == SampleKind.REGULAR and left.rho == 1.0 and left.u == 1.0
        assert star.rho == pytest.approx(25.0, rel=1e-12) and star.u == 0.8
        assert right.rho == 2.0 and right.u == 0.8

    def test_rarefaction_interior_contract_point(self):
        p = make_problem(1.0, 1.0, 0.04, 2.0, a=0.25, alpha=0.5)
        fan = solve(p)
        assert fan.variant == "rarefaction_contact"
        s = evaluate(fan, 0.95, 1.0)
        assert s.rho == pytest.approx(0.390625, rel=1e-12)
        assert s.u == pytest.approx(1.15, rel=1e-12)

    def test_vacuum_interior_and_outside(self):
        fan = solve(make_problem(2.0, -1.0, 1.0, 1.0))
        inside = evaluate(fan, 0.0, 1.0)
        assert inside.kind == SampleKind.VACUUM
        assert np.isnan(inside.rho) and np.isnan(inside.u)
        outside = evaluate(fan, -1.5, 1.0)
        assert outside.kind == SampleKind.REGULAR and outside.rho == 2.0

    def test_on_delta_sample(self):
        p = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0)
        fan = solve(p)
        t = 1.5
        x = fan.delta.path.position(t)
        s = evaluate(fan, x, t)
        assert s.kind == SampleKind.ON_DELTA
        assert s.weight == pytest.approx(fan.delta.w0 * t, rel=1e-15)
        assert s.u_delta == pytest.approx(fan.delta.v_delta + 2.0 * t, rel=1e-15)
        off = evaluate(fan, x + 1.0, t)
        assert off.kind == SampleKind.REGULAR

    def test_scalar_point_gives_zero_dim_slice(self):
        fan = solve(EXAMPLE_B)
        s = evaluate(fan, 0.796, 1.0)
        assert isinstance(s, SolutionSlice)
        assert s.kind.shape == s.rho.shape == s.u.shape == ()
        assert s.weight is None and s.u_delta is None

    def test_overflowing_values_raise(self):
        # beta t, a segment velocity, and the delta's weight at t overflow
        rarefaction = solve(make_problem(1.0, 1.0, 0.04, 2.0, a=0.25, beta=1e300))
        with pytest.raises(DensityOutOfRange):
            evaluate(rarefaction, np.linspace(-2.0, 4.0, 5), 1e10)
        contact = solve(make_problem(1.0, 1e308, 2.0, 1e308, beta=1e308))
        with pytest.raises(DensityOutOfRange):
            evaluate(contact, 0.0, 1.0)
        delta = solve(make_problem(1.0, 1.0, 1.0, -1.0, a=0.25))
        with pytest.raises(DensityOutOfRange):
            evaluate(delta, np.array([-1.25e307, 0.0]), 1e308)

    def test_non_finite_points_and_times_rejected(self):
        # the last point of this grid overflows to inf, and the default
        # loc_tol there (1e-9 |x| = inf) used to put it on the delta
        fan = solve(make_problem(1.0, 1.0, 1.0, -1.0))
        x_min, x_max, x_count = -1e308, 7.976931348623157e307, 4
        step = (x_max - x_min) / (x_count - 1)
        x = np.array([x_min + i * step for i in range(x_count)])
        assert x[-1] == np.inf and np.isfinite(x[:-1]).all()
        with pytest.raises(NonFiniteInput):
            evaluate(fan, x, 1.0)
        with pytest.raises(NonFiniteInput):
            evaluate(fan, np.nan, 1.0)
        for t in (np.inf, np.nan):
            with pytest.raises(NonFiniteInput):
                evaluate(fan, 0.0, t)

    def test_physical_velocity_includes_drift(self):
        p = make_problem(1.0, 1.0, 2.0, 0.8, a=0.25, beta=2.0)
        fan = solve(p)
        far_left = evaluate(fan, -30.0, 1.0)
        assert far_left.u == pytest.approx(1.0 + 2.0, rel=1e-15)


# one problem per fan variant, with friction so positions carry the drift
FAN_VARIANTS = {
    "two_contacts_vacuum": make_problem(2.0, -1.0, 1.0, 1.0, beta=2.0),
    "single_contact": make_problem(2.0, 0.5, 1.0, 0.5, a=0.5, beta=-1.0),
    "rarefaction_contact": make_problem(1.0, 1.0, 0.04, 2.0, a=0.25, beta=2.0),
    "shock_contact": make_problem(1.0, 1.0, 2.0, 0.8, a=0.25, beta=-1.0),
    "delta_shock": make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0),
}


def assert_slice_matches_scalar(fan, xs, t, loc_tol=None):
    """Array evaluate equals the scalar loop exactly, point by point."""
    got = evaluate(fan, xs, t, loc_tol)
    assert isinstance(got, SolutionSlice)
    assert got.kind.shape == got.rho.shape == got.u.shape == xs.shape
    for i, x in enumerate(xs):
        s = evaluate(fan, float(x), t, loc_tol)
        assert got.kind[i] == s.kind
        if s.kind == SampleKind.REGULAR:
            assert got.rho[i] == s.rho and got.u[i] == s.u
        else:
            assert np.isnan(got.rho[i]) and np.isnan(got.u[i])
        if s.kind == SampleKind.ON_DELTA:
            assert (got.weight, got.u_delta) == (s.weight, s.u_delta)
    return got


class TestBatchedEvaluate:
    @pytest.mark.parametrize("variant", sorted(FAN_VARIANTS))
    def test_matches_scalar_loop(self, variant):
        fan = solve(FAN_VARIANTS[variant])
        assert fan.variant == variant
        for t in (0.25, 1.0, 2.5):
            positions = [pos for _, pos in wave_positions(fan, t)]
            grid = np.linspace(min(positions) - 2.0, max(positions) + 2.0, 301)
            # grid points exactly on every wave, and one ulp either side
            on = np.array(positions)
            xs = np.concatenate(
                (grid, on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf))
            )
            got = assert_slice_matches_scalar(fan, xs, t)
            kinds = set(got.kind.tolist())
            on_waves = set(got.kind[grid.size : grid.size + on.size].tolist())
            assert SampleKind.REGULAR in kinds
            if variant == "two_contacts_vacuum":
                # vacuum lies strictly between the contacts
                assert SampleKind.VACUUM in kinds
                assert on_waves == {SampleKind.REGULAR}
            if variant == "delta_shock":
                assert on_waves == {SampleKind.ON_DELTA}

    def test_delta_grid_with_step_tolerance(self):
        fan = solve(FAN_VARIANTS["delta_shock"])
        t = 1.5
        # step 1/16 puts the delta (at 2.0625) and its neighbours on exact grid points
        x_min, x_max, count = -3.0, 4.0, 113
        step = (x_max - x_min) / (count - 1)
        xs = np.array([x_min + i * step for i in range(count)])
        got = assert_slice_matches_scalar(fan, xs, t, loc_tol=step)
        on = got.kind == SampleKind.ON_DELTA
        # the window is closed: the neighbours exactly one step away are on it
        assert xs[on].tolist() == [2.0, 2.0625, 2.125]
        assert got.weight == fan.delta.weight(t)
        assert got.u_delta == fan.delta.path.speed(t)

    def test_default_tolerance_scales_per_point(self):
        fan = solve(FAN_VARIANTS["delta_shock"])
        t = 1.5
        xd = fan.delta.path.position(t)
        assert xd == 2.0625  # default window 1e-9 * |x| is about 2.06e-9 here
        # a far point in the same array must not widen the window near the delta
        xs = np.array([xd, xd + 1e-9, xd + 3e-9, xd - 3e-9, 1e6])
        got = assert_slice_matches_scalar(fan, xs, t)
        assert got.kind.tolist() == [SampleKind.ON_DELTA] * 2 + [SampleKind.REGULAR] * 3

    def test_non_delta_fan_has_no_weight(self):
        fan = solve(FAN_VARIANTS["shock_contact"])
        got = evaluate(fan, np.array([0.0, 1.0]), 1.0)
        assert got.weight is None and got.u_delta is None

    def test_array_rejects_nonpositive_time(self):
        xs = np.linspace(-1.0, 1.0, 5)
        for variant in sorted(FAN_VARIANTS):
            fan = solve(FAN_VARIANTS[variant])
            for t in (0.0, -1.0):
                with pytest.raises(NegativeTime):
                    evaluate(fan, xs, t)


class TestProfileBroadcast:
    @pytest.mark.parametrize("variant", sorted(FAN_VARIANTS))
    def test_column_time_equals_expanded_time(self, variant):
        fan = solve(FAN_VARIANTS[variant])
        t = np.array([0.25, 0.7, 1.0, 2.5])
        rows = []
        for tk in t:
            on = np.array([pos for _, pos in wave_positions(fan, tk)])
            grid = np.linspace(on.min() - 2.0, on.max() + 2.0, 201)
            beside = (np.nextafter(on, -np.inf), np.nextafter(on, np.inf))
            rows.append(np.concatenate((grid, on) + beside))
        X = np.array(rows)
        T = np.broadcast_to(t[:, None], X.shape)
        rho, u = _profile(fan, X, t[:, None])
        rho_ref, u_ref = _profile(fan, X, T)
        assert rho.shape == u.shape == X.shape
        assert np.array_equal(rho, rho_ref) and np.array_equal(u, u_ref)
        if variant == "rarefaction_contact":
            head = np.array([fan.path("R1.head").position(tk) for tk in t])[:, None]
            tail = np.array([fan.path("R1.tail").position(tk) for tk in t])[:, None]
            assert np.any((head < X) & (X < tail))

    @pytest.mark.parametrize("variant", sorted(FAN_VARIANTS))
    def test_zero_dim_inputs(self, variant):
        fan = solve(FAN_VARIANTS[variant])
        t = 1.0
        # the midpoint of the first two waves lies inside the rarefaction fan
        positions = [pos for _, pos in wave_positions(fan, t)]
        for x in (positions[0] - 1.0, float(np.mean(positions[:2])), positions[-1] + 1.0):
            rho, u = _profile(fan, x, t)
            assert rho.shape == u.shape == ()
            rho1, u1 = _profile(fan, np.array([x]), t)
            assert rho == rho1[0] and u == u1[0]


class TestSelfSimilarity:
    def test_profiles_scale_with_time_at_beta_zero(self):
        rng = np.random.default_rng(3)
        for region in ("I", "II"):
            for _ in range(20):
                p = draw_region_problem(rng, region, 0.5, 0.0)
                fan = solve(p)
                for xi in (-1.7, -0.3, 0.2, 0.9, 2.4):
                    a = evaluate(fan, xi * 1.0, 1.0)
                    b = evaluate(fan, xi * 3.0, 3.0)
                    assert a.kind == b.kind == SampleKind.REGULAR
                    assert a.rho == pytest.approx(b.rho, rel=1e-12, abs=1e-300)
                    assert a.u == pytest.approx(b.u, rel=1e-12, abs=1e-12)


class TestFrameShift:
    """With friction, the fan is the frictionless fan in a drifting frame."""

    def test_coefficients_exactly_equal(self):
        rng = np.random.default_rng(13)
        for region in ("I", "II", "III"):
            for _ in range(25):
                p0 = draw_region_problem(rng, region, 0.5, 0.0)
                p2 = make_problem(
                    p0.left.rho, p0.left.v, p0.right.rho, p0.right.v,
                    p0.params.A, p0.params.alpha, 2.0,
                )
                f0, f2 = solve(p0), solve(p2)
                assert f0.variant == f2.variant
                for (l0, _, path0), (l2, _, path2) in zip(f0.waves, f2.waves):
                    assert l0 == l2
                    assert path0.c == path2.c
                    assert path0.beta == 0.0 and path2.beta == 2.0
                if f0.variant == "shock_contact":
                    assert f0.star == f2.star
                if f0.variant == "delta_shock":
                    assert f0.delta.v_delta == f2.delta.v_delta
                    assert f0.delta.w0 == f2.delta.w0

    def test_profile_shifts_by_half_beta_t_squared(self):
        p0 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0, beta=0.0)
        p2 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0, beta=2.0)
        f0, f2 = solve(p0), solve(p2)
        t = 1.5
        shift = 0.5 * 2.0 * t * t
        for x in (-1.0, -0.2, 0.05, 0.4, 2.0):
            a = evaluate(f0, x, t)
            b = evaluate(f2, x + shift, t)
            assert a.rho == pytest.approx(b.rho, rel=1e-12)
            assert b.u == pytest.approx(a.u + 2.0 * t, rel=1e-12, abs=1e-12)


class TestSeamContinuity:
    def test_region_i_to_ii_seam(self):
        # nudging the data across the J boundary barely moves the fan
        base = dict(rho_l=1.0, u_l=1.0, rho_r=3.0, a=0.5, alpha=0.5)
        eps = 1e-9
        fan_hi = solve(make_problem(base["rho_l"], base["u_l"], base["rho_r"], 1.0 + eps, a=0.5))
        fan_lo = solve(make_problem(base["rho_l"], base["u_l"], base["rho_r"], 1.0 - eps, a=0.5))
        assert fan_hi.variant == "rarefaction_contact"
        assert fan_lo.variant == "shock_contact"
        assert fan_hi.star.rho == pytest.approx(fan_lo.star.rho, rel=1e-6)
        assert fan_hi.path("J").c == pytest.approx(fan_lo.path("J").c, abs=1e-8)
