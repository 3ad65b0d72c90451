"""Finite-volume oracle: scheme, bookkeeping, locators, measurements."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from chapgas import (
    CflViolation,
    FvConfig,
    FvState,
    NonPositiveDensity,
    ValidationError,
    WindowOutOfDomain,
    compare_to_exact,
    gate_cells,
    init_state,
    measure_delta_mass,
    run,
    solve,
    step,
    wave_offsets,
)
import chapgas.fv as fv
from chapgas.fv import delta_mass_window, grid, offset_windows
from chapgas.states import ParabolicPath
from chapgas.waves import Wave
from helpers import make_problem

REGION1 = make_problem(1.0, 0.0, 0.5, 1.2, a=1.0)
REGION2 = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5)
PLESS_DELTA = make_problem(4.0, 1.0, 1.0, 0.0)
CHAP_DELTA = make_problem(1.0, 1.0, 1.0, -1.0, a=0.25)
VACUUM = make_problem(1.0, -1.0, 1.0, 1.0)


def config(p, n_cells=500, x_lo=-2.0, x_hi=2.0, t_end=1.0, **kw):
    return FvConfig(problem=p, x_lo=x_lo, x_hi=x_hi, n_cells=n_cells, t_end=t_end, **kw)


def synthetic_state(profile, n=200, lo=-1.0, hi=1.0):
    dx = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * dx
    rho = profile(x)
    return FvState(x=x, rho=rho, m=np.zeros_like(rho), t=1.0)


def located(state, kind, center, halfwidth):
    """Where wave_offsets finds a wave of this kind that sits at center at
    the state's time, searching the cells within halfwidth of center."""
    idx = np.flatnonzero(np.abs(state.x - center) <= halfwidth)
    wave = Wave("W", kind, ParabolicPath(center / state.t, 0.0))
    [(_, _, cells)] = wave_offsets(state, [(wave, slice(idx[0], idx[-1] + 1))])
    return center + cells * state.dx


def offsets_at_state(state, fan):
    """wave_offsets on the windows offset_windows gives at the state's time."""
    return wave_offsets(state, offset_windows(state.x, fan, state.t))


class TestConfigValidation:
    def test_accepts_reference_setup(self):
        config(REGION1)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValidationError):
            config(REGION1, n_cells=50)

    def test_rejects_domain_missing_origin(self):
        with pytest.raises(ValidationError):
            config(REGION1, x_lo=0.5)

    def test_rejects_out_of_range_cfl(self):
        with pytest.raises(CflViolation):
            config(REGION1, cfl=0.6)
        with pytest.raises(CflViolation):
            config(REGION1, cfl=0.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValidationError):
            config(REGION1, t_end=0.0)

    def test_rejects_absurd_grid(self):
        config(REGION1, n_cells=fv._MAX_CELLS)
        with pytest.raises(ValidationError, match="n_cells must be <= "):
            config(REGION1, n_cells=fv._MAX_CELLS + 1)


class TestGridAndInit:
    def test_origin_lands_on_interface(self):
        x, dx = grid(config(REGION1, n_cells=337, x_lo=-1.37))
        interfaces = x - 0.5 * dx
        assert np.min(np.abs(interfaces)) <= 1e-12 * dx

    def test_initial_states_split_cleanly(self):
        state = init_state(config(REGION2, n_cells=200))
        left = state.x < 0.0
        assert np.all(state.rho[left] == 1.0)
        assert np.all(state.rho[~left] == 2.0)
        g = REGION2.params
        v = (state.m + g.A * state.rho ** (1.0 - g.alpha)) / state.rho
        assert np.allclose(v[left], 1.8, rtol=0.0, atol=1e-15)
        assert np.allclose(v[~left], 1.2, rtol=0.0, atol=1e-15)


class TestStep:
    def test_uniform_state_is_fixed_point(self):
        p = make_problem(2.0, 0.7, 2.0, 0.7, a=0.5, beta=1.0)
        cfg = config(p, n_cells=200)
        before = init_state(cfg)
        after = step(before, cfg)
        assert after.t > 0.0
        assert np.array_equal(after.rho, before.rho)
        assert np.array_equal(after.m, before.m)
        assert after.boundary_mass == 0.0
        assert after.clamped == 0

    def test_conservation_bookkeeping_is_exact(self):
        p = make_problem(1.0, 1.8, 2.0, 1.2, a=1.5, beta=0.5)
        cfg = config(p, n_cells=300, x_lo=-1.5, x_hi=2.5)
        state = init_state(cfg)
        dx = state.dx
        mass0 = float(np.sum(state.rho)) * dx
        mom0 = float(np.sum(state.m)) * dx
        for _ in range(50):
            state = step(state, cfg)
        assert float(np.sum(state.rho)) * dx - state.boundary_mass == pytest.approx(
            mass0, abs=1e-12 * abs(mass0)
        )
        assert float(np.sum(state.m)) * dx - state.boundary_mom == pytest.approx(
            mom0, abs=1e-12 * max(1.0, abs(mom0))
        )

    def test_no_clamping_away_from_vacuum(self):
        for p in (REGION1, REGION2, make_problem(2.0, 0.5, 1.0, 0.5, a=0.5)):
            state = run(config(p, n_cells=400, x_lo=-1.5, x_hi=2.5))
            assert state.clamped == 0

    def test_vacuum_run_clamps_but_stays_positive(self):
        cfg = config(VACUUM, n_cells=400)
        state = run(cfg)
        assert state.clamped > 0
        assert np.all(state.rho >= fv._FLOOR)

    def test_delta_spike_sharpens_under_refinement(self):
        peaks = []
        for n in (400, 800, 1600):
            state = run(config(PLESS_DELTA, n_cells=n))
            peaks.append(float(state.rho.max()))
        assert peaks[0] < peaks[1] < peaks[2]


class TestCompareToExact:
    def test_constant_data_matches_exactly(self):
        p = make_problem(2.0, 0.7, 2.0, 0.7, a=0.5)
        state = run(config(p, n_cells=200, t_end=0.5))
        err = compare_to_exact(state, solve(p), exclusion=0.05)
        assert err <= 1e-12

    def test_first_order_convergence_on_rarefaction(self):
        fan = solve(REGION1)
        errors = []
        for n in (500, 1000, 2000):
            state = run(config(REGION1, n_cells=n))
            errors.append(compare_to_exact(state, fan, exclusion=0.05))
        assert errors[0] / errors[1] >= 1.5
        assert errors[1] / errors[2] >= 1.5

    def test_shock_contact_profile_converges(self):
        fan = solve(REGION2)
        errors = []
        for n in (500, 1000, 2000):
            state = run(config(REGION2, n_cells=n, x_lo=-1.5, x_hi=2.5))
            errors.append(compare_to_exact(state, fan, exclusion=0.1))
        assert errors[0] / errors[1] >= 1.5
        assert errors[1] / errors[2] >= 1.5


class TestDeltaMass:
    def test_zero_before_any_evolution(self):
        state = init_state(config(PLESS_DELTA, n_cells=400))
        cells = delta_mass_window(state.x, 0.0, 0.1)
        assert measure_delta_mass(state, cells) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "p", [PLESS_DELTA, CHAP_DELTA], ids=["pressureless", "chaplygin"]
    )
    def test_concentrated_mass_matches_weight(self, p):
        fan = solve(p)
        cfg = config(p, n_cells=2000)
        cells = gate_cells(cfg, fan, 0.1)[1]
        got = measure_delta_mass(run(cfg), cells)
        assert got == pytest.approx(fan.delta.weight(1.0), rel=0.15)

    def test_background_from_the_two_adjacent_cells(self):
        rho = np.ones(200)
        rho[4], rho[5:10], rho[10] = 2.0, 10.0, 4.0
        state = synthetic_state(lambda x: rho)
        # 5 cells of 10 over a background of (2 + 4) / 2
        assert measure_delta_mass(state, slice(5, 10)) == pytest.approx(35.0 * state.dx)

    def test_window_guards(self):
        x = init_state(config(PLESS_DELTA, n_cells=400)).x
        with pytest.raises(WindowOutOfDomain):
            delta_mass_window(x, 0.0, -0.1)
        with pytest.raises(WindowOutOfDomain):
            delta_mass_window(x, 5.0, 0.1)
        with pytest.raises(WindowOutOfDomain):
            delta_mass_window(x, -2.0, 0.05)


class TestLocators:
    def test_jump_found_at_steepest_interface(self):
        state = synthetic_state(lambda x: np.where(x < 0.105, 2.0, 1.0))
        found = located(state, "contact", 0.08, 0.2)
        assert abs(found - 0.105) <= 0.5 * state.dx

    def test_peak_found_at_spike(self):
        state = synthetic_state(lambda x: 1.0 + 50.0 * (np.abs(x - 0.3) < 0.01))
        assert located(state, "delta", 0.25, 0.2) == pytest.approx(0.3, abs=state.dx)

    def test_window_too_small(self):
        # the contact's window reaches 0.15 of the domain to each side: at
        # 1.27 it holds three cells at the grid's edge, at 5.0 none
        x = synthetic_state(lambda x: np.ones_like(x)).x
        for u in (1.27, 5.0):
            with pytest.raises(WindowOutOfDomain):
                offset_windows(x, solve(make_problem(2.0, u, 1.0, u, a=0.5)), 1.0)


class TestWaveOffsets:
    def test_shock_contact_within_gate(self):
        state = run(config(REGION2, n_cells=2000, x_lo=-1.5, x_hi=2.5))
        offsets = offsets_at_state(state, solve(REGION2))
        assert [label for label, _, _ in offsets] == ["S1", "J"]
        assert all(method == "jump" for _, method, _ in offsets)
        assert all(abs(cells) <= 3.0 for _, _, cells in offsets)

    def test_rarefaction_edges_omitted(self):
        state = run(config(REGION1, n_cells=500))
        offsets = offsets_at_state(state, solve(REGION1))
        assert [label for label, _, _ in offsets] == ["J"]

    def test_delta_tagged_as_peak(self):
        state = run(config(CHAP_DELTA, n_cells=500))
        offsets = offsets_at_state(state, solve(CHAP_DELTA))
        assert [(label, method) for label, method, _ in offsets] == [("Sdelta", "peak")]

    def test_vacuum_contacts_land_exactly(self):
        state = run(config(VACUUM, n_cells=500))
        offsets = offsets_at_state(state, solve(VACUUM))
        assert [label for label, _, _ in offsets] == ["J1", "J2"]
        assert all(abs(cells) <= 3.0 for _, _, cells in offsets)

    def test_zero_amplitude_contact_omitted(self):
        p = make_problem(2.0, 0.7, 2.0, 0.7, a=0.5)
        state = run(config(p, n_cells=200))
        assert offsets_at_state(state, solve(p)) == []


class TestGateCells:
    def test_cells_of_a_shock_contact_fan(self):
        cfg = config(REGION2, n_cells=1000, x_lo=-1.5, x_hi=2.5)
        fan = solve(REGION2)
        windows, delta, plateau = gate_cells(cfg, fan, 0.1)
        x = grid(cfg)[0]
        lo, hi = fan.path("S1").position(1.0), fan.path("J").position(1.0)
        mid = (x >= lo + 0.3 * (hi - lo)) & (x <= hi - 0.3 * (hi - lo))
        assert np.array_equal(np.arange(x.size)[plateau], np.flatnonzero(mid))
        assert delta is None
        assert windows == offset_windows(x, fan, 1.0)
        assert [wave.label for wave, _ in windows] == ["S1", "J"]

    def test_cells_of_a_delta_fan(self):
        cfg = config(CHAP_DELTA, n_cells=800)
        fan = solve(CHAP_DELTA)
        windows, delta, plateau = gate_cells(cfg, fan, 0.1)
        x = grid(cfg)[0]
        near = np.abs(x - fan.delta.path.position(1.0)) <= 0.1
        assert np.array_equal(np.arange(x.size)[delta], np.flatnonzero(near))
        assert plateau is None
        assert [(wave.label, wave.kind) for wave, _ in windows] == [("Sdelta", "delta")]


class TestPlateau:
    def test_region_two_plateau_matches_star_density(self):
        fan = solve(REGION2)
        state = run(config(REGION2, n_cells=1000, x_lo=-1.5, x_hi=2.5))
        x1 = fan.path("S1").position(1.0)
        x2 = fan.path("J").position(1.0)
        mid = np.abs(state.x - 0.5 * (x1 + x2)) <= 0.2 * (x2 - x1)
        plateau = float(np.mean(state.rho[mid]))
        assert plateau == pytest.approx(fan.star.rho, rel=0.02)


def reference_step(state, cfg, dt_cap=None):
    """The plain LLF step, pads by concatenation and no reused buffers.

    Kept as the reference that the buffered step in chapgas.fv must match bit
    for bit: same arithmetic per element, same guards.
    """
    g = cfg.problem.params
    dx = state.dx
    rho = np.concatenate(([state.rho[0]], state.rho, [state.rho[-1]]))
    m = np.concatenate(([state.m[0]], state.m, [state.m[-1]]))
    if np.any(rho <= 0.0):
        raise NonPositiveDensity("cannot recover velocity at nonpositive density")
    v = (m + g.A * rho ** (1.0 - g.alpha)) / rho
    u = v + g.beta * state.t
    gap = g.alpha * g.A / rho ** g.alpha
    amax = np.maximum(np.abs(u), np.abs(u - gap))
    peak = float(np.max(amax))
    if not math.isfinite(peak):
        raise CflViolation("wave speeds are not finite")

    dt = cfg.cfl * dx / peak if peak > 0.0 else math.inf
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not (0.0 < dt < math.inf):
        raise CflViolation(f"no admissible time step (dt = {dt})")

    f_rho = u * rho
    f_m = u * m
    a_face = np.maximum(amax[:-1], amax[1:])
    flux_rho = 0.5 * (f_rho[:-1] + f_rho[1:]) - 0.5 * a_face * (rho[1:] - rho[:-1])
    flux_m = 0.5 * (f_m[:-1] + f_m[1:]) - 0.5 * a_face * (m[1:] - m[:-1])

    lam = dt / dx
    rho_new = state.rho - lam * (flux_rho[1:] - flux_rho[:-1])
    m_new = state.m - lam * (flux_m[1:] - flux_m[:-1])
    n_clamp = int(np.count_nonzero(rho_new < fv._FLOOR))
    if n_clamp:
        rho_new = np.maximum(rho_new, fv._FLOOR)

    return FvState(
        x=state.x,
        rho=rho_new,
        m=m_new,
        t=state.t + dt,
        clamped=state.clamped + n_clamp,
        boundary_mass=state.boundary_mass + dt * (flux_rho[0] - flux_rho[-1]),
        boundary_mom=state.boundary_mom + dt * (flux_m[0] - flux_m[-1]),
    )


def reference_run(cfg):
    state = init_state(cfg)
    tiny = 1e-12 * max(1.0, cfg.t_end)
    while cfg.t_end - state.t > tiny:
        state = reference_step(state, cfg, dt_cap=cfg.t_end - state.t)
    return state


def assert_bitwise_equal(got, want):
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.rho, want.rho)
    assert np.array_equal(got.m, want.m)
    assert np.array_equal(np.signbit(got.rho), np.signbit(want.rho))
    assert np.array_equal(np.signbit(got.m), np.signbit(want.m))
    assert got.t == want.t
    assert got.clamped == want.clamped
    assert got.boundary_mass == want.boundary_mass
    assert got.boundary_mom == want.boundary_mom


# one config per fan variant, the clamping vacuum run, and A = 0 contacts
# whose momentum is a signed zero everywhere
EXACT_CASES = {
    "vacuum": (make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0), 400, -2.0, 2.0),
    "contact": (make_problem(2.0, 0.5, 1.0, 0.5, a=0.5), 200, -2.0, 2.0),
    "rarefaction": (REGION1, 800, -2.0, 2.0),
    "shock": (REGION2, 200, -1.5, 2.5),
    "shock_beta": (make_problem(1.0, 1.8, 2.0, 1.2, a=1.5, beta=0.5), 800, -1.5, 2.5),
    "delta": (make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0), 800, -2.0, 2.0),
    "delta_pressureless": (PLESS_DELTA, 200, -2.0, 2.0),
    "zero_momentum": (make_problem(1.0, 0.0, 2.0, 0.0, beta=-1.0), 200, -2.0, 2.0),
    "negative_zero_momentum": (make_problem(1.0, -0.0, 2.0, -0.0, beta=-1.0), 200, -2.0, 2.0),
}


# windowed marches: (problem, n_cells, x_lo, x_hi, t_end)
WINDOW_CASES = {
    # starts 2 * _CHUNK cells wide, reaches the right end, then the full grid
    "narrow_to_full": (REGION1, 1600, -1.0, 2.0, 1.0),
    # reaches the left end, where its outer cell is the ghost, and clamps
    "vacuum_left_end": (make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0), 800, -2.0, 2.0, 1.0),
    # reaches neither end by t_end
    "neither_end": (make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0), 800, -2.0, 2.0, 0.25),
    # the left far density lies below the floor, so every far cell clamps
    "far_below_floor": (make_problem(1e-13, 0.5, 1.0, 1.0), 800, -2.0, 2.0, 0.5),
}


def window_of(state):
    """(a, b) of the window step left on state, or None for the full grid."""
    win = state._window
    return None if win is fv._FULL else (win.a, win.b)


def windowed_run(cfg):
    """run's march, with the window each step leaves on its state."""
    state, spans = init_state(cfg), []
    while cfg.t_end - state.t > 1e-12 * max(1.0, cfg.t_end):
        state = step(state, cfg, dt_cap=cfg.t_end - state.t)
        spans.append(window_of(state))
    return state, spans


def assert_same_bits(got, want):
    """rho and m equal bit for bit, nan included."""
    for a, b in ((got.rho, want.rho), (got.m, want.m)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExactness:
    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_run_matches_reference(self, name):
        p, n, lo, hi = EXACT_CASES[name]
        cfg = config(p, n_cells=n, x_lo=lo, x_hi=hi)
        got = run(cfg)
        assert_bitwise_equal(got, reference_run(cfg))
        if name == "vacuum":
            assert got.clamped > 0
        if name.endswith("zero_momentum"):
            assert np.all(got.m == 0.0)
            assert np.all(np.signbit(got.m)) == name.startswith("negative")

    @pytest.mark.parametrize("name", ["vacuum", "shock_beta", "delta", "zero_momentum"])
    def test_repeated_steps_match_reference(self, name):
        p, n, lo, hi = EXACT_CASES[name]
        cfg = config(p, n_cells=n, x_lo=lo, x_hi=hi)
        got = want = init_state(cfg)
        for k in range(40):
            cap = 1e-3 if k % 3 == 0 else None
            got = step(got, cfg, dt_cap=cap)
            want = reference_step(want, cfg, dt_cap=cap)
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("name", sorted(WINDOW_CASES))
    def test_windowed_run_matches_reference(self, name):
        p, n, lo, hi, t_end = WINDOW_CASES[name]
        cfg = config(p, n_cells=n, x_lo=lo, x_hi=hi, t_end=t_end)
        got, spans = windowed_run(cfg)
        assert_bitwise_equal(got, reference_run(cfg))
        assert_bitwise_equal(run(cfg), got)
        windows = [s for s in spans if s is not None]
        if name == "narrow_to_full":
            assert spans[0][1] - spans[0][0] == 2 * fv._CHUNK
            assert any(0 < a and b == n for a, b in windows)
            assert spans[-1] is None
        elif name == "vacuum_left_end":
            assert len(windows) == len(spans)
            assert any(a == 0 and b < n for a, b in windows)
            assert got.clamped > 0
        elif name == "neither_end":
            assert len(windows) == len(spans)
            assert all(0 < a and b < n for a, b in windows)
        else:
            assert windows == []
            assert got.clamped > 0

    @pytest.mark.parametrize("k", range(30))
    def test_seeded_run_matches_reference(self, k):
        # A > 0 on even k, A = 0 on odd; each (A, beta) pair on every grid,
        # the windowed march at 400 and 800 cells, the full grid at 200
        rng = np.random.default_rng(k)
        beta = (-1.0, 0.0, 2.0)[k // 2 % 3]
        n = (200, 400, 800)[k // 6 % 3]
        a = float(rng.uniform(0.05, 1.5)) if k % 2 == 0 else 0.0
        rho_l, rho_r, alpha = (float(v) for v in rng.uniform(0.2, 3.0, 3) / (1.0, 1.0, 3.0))
        u_l, u_r = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        if k % 5 in (0, 4):
            u_l = -0.0
        if k % 5 in (3, 4):
            u_r = -0.0
        cfg = config(make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha, beta=beta), n_cells=n)
        assert_bitwise_equal(run(cfg), reference_run(cfg))

    @pytest.mark.parametrize(
        "cell, rho, m",
        [(57, np.inf, None), (57, None, -0.0), (0, np.inf, -0.0), (199, None, -0.0)],
    )
    @pytest.mark.parametrize("amplitude", [0.0, -0.0])
    def test_pressureless_edge_cells_step_like_reference(self, cell, rho, m, amplitude):
        # at A = 0 step skips the pressure terms; a cell with rho = inf or
        # m = -0.0 must still give the reference's exception or bits, with
        # warnings as errors (pytest's setting) and with them ignored
        cfg = config(make_problem(1.0, 0.5, 2.0, -0.25, a=amplitude, beta=2.0), n_cells=200)
        s0 = step(init_state(cfg), cfg)
        fields = {"rho": s0.rho.copy(), "m": s0.m.copy()}
        for name, value in (("rho", rho), ("m", m)):
            if value is not None:
                fields[name][cell] = value
        state = dataclasses.replace(s0, **fields)

        def outcome(stepper):
            try:
                return stepper(state, cfg)
            except (CflViolation, NonPositiveDensity, FloatingPointError) as exc:
                return type(exc), str(exc)

        for mode in ("raise", "ignore"):
            with np.errstate(all=mode):
                got, want = outcome(step), outcome(reference_step)
            if isinstance(want, FvState):
                assert_bitwise_equal(got, want)
            else:
                assert got == want
        if rho is None:
            assert isinstance(want, FvState)

    @pytest.mark.parametrize("amplitude", [0.0, -0.0])
    def test_pressureless_velocity_keeps_the_general_bits(self, amplitude):
        # at A = 0 step takes u = (m + A rho) / rho + beta t, skipping the
        # powers; zeros keep their sign too: A = -0.0 passes validation, and
        # at t = 0 with beta < 0 beta t is -0.0
        cfg = config(make_problem(1.0, 0.5, 2.0, -0.25, a=amplitude, beta=-1.0), n_cells=200)
        s0 = init_state(cfg)
        m = s0.m.copy()
        m[::3], m[1::3] = -0.0, 0.0
        state = dataclasses.replace(s0, m=m)
        u = step(state, cfg).scratch.work.u_rho
        g = cfg.problem.params
        rho, m = (np.concatenate(([q[0]], q, [q[-1]])) for q in (state.rho, m))
        want = (m + g.A * rho ** (1.0 - g.alpha)) / rho + g.beta * state.t
        assert np.array_equal(u.view(np.int64), want.view(np.int64))

        # -0.0 + A rho is -0.0 only when A is
        def negative_zeros(a):
            return np.count_nonzero((a == 0.0) & np.signbit(a))

        assert negative_zeros(want) == (negative_zeros(m) if np.signbit(amplitude) else 0)

    @pytest.mark.parametrize("flat", ["data", "hand_built"])
    def test_straddling_entries_raise_no_warning(self, flat):
        # near the top of the float range, m - rho across the two halves of
        # the flat work row would overflow: the pad cell between them keeps
        # every straddling entry finite, so nothing warns that the reference
        # does not
        if flat == "data":
            # A rho**(1-alpha) is about rho, so m is about -rho and u about 0
            p = make_problem(1e308, 0.0, 0.9e308, 0.0, a=1e154, alpha=0.5, beta=1.0)
            cfg = config(p, n_cells=800)
            state = init_state(cfg)
        else:
            # A = 0 and u = m / rho + beta t = -1 + 1 = 0
            p = make_problem(1e308, -1.0, 0.9e308, -1.0, beta=1.0)
            cfg = config(p, n_cells=200)
            x = grid(cfg)[0]
            rho = np.where(x < 0.0, 1e308, 0.9e308)
            state = FvState(x=x, rho=rho, m=-rho, t=1.0)
        assert float(np.max(state.rho)) - float(np.min(state.m)) == math.inf
        got = want = state
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(20):
                got = step(got, cfg, dt_cap=1e-3)
                want = reference_step(want, cfg, dt_cap=1e-3)
                assert_bitwise_equal(got, want)

    def test_signed_zero_front_grows_the_window(self):
        # at A = 0 rho and |m| are uniform; only the sign of m's zeros moves,
        # one cell per step to the right, as a front of +0.0 into -0.0
        cfg = config(make_problem(1.0, 0.0, 1.0, -0.0, beta=1.0), n_cells=400)
        got = want = init_state(cfg)
        assert window_of(got) == (200 - fv._CHUNK, 200 + fv._CHUNK)
        for _ in range(40):
            got = step(got, cfg, dt_cap=1e-3)
            want = reference_step(want, cfg, dt_cap=1e-3)
            assert_bitwise_equal(got, want)
        assert np.flatnonzero(~np.signbit(want.m))[-1] == 239
        assert window_of(got)[1] > 240


class TestStepContract:
    CFG = config(REGION2, n_cells=200, x_lo=-1.5, x_hi=2.5)

    def test_step_leaves_its_argument_untouched(self):
        s0 = init_state(self.CFG)
        fields = (s0.x, s0.rho, s0.m)
        saved = [a.copy() for a in fields]
        first = step(s0, self.CFG)
        second = step(s0, self.CFG)
        assert all(a is b for a, b in zip((s0.x, s0.rho, s0.m), fields))
        assert all(np.array_equal(a, b) for a, b in zip(fields, saved))
        assert (s0.t, s0.clamped, s0.boundary_mass, s0.boundary_mom) == (0.0, 0, 0.0, 0.0)
        assert s0.scratch is None
        assert_bitwise_equal(first, second)

        rho1, m1 = first.rho.copy(), first.m.copy()
        third = step(first, self.CFG)
        assert np.array_equal(first.rho, rho1)
        assert np.array_equal(first.m, m1)
        assert third.rho is not first.rho and third.m is not first.m

    def test_state_without_scratch_steps_alike(self):
        built = init_state(self.CFG)
        by_hand = FvState(x=built.x, rho=built.rho.copy(), m=built.m.copy(), t=0.0)
        assert_bitwise_equal(step(by_hand, self.CFG), step(built, self.CFG))

        stepped = step(built, self.CFG)
        bare = FvState(
            x=stepped.x,
            rho=stepped.rho.copy(),
            m=stepped.m.copy(),
            t=stepped.t,
            clamped=stepped.clamped,
            boundary_mass=stepped.boundary_mass,
            boundary_mom=stepped.boundary_mom,
        )
        assert stepped.scratch is not None and bare.scratch is None
        assert_bitwise_equal(step(bare, self.CFG), step(stepped, self.CFG))

    def test_scratch_of_another_grid_is_not_reused(self):
        stepped = step(init_state(self.CFG), self.CFG)
        cfg = config(REGION1, n_cells=300)
        fresh = init_state(cfg)
        carried = dataclasses.replace(fresh, scratch=stepped.scratch)
        assert_bitwise_equal(step(carried, cfg), step(fresh, cfg))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_density_raises(self, value):
        s0 = init_state(self.CFG)
        rho = s0.rho.copy()
        rho[57] = value
        with pytest.raises(NonPositiveDensity):
            step(dataclasses.replace(s0, rho=rho), self.CFG)

    def test_infinite_momentum_raises(self):
        s0 = init_state(self.CFG)
        m = s0.m.copy()
        m[120] = np.inf
        with pytest.raises(CflViolation, match="not finite"):
            step(dataclasses.replace(s0, m=m), self.CFG)

    def test_zero_time_step_raises(self):
        with pytest.raises(CflViolation, match="no admissible time step"):
            step(init_state(self.CFG), self.CFG, dt_cap=0.0)

    def test_step_budget_raises(self):
        with pytest.raises(CflViolation, match="within 3 steps"):
            run(self.CFG, max_steps=3)

    def test_run_calls_the_module_step_once_per_step(self, monkeypatch):
        calls = []
        real_step = fv.step

        def counting_step(state, cfg, dt_cap=None):
            assert len(state.rho) == cfg.n_cells
            after = real_step(state, cfg, dt_cap=dt_cap)
            calls.append((state, after))
            return after

        monkeypatch.setattr(fv, "step", counting_step)
        final = run(self.CFG)
        assert calls[0][0].t == 0.0
        assert all(nxt is prev for (_, prev), (nxt, _) in zip(calls, calls[1:]))
        assert calls[-1][1] is final
        assert_bitwise_equal(final, reference_run(self.CFG))

    WIDE = config(REGION2, n_cells=800, x_lo=-1.5, x_hi=2.5)

    def windowed_state(self):
        state = init_state(self.WIDE)
        for _ in range(30):
            state = step(state, self.WIDE)
        a, b = window_of(state)
        assert 5 < a and b < 795
        return state

    def test_stepped_fields_are_read_only(self):
        built = init_state(self.WIDE)
        for state in (built, step(init_state(self.CFG), self.CFG), self.windowed_state()):
            for field in (state.rho, state.m):
                with pytest.raises(ValueError):
                    field[3] = 1.0

    def test_states_built_around_a_window_step_like_reference(self):
        stepped = self.windowed_state()
        edited = stepped.rho.copy()
        edited[3] *= 1.5  # a far cell, outside the window
        by_hand = FvState(
            x=stepped.x,
            rho=edited,
            m=stepped.m,
            t=stepped.t,
            boundary_mass=stepped.boundary_mass,
            boundary_mom=stepped.boundary_mom,
        )
        states = [by_hand, dataclasses.replace(stepped, rho=edited), dataclasses.replace(stepped)]
        for copied in (copy.deepcopy(stepped), pickle.loads(pickle.dumps(stepped))):
            copied.rho[3] *= 1.5
            states.append(copied)
        reassigned = step(stepped, self.WIDE)
        reassigned.rho = edited
        states.append(reassigned)
        for state in states:
            assert_bitwise_equal(step(state, self.WIDE), reference_step(state, self.WIDE))

    @pytest.mark.parametrize("cell", [0, 5, 400, 799])
    def test_checks_see_cells_outside_the_window(self, cell):
        stepped = self.windowed_state()
        rho, m = stepped.rho.copy(), stepped.m.copy()
        rho[cell] = 0.0
        with pytest.raises(NonPositiveDensity):
            step(dataclasses.replace(stepped, rho=rho), self.WIDE)
        m[cell] = np.inf
        with pytest.raises(CflViolation, match="not finite"):
            step(dataclasses.replace(stepped, m=m), self.WIDE)

    def test_far_flux_overflow_takes_full_grid(self, monkeypatch):
        # u m overflows on every face, so the window's step gives up and the
        # full grid turns far cells into nan
        cfg = config(make_problem(1.0, 1e200, 1.0, 2e200), n_cells=400)
        s0 = init_state(cfg)
        calls = []
        real_advance = fv._advance

        def advance(state, cfg, dt_cap, sc, a, b, win):
            new = real_advance(state, cfg, dt_cap, sc, a, b, win)
            calls.append((a, b, new is None))
            return new

        monkeypatch.setattr(fv, "_advance", advance)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = step(s0, cfg), reference_step(s0, cfg)
        assert calls == [(200 - fv._CHUNK, 200 + fv._CHUNK, True), (0, 400, False)]
        assert np.isnan(want.m[0])
        assert_same_bits(got, want)
        assert (got.t, got.clamped) == (want.t, want.clamped)
