"""Finite-volume oracle: scheme, bookkeeping, locators, measurements."""

import numpy as np
import pytest

from chapgas import (
    CflViolation,
    FvConfig,
    FvState,
    GasParams,
    NonPositiveDensity,
    TimeMismatch,
    ValidationError,
    WindowOutOfDomain,
    compare_to_exact,
    init_state,
    locate_jump,
    locate_peak,
    measure_delta_mass,
    primitive_recover,
    run,
    solve,
    step,
    wave_offsets,
)
from chapgas.fv import grid
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

    def test_rejects_unusable_floor(self):
        with pytest.raises(ValidationError):
            config(REGION1, floor=0.0)
        with pytest.raises(ValidationError):
            config(REGION1, floor=1e-3)


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
        v = primitive_recover(state.rho, state.m, g)
        assert np.allclose(v[left], 1.8, rtol=0.0, atol=1e-15)
        assert np.allclose(v[~left], 1.2, rtol=0.0, atol=1e-15)


class TestPrimitiveRecover:
    def test_pressureless_is_momentum_over_density(self):
        g = GasParams(A=0.0, alpha=0.5)
        assert primitive_recover(2.0, 1.0, g) == 0.5

    def test_reference_roundtrip(self):
        g = GasParams(A=0.25, alpha=0.5)
        assert primitive_recover(1.0, 0.75, g) == 1.0

    def test_star_state_roundtrip(self):
        g = GasParams(A=0.25, alpha=0.5)
        assert primitive_recover(25.0, 18.75, g) == 0.8

    def test_rejects_nonpositive_density(self):
        with pytest.raises(NonPositiveDensity):
            primitive_recover(0.0, 1.0, GasParams(A=0.0, alpha=0.5))


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
        assert np.all(state.rho >= cfg.floor)

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
        err = compare_to_exact(state, solve(p), exclusion=0.05, t_expected=0.5)
        assert err <= 1e-12

    def test_time_mismatch_guard(self):
        state = run(config(REGION1, n_cells=200, t_end=0.5))
        with pytest.raises(TimeMismatch):
            compare_to_exact(state, solve(REGION1), exclusion=0.05, t_expected=1.0)

    def test_first_order_convergence_on_rarefaction(self):
        fan = solve(REGION1)
        errors = []
        for n in (500, 1000, 2000):
            state = run(config(REGION1, n_cells=n))
            errors.append(compare_to_exact(state, fan, exclusion=0.05, t_expected=1.0))
        assert errors[0] / errors[1] >= 1.5
        assert errors[1] / errors[2] >= 1.5

    def test_shock_contact_profile_converges(self):
        fan = solve(REGION2)
        errors = []
        for n in (500, 1000, 2000):
            state = run(config(REGION2, n_cells=n, x_lo=-1.5, x_hi=2.5))
            errors.append(compare_to_exact(state, fan, exclusion=0.1, t_expected=1.0))
        assert errors[0] / errors[1] >= 1.5
        assert errors[1] / errors[2] >= 1.5


class TestDeltaMass:
    def test_zero_before_any_evolution(self):
        state = init_state(config(PLESS_DELTA, n_cells=400))
        assert measure_delta_mass(state, 0.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "p", [PLESS_DELTA, CHAP_DELTA], ids=["pressureless", "chaplygin"]
    )
    def test_concentrated_mass_matches_weight(self, p):
        fan = solve(p)
        state = run(config(p, n_cells=2000))
        got = measure_delta_mass(state, fan.delta.position(1.0), 0.1)
        assert got == pytest.approx(fan.delta.weight(1.0), rel=0.15)

    def test_window_guards(self):
        state = init_state(config(PLESS_DELTA, n_cells=400))
        with pytest.raises(WindowOutOfDomain):
            measure_delta_mass(state, 0.0, -0.1)
        with pytest.raises(WindowOutOfDomain):
            measure_delta_mass(state, 5.0, 0.1)
        with pytest.raises(WindowOutOfDomain):
            measure_delta_mass(state, -2.0, 0.05)


class TestLocators:
    def test_jump_found_at_steepest_interface(self):
        state = synthetic_state(lambda x: np.where(x < 0.105, 2.0, 1.0))
        found = locate_jump(state, 0.08, 0.2)
        assert abs(found - 0.105) <= 0.5 * state.dx

    def test_peak_found_at_spike(self):
        state = synthetic_state(lambda x: 1.0 + 50.0 * (np.abs(x - 0.3) < 0.01))
        assert locate_peak(state, 0.25, 0.2) == pytest.approx(0.3, abs=state.dx)

    def test_window_too_small(self):
        state = synthetic_state(lambda x: np.ones_like(x))
        with pytest.raises(WindowOutOfDomain):
            locate_jump(state, 0.0, 0.01)


class TestWaveOffsets:
    def test_shock_contact_within_gate(self):
        state = run(config(REGION2, n_cells=2000, x_lo=-1.5, x_hi=2.5))
        offsets = wave_offsets(state, solve(REGION2))
        assert [label for label, _, _ in offsets] == ["S1", "J"]
        assert all(method == "jump" for _, method, _ in offsets)
        assert all(abs(cells) <= 3.0 for _, _, cells in offsets)

    def test_rarefaction_edges_omitted(self):
        state = run(config(REGION1, n_cells=500))
        offsets = wave_offsets(state, solve(REGION1))
        assert [label for label, _, _ in offsets] == ["J"]

    def test_delta_tagged_as_peak(self):
        state = run(config(CHAP_DELTA, n_cells=500))
        offsets = wave_offsets(state, solve(CHAP_DELTA))
        assert [(label, method) for label, method, _ in offsets] == [("Sdelta", "peak")]

    def test_vacuum_contacts_land_exactly(self):
        state = run(config(VACUUM, n_cells=500))
        offsets = wave_offsets(state, solve(VACUUM))
        assert [label for label, _, _ in offsets] == ["J1", "J2"]
        assert all(abs(cells) <= 3.0 for _, _, cells in offsets)

    def test_zero_amplitude_contact_omitted(self):
        p = make_problem(2.0, 0.7, 2.0, 0.7, a=0.5)
        state = run(config(p, n_cells=200))
        assert wave_offsets(state, solve(p)) == []


class TestPlateau:
    def test_region_two_plateau_matches_star_density(self):
        fan = solve(REGION2)
        state = run(config(REGION2, n_cells=1000, x_lo=-1.5, x_hi=2.5))
        x1 = fan.path("S1").position(1.0)
        x2 = fan.path("J").position(1.0)
        mid = np.abs(state.x - 0.5 * (x1 + x2)) <= 0.2 * (x2 - x1)
        plateau = float(np.mean(state.rho[mid]))
        assert plateau == pytest.approx(fan.star.rho, rel=0.02)
