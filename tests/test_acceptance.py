"""Acceptance gate: the six binding criteria, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each test prints exactly one line naming the criterion, the measured worst
quantity, and PASS or FAIL, then asserts. Tolerances follow the conventions
recorded in the project notes: residuals are normalized by the problem
scale raised to the residual's physical dimension (mass rate ~ scale^2,
momentum rate ~ scale^3), and jump-condition defects are additionally
normalized by the fluxes entering the condition, which keeps the stated
figures meaningful when the star density blows up near the region border.
"""

import time
from dataclasses import replace

import numpy as np

from chapgas import (
    DeltaShockWave,
    FvConfig,
    concentration_integrals,
    entropy_check,
    grh_residual,
    gate_cells,
    limit_study,
    make_delta_wave,
    measure_delta_mass,
    problem_scale,
    residual_battery,
    rh_residual,
    riemann_invariants,
    run,
    solve,
    speed_quadratic_residual,
    thresholds,
    wave_offsets,
    weak_residual,
)
from chapgas.delta import c_identity_residual
from chapgas.states import eigenvalues
from helpers import draw_region_problem, make_problem, rh_scales

ALPHAS = (0.3, 0.5, 0.8)
BETAS = (-1.0, 0.0, 2.0)


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{word}] {label}: {detail}")


def _rh_ok(p, left, right, path) -> float:
    """Worst flux-normalized jump-condition defect over t in {0, 1, 10}."""
    worst = 0.0
    for t in (0.0, 1.0, 10.0):
        e1, e2 = rh_residual(left, right, path, p.params, t)
        s1, s2 = rh_scales(left, right, p.params, t)
        s = problem_scale(p)
        worst = max(worst, abs(e1) / max(s1, s**2), abs(e2) / max(s2, s**3))
    return worst


def test_criterion_1_closed_form_consistency():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_inv = 0.0
    worst_rh = 0.0
    worst_grh = 0.0
    worst_quad = 0.0
    entropy_ok = True
    for region in ("I", "II", "III"):
        for _ in range(200):
            alpha = float(rng.choice(ALPHAS))
            beta = float(rng.choice(BETAS))
            p = draw_region_problem(rng, region, alpha, beta)
            s = problem_scale(p)
            fan = solve(p)
            if fan.variant in ("rarefaction_contact", "shock_contact"):
                w_l = riemann_invariants(p.left, p.params)[0]
                w_s = riemann_invariants(fan.star, p.params)[0]
                worst_inv = max(worst_inv, abs(w_s - w_l) / max(1.0, abs(w_l)))
                worst_rh = max(worst_rh, _rh_ok(p, fan.star, p.right, fan.path("J")))
            if fan.variant == "shock_contact":
                worst_rh = max(worst_rh, _rh_ok(p, p.left, fan.star, fan.path("S1")))
                lam1_l = eigenvalues(p.left, p.params)[0]
                lam1_s, lam2_s = eigenvalues(fan.star, p.params)
                sigma = fan.path("S1").c
                margin = min(lam1_l - sigma, sigma - lam1_s, lam2_s - sigma)
                entropy_ok &= margin >= -1e-12 * s
            if fan.variant == "rarefaction_contact":
                entropy_ok &= (
                    fan.path("R1.head").c <= fan.path("R1.tail").c <= fan.path("J").c
                )
            if fan.variant == "delta_shock":
                for t in (0.0, 1.0, 10.0):
                    r1, r2, r3 = grh_residual(p, fan.delta, t)
                    worst_grh = max(
                        worst_grh, abs(r1), abs(r2) / s**2, abs(r3) / s**3
                    )
                worst_quad = max(
                    worst_quad, abs(speed_quadratic_residual(p, fan.delta)) / s**3
                )
                entropy_ok &= entropy_check(p, fan.delta)
    elapsed = time.perf_counter() - start
    ok = (
        worst_inv <= 1e-12
        and worst_rh <= 1e-12
        and worst_grh <= 1e-10
        and worst_quad <= 1e-10
        and entropy_ok
        and elapsed < 5.0
    )
    verdict(
        1,
        "closed-form consistency (600 random problems)",
        ok,
        f"invariant {worst_inv:.2e} <= 1e-12, jump {worst_rh:.2e} <= 1e-12, "
        f"grh {worst_grh:.2e} <= 1e-10, quadratic {worst_quad:.2e} <= 1e-10, "
        f"entropy {'held' if entropy_ok else 'VIOLATED'}, {elapsed:.2f}s < 5s",
    )
    assert ok


def test_criterion_2_weak_form_battery():
    representatives = {
        "rarefaction_contact": make_problem(1.0, 0.0, 0.5, 1.2, a=1.0),
        "shock_contact": make_problem(1.0, 1.8, 2.0, 1.2, a=1.5),
        "delta_shock": make_problem(1.0, 1.0, 1.0, -1.0, a=0.25, beta=2.0),
        "single_contact": make_problem(2.0, 0.5, 1.0, 0.5, a=0.5),
        "two_contacts_vacuum": make_problem(1.0, -1.0, 1.0, 1.0, beta=-1.0),
    }
    start = time.perf_counter()
    worst_rel = 0.0
    monotone = True
    for name, p in representatives.items():
        fan = solve(p)
        assert fan.variant == name
        s = problem_scale(p)
        battery = residual_battery(fan)
        for psi in battery:
            series = []
            for n in (16, 32, 64, 128):
                r1, r2 = weak_residual(fan, psi, n)
                series.append(max(abs(r1) / s**2, abs(r2) / s**3))
            worst_rel = max(worst_rel, series[-1])
            floor = 1e-12
            for prev, cur in zip(series[:-1], series[1:]):
                monotone &= cur <= 1.1 * prev or cur <= floor

    sabotage = representatives["delta_shock"]
    fan = solve(sabotage)
    bad = replace(
        fan,
        delta=DeltaShockWave(fan.delta.path, fan.delta.w0 * 1.1),
    )
    s = problem_scale(sabotage)
    sab_worst = max(
        max(abs(r) for r in weak_residual(bad, psi, 128))
        for psi in residual_battery(bad)
    )
    sabotage_detected = sab_worst > 1e-6 * s**3
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and monotone and sabotage_detected and elapsed < 30.0
    verdict(
        2,
        "weak-form battery (5 fan types x 5 bumps)",
        ok,
        f"residual at n=128 {worst_rel:.2e} <= 1e-6 scale, monotone 16->128 "
        f"{'held' if monotone else 'VIOLATED'}, sabotage w0 x1.1 "
        f"{'detected' if sabotage_detected else 'MISSED'} "
        f"({sab_worst:.2e}), {elapsed:.2f}s < 30s",
    )
    assert ok


def test_criterion_3_source_identity():
    rng = np.random.default_rng(301)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.choice(ALPHAS))
        beta = float(rng.choice(BETAS))
        p = draw_region_problem(rng, "III", alpha, beta)
        wave = make_delta_wave(p)
        s = problem_scale(p)
        for t in (0.0, 1.0, 10.0):
            worst = max(worst, abs(c_identity_residual(p, wave, t)) / s**3)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(
        3,
        "source-term line-integral identity (100 random problems)",
        ok,
        f"|C(t) + beta w(t)| {worst:.2e} <= 1e-10 scale at t in {{0,1,10}}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_amplitude_limits():
    start = time.perf_counter()

    # (a) expansive data: star density vanishes at rate 1/alpha = 2
    report = limit_study(make_problem(1.0, 0.0, 1.0, 1.0))
    rate = report.rates["rho_star"]
    rate_ok = abs(rate - 2.0) <= 0.2 and rate >= 1.8

    # (b) concentration just above the threshold amplitude
    base = make_problem(1.0, 1.0, 1.0, 0.5, a=0.6)
    a0 = thresholds(base)[0]
    mass, momentum = concentration_integrals(base, a0 * (1.0 + 2.0**-12), 1.0)
    mass_target = 0.5
    momentum_target = 0.25
    conc_ok = (
        abs(mass - mass_target) / mass_target <= 1e-3
        and abs(momentum - momentum_target) / momentum_target <= 1e-3
    )

    # (c) delta speed reaches the pressureless value as the amplitude dies
    ref = make_problem(4.0, 1.0, 1.0, 0.0, a=1.0)
    a0_ref = thresholds(ref)[0]
    v_err = abs(
        make_delta_wave(make_problem(4.0, 1.0, 1.0, 0.0, a=a0_ref * 2.0**-12)).v_delta - 2.0 / 3.0
    )
    speed_ok = v_err <= 1e-3

    elapsed = time.perf_counter() - start
    ok = rate_ok and conc_ok and speed_ok and elapsed < 10.0
    verdict(
        4,
        "amplitude limits (vacuum rate, concentration, delta speed)",
        ok,
        f"rate {rate:.3f} in [1.8, 2.2], concentration rel "
        f"{abs(mass - mass_target) / mass_target:.2e} <= 1e-3, "
        f"|v_delta - 2/3| {v_err:.2e} <= 1e-3, {elapsed:.2f}s < 10s",
    )
    assert ok


def test_criterion_5_fv_oracle_agreement():
    start = time.perf_counter()
    position_cases = [
        ("shock_contact", make_problem(1.0, 1.8, 2.0, 1.2, a=1.5), -1.5, 2.5),
        ("rarefaction_contact", make_problem(1.0, 0.0, 0.5, 1.2, a=1.0), -2.0, 2.0),
        ("single_contact", make_problem(2.0, 0.5, 1.0, 0.5, a=0.5), -2.0, 2.0),
        ("two_contacts_vacuum", make_problem(1.0, -1.0, 1.0, 1.0), -2.0, 2.0),
    ]
    worst_cells = 0.0
    clamps_ok = True
    for name, p, x_lo, x_hi in position_cases:
        fan = solve(p)
        assert fan.variant == name
        cfg = FvConfig(problem=p, x_lo=x_lo, x_hi=x_hi, n_cells=2000, t_end=1.0)
        windows = gate_cells(cfg, fan, 0.1)[0]
        state = run(cfg)
        for _, method, cells in wave_offsets(state, windows):
            if method == "jump":
                worst_cells = max(worst_cells, abs(cells))
        if name != "two_contacts_vacuum":
            clamps_ok &= state.clamped == 0
    positions_ok = worst_cells <= 3.0

    plateau_p = position_cases[0][1]
    plateau_fan = solve(plateau_p)
    state = run(
        FvConfig(problem=plateau_p, x_lo=-1.5, x_hi=2.5, n_cells=2000, t_end=1.0)
    )
    lo = plateau_fan.path("S1").position(1.0)
    hi = plateau_fan.path("J").position(1.0)
    sel = (state.x >= lo + 0.3 * (hi - lo)) & (state.x <= hi - 0.3 * (hi - lo))
    plateau_rel = abs(float(state.rho[sel].mean()) - plateau_fan.star.rho) / (
        plateau_fan.star.rho
    )
    plateau_ok = plateau_rel <= 0.02

    worst_mass_rel = 0.0
    for p in (
        make_problem(4.0, 1.0, 1.0, 0.0),
        make_problem(1.0, 1.0, 1.0, -1.0, a=0.25),
    ):
        fan = solve(p)
        cfg = FvConfig(problem=p, x_lo=-2.0, x_hi=2.0, n_cells=4000, t_end=1.0)
        window = gate_cells(cfg, fan, 0.1)[1]
        got = measure_delta_mass(run(cfg), window)
        expected = fan.delta.weight(1.0)
        assert expected == 2.0
        worst_mass_rel = max(worst_mass_rel, abs(got - expected) / expected)
    mass_ok = worst_mass_rel <= 0.15

    elapsed = time.perf_counter() - start
    ok = positions_ok and plateau_ok and mass_ok and clamps_ok and elapsed < 120.0
    verdict(
        5,
        "finite-volume oracle agreement (N=2000 positions, plateau, delta mass)",
        ok,
        f"worst offset {worst_cells:.2f} <= 3 cells, plateau rel "
        f"{plateau_rel:.2e} <= 2e-2, delta mass rel {worst_mass_rel:.2e} <= "
        f"1.5e-1, clamps {'zero' if clamps_ok else 'NONZERO'}, "
        f"{elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_6_frame_shift_exactness():
    rng = np.random.default_rng(601)
    start = time.perf_counter()
    checked = 0
    exact = True
    for _ in range(50):
        alpha = float(rng.choice(ALPHAS))
        rho_l = float(rng.uniform(0.1, 10.0))
        u_l = float(rng.uniform(-5.0, 5.0))
        rho_r = float(rng.uniform(0.1, 10.0))
        u_r = float(rng.uniform(-5.0, 5.0))
        a = float(rng.choice([0.0, rng.uniform(0.0, 2.0) * rho_l**alpha]))
        moving = solve(make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha, beta=2.0))
        still = solve(make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha, beta=0.0))
        exact &= moving.variant == still.variant
        for (lab_m, _, path_m), (lab_s, _, path_s) in zip(moving.waves, still.waves):
            exact &= lab_m == lab_s
            exact &= path_m.c == path_s.c
            exact &= path_m.beta == 2.0 and path_s.beta == 0.0
        star_m = getattr(moving, "star", None)
        star_s = getattr(still, "star", None)
        exact &= (star_m is None) == (star_s is None)
        if star_m is not None:
            exact &= star_m.rho == star_s.rho and star_m.v == star_s.v
        delta_m = getattr(moving, "delta", None)
        delta_s = getattr(still, "delta", None)
        exact &= (delta_m is None) == (delta_s is None)
        if delta_m is not None:
            exact &= delta_m.v_delta == delta_s.v_delta
            exact &= delta_m.w0 == delta_s.w0
        checked += 1
    elapsed = time.perf_counter() - start
    ok = exact and checked == 50
    verdict(
        6,
        "frame-shift exactness (50 random problems, beta=2 vs beta=0)",
        ok,
        f"all closed-form coefficients equal with == across {checked} problems, "
        f"{elapsed:.2f}s",
    )
    assert ok
