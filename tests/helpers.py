"""Shared constructors and region-targeted samplers for the test suite."""

from __future__ import annotations

import json

import numpy as np

from chapgas import GasParams, PrimState, RiemannProblem, thresholds


def make_problem(rho_l, u_l, rho_r, u_r, a=0.0, alpha=0.5, beta=0.0):
    return RiemannProblem(
        left=PrimState(rho=float(rho_l), v=float(u_l)),
        right=PrimState(rho=float(rho_r), v=float(u_r)),
        params=GasParams(A=float(a), alpha=float(alpha), beta=float(beta)),
    )


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name} in output")


def loads_strict(text: str):
    """Parse JSON, failing on the NaN/Infinity literals Python's json emits."""
    return json.loads(text, parse_constant=_reject_constant)


def draw_state(rng: np.random.Generator):
    return float(rng.uniform(0.1, 10.0)), float(rng.uniform(-5.0, 5.0))


def rh_scales(left: PrimState, right: PrimState, g: GasParams, t: float):
    """Flux magnitudes normalizing the two jump-condition residuals.

    Star densities can be enormous for near-threshold region-II data, so a
    defect of the mass condition is small only relative to the mass fluxes
    actually entering it (and likewise for momentum).
    """
    ut_l, ut_r = left.v + g.beta * t, right.v + g.beta * t
    mom_l = left.rho * (left.v - g.chap(left.rho))
    mom_r = right.rho * (right.v - g.chap(right.rho))
    s1 = max(1.0, abs(left.rho * ut_l), abs(right.rho * ut_r))
    s2 = max(1.0, abs(mom_l * ut_l), abs(mom_r * ut_r))
    return s1, s2


def draw_region_problem(rng: np.random.Generator, region: str, alpha: float, beta: float):
    """One random problem guaranteed to classify into the requested region.

    Margins keep the draw away from the region boundaries so that exact
    comparisons in the classifier cannot flip under round-off.
    """
    while True:
        rho_l, u_l = draw_state(rng)
        rho_r, u_r = draw_state(rng)
        if region == "I":
            if u_r < u_l + 1e-3:
                continue
            a = float(rng.uniform(1e-3, 2.0)) * rho_l**alpha
            return make_problem(rho_l, u_l, rho_r, u_r, a, alpha, beta)
        if u_l - u_r < 1e-3:
            continue
        a0 = (u_l - u_r) * rho_l**alpha
        if region == "II":
            a = a0 * float(rng.uniform(1.001, 2.0))
        elif region == "III":
            a = a0 * float(rng.uniform(0.001, 0.999))
        else:
            raise ValueError(f"unknown region {region!r}")
        p = make_problem(rho_l, u_l, rho_r, u_r, a, alpha, beta)
        # a0 stays consistent with the library's own thresholds
        assert abs(thresholds(p)[0] - a0) <= 1e-12 * max(1.0, a0)
        return p


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
