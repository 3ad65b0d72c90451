"""Property test: valid data give a typed error or a well-formed wave fan.

On every draw the phase-plane region, the pressureless case and the fan's
variant agree, at A = 0 as at A > 0.

Draws cover wide but valid ranges: densities 1e-4..1e4, |u| <= 50, alpha in
0.01..0.99, A from 0 to three times the compressive threshold A0 (or the
same multiple of rho_l**alpha when the data are not compressive) and beta in
[-5, 5]. The examples are derandomized and bounded, so every run draws the
same data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chapgas import ChapgasError, pressureless_case, problem_scale, solve
from chapgas.waves import _profile
from helpers import make_problem


@st.composite
def problems(draw):
    rho_l = 10.0 ** draw(st.floats(-4.0, 4.0))
    rho_r = 10.0 ** draw(st.floats(-4.0, 4.0))
    u_l = draw(st.floats(-50.0, 50.0))
    u_r = draw(st.floats(-50.0, 50.0))
    # one draw in five each has equal velocities (a single contact) or A = 0
    if draw(st.integers(0, 4)) == 0:
        u_r = u_l
    alpha = draw(st.floats(0.01, 0.99))
    beta = draw(st.floats(-5.0, 5.0))
    a_ref = rho_l**alpha * (u_l - u_r if u_l > u_r else 1.0)
    a = 3.0 * a_ref * draw(st.floats(0.0, 1.0)) if draw(st.integers(0, 4)) else 0.0
    return make_problem(rho_l, u_l, rho_r, u_r, a=a, alpha=alpha, beta=beta)


def _probe_points(positions):
    """One x inside each segment between (and beyond) the wave positions, or
    None where the segment has no float strictly inside it."""
    first, last = positions[0], positions[-1]
    points = [first - max(1.0, abs(first))]
    for lo, hi in zip(positions[:-1], positions[1:]):
        mid = 0.5 * (lo + hi)
        points.append(mid if lo < mid < hi else None)
    points.append(last + max(1.0, abs(last)))
    return points


# the variant each phase-plane region gives at A > 0, and the pressureless
# case it reduces to
_REGION_FANS = {
    "I": ("rarefaction_contact", "expansion"),
    "OnJ": ("single_contact", "contact"),
    "II": ("shock_contact", "compression"),
    "OnSdelta": ("delta_shock", "compression"),
    "III": ("delta_shock", "compression"),
}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(p=problems(), t=st.floats(0.1, 10.0))
def test_fan_is_well_formed(p, t):
    region = p.region
    variant, case = _REGION_FANS[region.value]
    assert pressureless_case(p) == case
    if region.value == "I" and p.params.pressureless:
        variant = "two_contacts_vacuum"
    try:
        fan = solve(p)
    except ChapgasError:
        return
    assert fan.variant == variant
    assert len(fan.states) == len(fan.waves) + 1
    assert fan.states[0] == p.left and fan.states[-1] == p.right

    tol = 1e-12 * problem_scale(p)
    speeds = [wave.path.c for wave in fan.waves]
    assert all(b - a >= -tol for a, b in zip(speeds[:-1], speeds[1:]))
    if fan.variant == "shock_contact":
        assert fan.path("S1").c <= fan.path("J").c

    positions = [wave.path.position(t) for wave in fan.waves]
    checks = [
        (x, seg)
        for x, seg in zip(_probe_points(positions), fan.states)
        if x is not None and seg is not None
    ]
    rho, u = _profile(fan, np.array([x for x, _ in checks]), t)
    for (_, seg), rho_k, u_k in zip(checks, rho, u):
        assert rho_k == seg.rho
        assert u_k == seg.v + p.params.beta * t
