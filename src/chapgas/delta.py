"""Delta-shock construction and its pointwise verification identities.

For compressive data the Riemann solution carries a Dirac measure on a
parabolic trajectory. Its speed, weight growth rate and trajectory follow in
closed form from the generalized Rankine-Hugoniot (GRH) system

    x'(t) = sigma(t) = u_delta(t),
    w'(t) = sigma(t) [rho] - [rho u],
    (w u_delta)'(t) = sigma(t) [rho (u - A/rho**alpha)]
                      - [rho u (u - A/rho**alpha)] + beta w(t),

with jumps evaluated at the time-shifted side velocities u_pm + beta t and
with A/rho**alpha assigned zero on the delta itself. u_delta(t) - beta t is
a constant v_delta and w(t) = w0 t. Like every wave of the model, the delta
rides a ParabolicPath, x(t) = v_delta t + beta t^2 / 2, whose speed is
sigma(t) = u_delta(t); the DeltaShockWave adds only the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import RegionMismatch
from .states import (
    ParabolicPath,
    Region,
    RiemannProblem,
    problem_scale,
)


@dataclass(frozen=True)
class DeltaShockWave:
    """Weighted Dirac measure riding path.

    path : x(t) = v_delta t + beta t^2 / 2, whose speed is
           u_delta(t) = sigma(t); the fan's Sdelta wave rides this object
    w0   : weight growth rate, w(t) = w0 t, w0 > 0
    """

    path: ParabolicPath
    w0: float

    @property
    def v_delta(self) -> float:
        """Drift-free propagation speed, u_delta(t) = v_delta + beta t."""
        return self.path.c

    def weight(self, t: float):
        return self.w0 * t


def _delta_params(p: RiemannProblem):
    """Closed-form (v_delta, w0) for admissible compressive data.

    The admissible root of the speed quadratic is
    (rho_r u_r - rho_l u_l + w0) / (rho_r - rho_l). That form cancels when the
    numerator terms nearly annihilate, so the root is evaluated through the
    conjugate pairing c / (n - h - sqrt(D)) whenever n - h < 0, where c is the
    quadratic's constant coefficient; the conjugate form carries no density
    jump in the denominator and covers near-equal densities. Exactly equal
    densities take the linear-degenerate branch.
    """
    g = p.params
    rho_l, u_l = p.left.rho, p.left.v
    rho_r, u_r = p.right.rho, p.right.v

    if rho_r == rho_l:
        v_delta = 0.5 * (u_r + u_l - g.chap(rho_l))
        w0 = rho_l * u_l - rho_r * u_r
        return v_delta, w0

    du = u_r - u_l
    dq = g.chap(rho_r) - g.chap(rho_l)
    # h is half the jump of rho * (A / rho**alpha) = A rho**(1-alpha)
    h = 0.5 * (g.A * rho_r ** (1.0 - g.alpha) - g.A * rho_l ** (1.0 - g.alpha))
    disc = rho_r * rho_l * du * (du - dq) + h * h
    root = math.sqrt(disc)

    if h > 0.0:
        # sqrt(disc) - h loses digits; disc - h^2 is the product term above
        w0 = rho_r * rho_l * du * (du - dq) / (root + h)
    else:
        w0 = root - h

    n = rho_r * u_r - rho_l * u_l
    if n - h >= 0.0:
        v_delta = (n - h + root) / (rho_r - rho_l)
    else:
        c = (rho_r * u_r * u_r - rho_l * u_l * u_l) - (
            g.A * u_r * rho_r ** (1.0 - g.alpha) - g.A * u_l * rho_l ** (1.0 - g.alpha)
        )
        v_delta = c / (n - h - root)
    return v_delta, w0


def make_delta_wave(p: RiemannProblem) -> DeltaShockWave:
    """The delta shock of data that p.region puts in region III or on the
    S_delta line (any compressive data at A = 0); else RegionMismatch."""
    if p.region not in (Region.III, Region.OnSdelta):
        raise RegionMismatch(f"delta shock requires region III data, got {p.region.value}")
    v_delta, w0 = _delta_params(p)
    return DeltaShockWave(ParabolicPath(v_delta, p.params.beta), w0)


def _side_quantities(p: RiemannProblem, t: float):
    g = p.params
    ut_l = p.left.v + g.beta * t
    ut_r = p.right.v + g.beta * t
    q_l = g.chap(p.left.rho)
    q_r = g.chap(p.right.rho)
    return ut_l, ut_r, q_l, q_r


def grh_residual(p: RiemannProblem, wave: DeltaShockWave, t: float):
    """Residuals (r1, r2, r3) of the three GRH equations at time t.

    sigma(t) = v_delta + beta t takes the problem's beta, so r1 compares
    the path's speed with it and catches a path that drifts with another
    beta; r2 and r3 test the stored (v_delta, w0) against the jump data and
    do break under perturbation.
    """
    g = p.params
    rho_l, rho_r = p.left.rho, p.right.rho
    ut_l, ut_r, q_l, q_r = _side_quantities(p, t)
    sigma = wave.v_delta + g.beta * t

    r1 = wave.path.speed(t) - sigma
    r2 = wave.w0 - (sigma * (rho_r - rho_l) - (rho_r * ut_r - rho_l * ut_l))
    jump_mom = rho_r * (ut_r - q_r) - rho_l * (ut_l - q_l)
    jump_momflux = rho_r * ut_r * (ut_r - q_r) - rho_l * ut_l * (ut_l - q_l)
    lhs = wave.w0 * (wave.v_delta + 2.0 * g.beta * t)
    r3 = lhs - (sigma * jump_mom - jump_momflux + g.beta * wave.w0 * t)
    return r1, r2, r3


def entropy_check(p: RiemannProblem, wave: DeltaShockWave) -> bool:
    """Overcompressivity: u_r <= v_delta <= u_l - A/rho_l**alpha.

    At A = 0 chap is 0.0, so the upper bound is u_l. The condition is
    time-invariant: every term in the time-shifted bracket drifts by the
    same beta t, so it is stated in the drift-free speeds. Comparisons allow
    a round-off margin and admit boundary data with equality.
    """
    tol = 1e-12 * problem_scale(p)
    upper = p.left.v - p.params.chap(p.left.rho)
    return (wave.v_delta >= p.right.v - tol) and (wave.v_delta <= upper + tol)


def c_identity_residual(p: RiemannProblem, wave: DeltaShockWave, t: float) -> float:
    """Residual C(t) + beta w(t) of the weak-form line-integral identity.

    C(t) collects the boundary terms that survive integrating the classical
    parts of the momentum identity by parts across the delta trajectory; the
    construction is consistent exactly when C(t) cancels the source term
    accumulated on the delta, i.e. C(t) = -beta w(t). Algebraically this is
    the third GRH equation, transcribed independently.
    """
    g = p.params
    rho_l, rho_r = p.left.rho, p.right.rho
    ut_l, ut_r, q_l, q_r = _side_quantities(p, t)
    sigma = wave.v_delta + g.beta * t
    c_t = (
        (rho_r * (ut_r - q_r) - rho_l * (ut_l - q_l)) * sigma
        + (rho_l * ut_l * (ut_l - q_l) - rho_r * ut_r * (ut_r - q_r))
        - wave.w0 * (wave.v_delta + 2.0 * g.beta * t)
    )
    return c_t + g.beta * wave.weight(t)


def speed_quadratic_residual(p: RiemannProblem, wave: DeltaShockWave) -> float:
    """Defect of v_delta in the speed quadratic a v^2 - b v + c = 0.

    The coefficients come straight from the two jump conditions with the
    weight eliminated: a is the density jump, b the combined momentum jump,
    c the momentum-flux jump. A faithful root makes this vanish; the check
    is independent of the branch arithmetic in _delta_params.
    """
    g = p.params
    rho_l, rho_r = p.left.rho, p.right.rho
    u_l, u_r = p.left.v, p.right.v
    a = rho_r - rho_l
    b = (rho_r * u_r - rho_l * u_l) + (
        rho_r * (u_r - g.chap(rho_r)) - rho_l * (u_l - g.chap(rho_l))
    )
    c = rho_r * u_r * (u_r - g.chap(rho_r)) - rho_l * u_l * (u_l - g.chap(rho_l))
    return (a * wave.v_delta - b) * wave.v_delta + c

