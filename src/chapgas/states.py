"""Containers and pointwise algebra for the gas model.

The model is one-dimensional gas dynamics with a generalized Chaplygin
pressure P(rho) = -A / rho**alpha (A >= 0, 0 < alpha < 1) and a constant
acceleration source beta acting on the momentum:

    rho_t + (rho u)_x = 0,
    (rho (u + P))_t + (rho u (u + P))_x = beta rho.

At A = 0 the system degenerates to the sticky-particle (pressureless)
equations. The substitution v = u - beta t removes the source and leaves a
conservative system whose flux carries an explicit factor (v + beta t); all
closed-form wave algebra below lives in the drift-free velocity v, and only
trajectories and reported velocities see beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AlphaOutOfRange,
    NegativeAmplitude,
    NonFiniteInput,
    NonPositiveDensity,
)


@dataclass(frozen=True)
class GasParams:
    """Pressure law and friction parameters.

    A     : Chaplygin pressure amplitude, >= 0 (A = 0 is pressureless)
    alpha : pressure exponent, strictly in (0, 1) at every A
    beta  : momentum source strength (any sign)
    """

    A: float
    alpha: float
    beta: float = 0.0

    @property
    def pressureless(self) -> bool:
        return self.A == 0.0

    def chap(self, rho: float) -> float:
        """Magnitude A / rho**alpha of the Chaplygin pressure."""
        return self.A / rho ** self.alpha


@dataclass(frozen=True)
class PrimState:
    """Primitive state (density, drift-free velocity).

    rho must be positive; a vacuum is never represented as a PrimState.
    At t = 0 the drift-free velocity v equals the physical velocity u.
    """

    rho: float
    v: float


class Region(Enum):
    """Position of the right state in the (rho, v) phase plane.

    Relative to the curves through the left state: I is above the contact
    line v = u_l, II is between the contact line and the line
    v = u_l - A/rho_l**alpha, III is at or below that lower line. The two
    boundary tags mark exact equality; OnJ takes priority at u_r == u_l.
    """

    I = "I"
    II = "II"
    III = "III"
    OnJ = "OnJ"
    OnSdelta = "OnSdelta"


@dataclass(frozen=True)
class RiemannProblem:
    """Two constant states separated at x = 0 at time zero.

    Construction validates the data, raising a ValidationError subclass if
    they are unusable, so every RiemannProblem in existence is usable. It
    then stores the right state's phase-plane region as region, which every
    solver reads. That field is derived: no constructor argument, not in
    repr, equality or hash, and dataclasses.replace recomputes it.
    """

    left: PrimState
    right: PrimState
    params: GasParams
    region: Region = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.params
        for name in ("A", "alpha", "beta"):
            _require_finite(getattr(g, name), name)
        if g.A < 0.0:
            raise NegativeAmplitude(f"A must be >= 0, got {g.A!r}")
        if not (0.0 < g.alpha < 1.0):
            raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {g.alpha!r}")
        for name, s in (("left", self.left), ("right", self.right)):
            _require_finite(s.rho, f"{name}.rho")
            _require_finite(s.v, f"{name}.v")
            if s.rho <= 0.0:
                raise NonPositiveDensity(f"{name}.rho must be > 0, got {s.rho!r}")
        object.__setattr__(self, "region", _classify(self))


@dataclass(frozen=True)
class ParabolicPath:
    """Trajectory x(t) = c t + beta t^2 / 2.

    Every wave in this model rides such a parabola; c is the drift-free
    speed and is the quantity stored and compared throughout.
    """

    c: float
    beta: float

    def position(self, t: float):
        return self.c * t + 0.5 * self.beta * t * t

    def speed(self, t: float):
        return self.c + self.beta * t


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteInput(f"{name} must be finite, got {value!r}")


def problem_scale(p: RiemannProblem) -> float:
    """Magnitude scale used to normalize residual tolerances."""
    return max(
        1.0,
        p.left.rho,
        p.right.rho,
        abs(p.left.v),
        abs(p.right.v),
        p.params.A,
        abs(p.params.beta),
    )


def eigenvalues(state: PrimState, g: GasParams, t: float = 0.0):
    """Characteristic speeds (lambda_1, lambda_2) at time t.

    lambda_2 - lambda_1 = A alpha / rho**alpha > 0 for A > 0; at A = 0 the
    system is weakly hyperbolic with the double eigenvalue u.
    """
    lam2 = state.v + g.beta * t
    return lam2 - g.alpha * g.chap(state.rho), lam2


def riemann_invariants(state: PrimState, g: GasParams):
    """Invariants (w, z) = (v - A/rho**alpha, v).

    w is constant across 1-waves, z across 2-contacts.
    """
    return state.v - g.chap(state.rho), state.v


_CASES = {Region.I: "expansion", Region.OnJ: "contact"}


def pressureless_case(p: RiemannProblem) -> str:
    """Ordering of the data velocities: 'expansion', 'contact' or 'compression'.

    This is the pressureless limit of the phase plane, read off p.region:
    regions I, OnJ and the compressive rest (II, OnSdelta, III) map to the
    three cases, and at A = 0 the region is already OnJ, I or III.
    """
    return _CASES.get(p.region, "compression")


def _classify(p: RiemannProblem) -> Region:
    """Locate the right state in the phase plane cut by the left state's curves.

    Comparisons are exact; boundary data land on the boundary tags. Every
    valid problem is classified. At A = 0 the lower line coincides with the
    contact line (w_l is u_l bit for bit), so region II is empty and the
    result is OnJ, I or III as u_r equals, exceeds or falls below u_l: the
    pressureless contact, expansion and compression of pressureless_case.
    """
    u_l = p.left.v
    u_r = p.right.v
    w_l = u_l - p.params.chap(p.left.rho)
    if u_r == u_l:
        return Region.OnJ
    if u_r > u_l:
        return Region.I
    if u_r == w_l:
        return Region.OnSdelta
    if u_r > w_l:
        return Region.II
    return Region.III
