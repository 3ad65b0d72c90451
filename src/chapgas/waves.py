"""Exact Riemann solution: fan construction and evaluation.

Every wave rides a parabola x(t) = c t + beta t^2 / 2; the fan types below
store the drift-free coefficients c, never closures, so two problems that
differ only in beta produce identical stored coefficients. Evaluation
reports the physical velocity u = v + beta t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .delta import DeltaShockWave, make_delta_wave
from .errors import (
    DensityOutOfRange,
    NegativeTime,
    OutsideFan,
    PressurelessNotApplicable,
    RegionMismatch,
)
from .states import (
    GasParams,
    ParabolicPath,
    PrimState,
    Region,
    RiemannProblem,
    classify_region,
    pressureless_case,
    validate_problem,
)


@dataclass(frozen=True)
class TwoContactsVacuum:
    """Pressureless expansion: vacuum opens between two contacts."""

    variant: ClassVar[str] = "two_contacts_vacuum"
    problem: RiemannProblem
    x_left: ParabolicPath
    x_right: ParabolicPath


@dataclass(frozen=True)
class SingleContact:
    """Equal-velocity data: one contact carrying the density jump."""

    variant: ClassVar[str] = "single_contact"
    problem: RiemannProblem
    x_c: ParabolicPath


@dataclass(frozen=True)
class RarefactionContact:
    """Rarefaction (edges x1m, x1p) followed by a contact at x2."""

    variant: ClassVar[str] = "rarefaction_contact"
    problem: RiemannProblem
    star: PrimState
    x1m: ParabolicPath
    x1p: ParabolicPath
    x2: ParabolicPath


@dataclass(frozen=True)
class ShockContact:
    """1-shock at x1, intermediate plateau, contact at x2."""

    variant: ClassVar[str] = "shock_contact"
    problem: RiemannProblem
    star: PrimState
    x1: ParabolicPath
    x2: ParabolicPath


@dataclass(frozen=True)
class DeltaShock:
    """Single weighted Dirac measure separating the data states."""

    variant: ClassVar[str] = "delta_shock"
    problem: RiemannProblem
    delta: DeltaShockWave


WaveFan = Union[TwoContactsVacuum, SingleContact, RarefactionContact, ShockContact, DeltaShock]


def intermediate_state(p: RiemannProblem) -> PrimState:
    """Star state joining the 1-wave through the left state to the contact.

    Solves v* - A/rho***alpha = w_l with v* = u_r. Defined for regions I and
    II (and degenerately on the contact boundary); compressive region III
    data have no classical intermediate state.
    """
    region = classify_region(p)
    if region in (Region.III, Region.OnSdelta):
        raise RegionMismatch(f"no intermediate state in region {region.value}")
    g = p.params
    # chap(rho_star) must equal u_r - u_l + chap(rho_l), positive here
    gap = p.right.v - p.left.v + g.chap(p.left.rho)
    try:
        rho_star = (g.A / gap) ** (1.0 / g.alpha)
    except OverflowError:
        rho_star = math.inf
    if not 0.0 < rho_star < math.inf:
        raise DensityOutOfRange(
            f"star density (A/gap)**(1/alpha) = ({g.A!r}/{gap!r})**(1/{g.alpha!r}) "
            "leaves the float64 range"
        )
    return PrimState(rho=rho_star, v=p.right.v)


def rarefaction_state(xi: float, t: float, left: PrimState, g: GasParams) -> PrimState:
    """State inside the rarefaction fan at characteristic speed xi, time t.

    xi is the lambda_1 value of the sought state at time t, so the state
    satisfies eigenvalues(state, g, t)[0] == xi. The fan spans
    lambda_1(left, t) <= xi; the caller bounds xi above by the fan tail.
    """
    if g.pressureless:
        raise PressurelessNotApplicable("rarefaction waves require A > 0")
    q_l = g.chap(left.rho)
    w_l = left.v - q_l
    xs = xi - g.beta * t
    head = left.v - g.alpha * q_l
    if xs < head:
        raise OutsideFan(f"xi = {xi} lies left of the fan head at time {t}")
    rho = (g.A * (1.0 - g.alpha) / (xs - w_l)) ** (1.0 / g.alpha)
    v = (xs - g.alpha * w_l) / (1.0 - g.alpha)
    return PrimState(rho=rho, v=v)


def solve(p: RiemannProblem) -> WaveFan:
    """Construct the exact wave fan for the Riemann problem."""
    validate_problem(p)
    g = p.params
    beta = g.beta
    u_l, u_r = p.left.v, p.right.v

    if g.pressureless:
        case = pressureless_case(p)
        if case == "expansion":
            return TwoContactsVacuum(
                p, x_left=ParabolicPath(u_l, beta), x_right=ParabolicPath(u_r, beta)
            )
        if case == "contact":
            return SingleContact(p, x_c=ParabolicPath(u_l, beta))
        return DeltaShock(p, delta=make_delta_wave(p))

    region = classify_region(p)
    if region is Region.OnJ:
        return SingleContact(p, x_c=ParabolicPath(u_l, beta))
    if region is Region.I:
        star = intermediate_state(p)
        head = u_l - g.alpha * g.chap(p.left.rho)
        tail = star.v - g.alpha * g.chap(star.rho)
        return RarefactionContact(
            p,
            star=star,
            x1m=ParabolicPath(head, beta),
            x1p=ParabolicPath(tail, beta),
            x2=ParabolicPath(u_r, beta),
        )
    if region is Region.II:
        star = intermediate_state(p)
        shock = (star.rho * star.v - p.left.rho * u_l) / (star.rho - p.left.rho)
        if not math.isfinite(shock):
            raise DensityOutOfRange(f"shock speed overflows at star density {star.rho!r}")
        return ShockContact(
            p,
            star=star,
            x1=ParabolicPath(shock, beta),
            x2=ParabolicPath(u_r, beta),
        )
    return DeltaShock(p, delta=make_delta_wave(p))


def wave_paths(fan: WaveFan):
    """Labelled trajectories of every wave in the fan, left to right."""
    if isinstance(fan, TwoContactsVacuum):
        return (("J1", fan.x_left), ("J2", fan.x_right))
    if isinstance(fan, SingleContact):
        return (("J", fan.x_c),)
    if isinstance(fan, RarefactionContact):
        return (("R1.head", fan.x1m), ("R1.tail", fan.x1p), ("J", fan.x2))
    if isinstance(fan, ShockContact):
        return (("S1", fan.x1), ("J", fan.x2))
    if isinstance(fan, DeltaShock):
        return (("Sdelta", fan.delta.path),)
    raise TypeError(f"not a wave fan: {fan!r}")


def wave_positions(fan: WaveFan, t: float):
    """Labelled wave positions at time t."""
    return [(label, path.position(t)) for label, path in wave_paths(fan)]


def rh_residual(left: PrimState, right: PrimState, path: ParabolicPath, g: GasParams, t: float):
    """Rankine-Hugoniot residuals across a bounded discontinuity at time t.

    Returns (mass, momentum) defects [flux] - sigma(t) [density] for the
    conservative drift-frame pair (rho, rho(v + P)) with flux factor
    v + beta t. Both vanish for shocks and contacts of the fan. Raises
    DensityOutOfRange when a flux leaves the float64 range (a star density
    near the top of the range), since the defects are then inf or nan.
    """
    sigma = path.speed(t)
    ut_l = left.v + g.beta * t
    ut_r = right.v + g.beta * t
    mom_l = left.rho * (left.v - g.chap(left.rho))
    mom_r = right.rho * (right.v - g.chap(right.rho))
    e1 = (right.rho * ut_r - left.rho * ut_l) - sigma * (right.rho - left.rho)
    e2 = (mom_r * ut_r - mom_l * ut_l) - sigma * (mom_r - mom_l)
    if not (math.isfinite(e1) and math.isfinite(e2)):
        raise DensityOutOfRange(
            f"jump-condition fluxes leave the float64 range at densities "
            f"{left.rho!r} and {right.rho!r}"
        )
    return e1, e2


def _profile(fan: WaveFan, x, t):
    """Vectorized classical part (rho, u) of the solution at points (x, t).

    x and t may be any shapes that broadcast together, e.g. an (n, m) grid of
    x with t of shape (n, 1); both results have the broadcast shape, and t is
    never expanded to it, so time-only terms cost one pass over t. 0-d inputs
    give 0-d results. Vacuum reports rho = 0 with u = 0 (any quadrature weight
    multiplies by rho); points exactly on a delta trajectory report the right
    state. Use evaluate() for samples flagged by kind.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise NegativeTime("profile evaluation requires t > 0")
    shape = np.broadcast_shapes(x.shape, t.shape)
    p = fan.problem
    g = p.params
    bt = g.beta * t
    half = 0.5 * g.beta * t * t
    u_l = p.left.v + bt
    u_r = p.right.v + bt
    rho = np.empty(shape, dtype=float)
    u = np.empty(shape, dtype=float)

    if isinstance(fan, SingleContact):
        on_left = x < fan.x_c.c * t + half
        rho[...] = np.where(on_left, p.left.rho, p.right.rho)
        u[...] = np.where(on_left, u_l, u_r)

    elif isinstance(fan, TwoContactsVacuum):
        xl = fan.x_left.c * t + half
        xr = fan.x_right.c * t + half
        left = x <= xl
        right = x >= xr
        rho[...] = np.where(left, p.left.rho, np.where(right, p.right.rho, 0.0))
        u[...] = np.where(left, u_l, np.where(right, u_r, 0.0))

    elif isinstance(fan, DeltaShock):
        on_left = x < fan.delta.v_delta * t + half
        rho[...] = np.where(on_left, p.left.rho, p.right.rho)
        u[...] = np.where(on_left, u_l, u_r)

    elif isinstance(fan, ShockContact):
        x1 = fan.x1.c * t + half
        x2 = fan.x2.c * t + half
        left = x < x1
        star = ~left & (x < x2)
        rho[...] = np.where(left, p.left.rho, np.where(star, fan.star.rho, p.right.rho))
        u[...] = np.where(left, u_l, np.where(star, fan.star.v + bt, u_r))

    elif isinstance(fan, RarefactionContact):
        x1m = fan.x1m.c * t + half
        x1p = fan.x1p.c * t + half
        x2 = fan.x2.c * t + half
        left = x <= x1m
        interior = ~left & (x < x1p)
        star = ~left & ~interior & (x < x2)
        rho[...] = np.where(left, p.left.rho, np.where(star, fan.star.rho, p.right.rho))
        u[...] = np.where(left, u_l, np.where(star | interior, fan.star.v + bt, u_r))
        if np.any(interior):
            q_l = g.chap(p.left.rho)
            w_l = p.left.v - q_l
            x_i, half_i, t_i, bt_i = (
                np.broadcast_to(a, shape)[interior] for a in (x, half, t, bt)
            )
            xs = (x_i - half_i) / t_i
            rho[interior] = (g.A * (1.0 - g.alpha) / (xs - w_l)) ** (1.0 / g.alpha)
            u[interior] = (xs - g.alpha * w_l) / (1.0 - g.alpha) + bt_i

    else:
        raise TypeError(f"not a wave fan: {fan!r}")

    return rho, u


class SampleKind:
    REGULAR = "regular"
    VACUUM = "vacuum"
    ON_DELTA = "delta"


@dataclass(frozen=True)
class SolutionSample:
    """Pointwise solution value; rho/u for regular points, weight/u_delta on
    the delta trajectory, neither in a vacuum."""

    kind: str
    rho: float | None = None
    u: float | None = None
    weight: float | None = None
    u_delta: float | None = None


@dataclass(frozen=True)
class SolutionSlice:
    """Solution at an array of points x at one time t.

    kind, rho and u have the shape of x; rho and u are nan wherever kind is
    not regular. weight and u_delta are the delta's running weight and
    velocity at t for a delta-shock fan (whether or not any point sits on
    the delta), None otherwise.
    """

    kind: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    weight: float | None = None
    u_delta: float | None = None


def evaluate(
    fan: WaveFan, x: float | np.ndarray, t: float, loc_tol: float | None = None
) -> SolutionSample | SolutionSlice:
    """Sample the solution at points x and one time t > 0.

    Points within loc_tol of a delta trajectory are on the delta and report
    its running weight w(t) and velocity; loc_tol defaults to
    1e-9 * max(1, |x|) per point. Points strictly between the two contacts
    of a vacuum fan are vacuum; all others are regular. A scalar x gives a
    SolutionSample, an array x a SolutionSlice of the same shape.
    """
    if t <= 0.0:
        raise NegativeTime(f"evaluation requires t > 0, got t = {t}")
    xa = np.asarray(x, dtype=float)
    if loc_tol is None:
        loc_tol = 1e-9 * np.maximum(1.0, np.abs(xa))

    rho, u = _profile(fan, xa, t)
    kind = np.full(xa.shape, SampleKind.REGULAR, dtype=object)
    special = np.zeros(xa.shape, dtype=bool)
    weight = u_delta = None
    if isinstance(fan, DeltaShock):
        special = np.abs(xa - fan.delta.position(t)) <= loc_tol
        kind[special] = SampleKind.ON_DELTA
        weight, u_delta = fan.delta.weight(t), fan.delta.u_delta(t)
    elif isinstance(fan, TwoContactsVacuum):
        special = (fan.x_left.position(t) < xa) & (xa < fan.x_right.position(t))
        kind[special] = SampleKind.VACUUM
    rho[special] = np.nan
    u[special] = np.nan

    if xa.ndim > 0:
        return SolutionSlice(kind=kind, rho=rho, u=u, weight=weight, u_delta=u_delta)
    k = kind.item()
    if k == SampleKind.REGULAR:
        return SolutionSample(kind=k, rho=float(rho), u=float(u))
    if k == SampleKind.ON_DELTA:
        return SolutionSample(kind=k, weight=weight, u_delta=u_delta)
    return SolutionSample(kind=k)
