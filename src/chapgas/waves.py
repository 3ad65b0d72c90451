"""Exact Riemann solution: fan construction and evaluation.

Every solution is a WaveFan: an ordered run of waves, each riding a parabola
x(t) = c t + beta t^2 / 2, with a state on every segment between them. The
waves store the drift-free coefficients c, never closures, so two problems
that differ only in beta produce identical stored coefficients. Evaluation
reports the physical velocity u = v + beta t.

Tie rule: a point exactly on a wave takes the state on the wave's right,
unless that segment is not constant (a vacuum or a rarefaction interior);
then it takes the state on the wave's left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .delta import DeltaShockWave, make_delta_wave
from .errors import (
    DensityOutOfRange,
    NegativeTime,
    OutsideFan,
    PressurelessNotApplicable,
    RegionMismatch,
    ValidationError,
)
from .states import (
    GasParams,
    ParabolicPath,
    PrimState,
    Region,
    RiemannProblem,
)


class Wave(NamedTuple):
    """One wave of a fan: its label, its kind and its trajectory.

    kind is "contact", "shock", "head" or "tail" (the edges of a
    rarefaction) or "delta".
    """

    label: str
    kind: str
    path: ParabolicPath


# the tuple of wave kinds, left to right, names the variant
_VARIANTS = {
    ("contact", "contact"): "two_contacts_vacuum",
    ("contact",): "single_contact",
    ("head", "tail", "contact"): "rarefaction_contact",
    ("shock", "contact"): "shock_contact",
    ("delta",): "delta_shock",
}


@dataclass(frozen=True)
class WaveFan:
    """Exact Riemann solution: waves left to right and the states between.

    states[k] is the segment between waves[k - 1] and waves[k], so
    states[0] and states[-1] are the data states. A segment is None where
    the solution is not constant: a vacuum between two contacts, or the
    rarefaction interior opened by a head wave. delta is the Dirac measure
    of a delta-shock fan; its one wave, Sdelta, rides the same object,
    delta.path. The stored speeds never decrease from left to right
    (ValidationError otherwise), so the waves keep their order at every t.
    """

    problem: RiemannProblem
    waves: tuple[Wave, ...]
    states: tuple[PrimState | None, ...]
    delta: DeltaShockWave | None = None

    def __post_init__(self):
        for left, right in zip(self.waves, self.waves[1:]):
            if not left.path.c <= right.path.c:
                raise ValidationError(f"wave {right.label} is slower than wave {left.label}")

    @property
    def variant(self) -> str:
        return _VARIANTS[tuple(wave.kind for wave in self.waves)]

    @property
    def star(self) -> PrimState | None:
        """The constant state inside the fan, if there is one."""
        return next((s for s in self.states[1:-1] if s is not None), None)

    def path(self, label: str) -> ParabolicPath:
        """Trajectory of the wave with this label."""
        for wave in self.waves:
            if wave.label == label:
                return wave.path
        raise KeyError(label)

    def is_vacuum(self, k: int) -> bool:
        """True when segment k is a vacuum (not constant, not a rarefaction)."""
        return self.states[k] is None and self.waves[k - 1].kind != "head"


def intermediate_state(p: RiemannProblem) -> PrimState:
    """Star state joining the 1-wave through the left state to the contact.

    Solves v* - A/rho***alpha = w_l with v* = u_r. Needs A > 0 (raises
    PressurelessNotApplicable at A = 0) and is defined for regions I and II
    (and degenerately on the contact boundary), as p.region tells; region III
    data have no classical intermediate state (RegionMismatch). Raises
    DensityOutOfRange when rho* leaves the float64 range, which includes
    region-II data so close to the S_delta line that A/rho***alpha rounds to
    zero.
    """
    g = p.params
    if g.pressureless:
        raise PressurelessNotApplicable("the intermediate state requires A > 0")
    if p.region in (Region.III, Region.OnSdelta):
        raise RegionMismatch(f"no intermediate state in region {p.region.value}")
    # chap(rho_star) must equal u_r - u_l + chap(rho_l), positive here in
    # exact arithmetic; in floats it can round to 0, and rho_star is then huge
    gap = p.right.v - p.left.v + g.chap(p.left.rho)
    try:
        rho_star = (g.A / gap) ** (1.0 / g.alpha) if gap > 0.0 else math.inf
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
    if not xs - w_l > 0.0:
        # A/rho_l**alpha is below one ulp of v_l, so the fan has no float width
        raise DensityOutOfRange(
            f"rarefaction state at xi = {xi!r} is out of float64 resolution "
            f"at left density {left.rho!r}"
        )
    rho = (g.A * (1.0 - g.alpha) / (xs - w_l)) ** (1.0 / g.alpha)
    v = (xs - g.alpha * w_l) / (1.0 - g.alpha)
    return PrimState(rho=rho, v=v)


def solve(p: RiemannProblem) -> WaveFan:
    """Construct the exact wave fan for the Riemann problem.

    One dispatch on the stored p.region covers every A >= 0. At A = 0
    region II is empty, and region I opens a vacuum between two contacts
    where A > 0 opens a rarefaction.
    """
    g = p.params
    beta = g.beta
    u_l, u_r = p.left.v, p.right.v
    if p.region is Region.OnJ:
        wave = Wave("J", "contact", ParabolicPath(u_l, beta))
        return WaveFan(p, (wave,), (p.left, p.right))
    if p.region is Region.I and g.pressureless:
        waves = (
            Wave("J1", "contact", ParabolicPath(u_l, beta)),
            Wave("J2", "contact", ParabolicPath(u_r, beta)),
        )
        return WaveFan(p, waves, (p.left, None, p.right))
    if p.region is Region.I:
        star = intermediate_state(p)
        head = u_l - g.alpha * g.chap(p.left.rho)
        # the tail lies right of the head; near the contact, rounding can
        # put it one ulp left of it
        tail = max(star.v - g.alpha * g.chap(star.rho), head)
        waves = (
            Wave("R1.head", "head", ParabolicPath(head, beta)),
            Wave("R1.tail", "tail", ParabolicPath(tail, beta)),
            Wave("J", "contact", ParabolicPath(u_r, beta)),
        )
        return WaveFan(p, waves, (p.left, None, star, p.right))
    if p.region is Region.II:
        star = intermediate_state(p)
        if star.rho == p.left.rho:
            # a shock weaker than float resolution moves at lambda_1 of the left state
            shock = u_l - g.alpha * g.chap(p.left.rho)
        else:
            shock = (star.rho * star.v - p.left.rho * u_l) / (star.rho - p.left.rho)
        if not math.isfinite(shock):
            raise DensityOutOfRange(f"shock speed overflows at star density {star.rho!r}")
        # the shock trails the contact; rounding can put it one ulp past u_r
        shock = min(shock, u_r)
        waves = (
            Wave("S1", "shock", ParabolicPath(shock, beta)),
            Wave("J", "contact", ParabolicPath(u_r, beta)),
        )
        return WaveFan(p, waves, (p.left, star, p.right))
    delta = make_delta_wave(p)
    return WaveFan(p, (Wave("Sdelta", "delta", delta.path),), (p.left, p.right), delta)


def wave_positions(fan: WaveFan, t: float):
    """Labelled wave positions at time t."""
    return [(wave.label, wave.path.position(t)) for wave in fan.waves]


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
    multiplies by rho); points exactly on a wave follow the module's tie rule,
    so a point on a delta trajectory reports the right state. Use evaluate()
    for samples flagged by kind.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise NegativeTime("profile evaluation requires t > 0")
    g = fan.problem.params
    bt = g.beta * t
    half = 0.5 * g.beta * t * t
    last = fan.states[-1]
    rho, u = last.rho, last.v + bt

    # fold right to left: the points left of wave k take segment k, and the
    # waves further left overwrite their share of those points later
    interior = inside = None
    for k in range(len(fan.waves) - 1, -1, -1):
        seg = fan.states[k]
        pos = fan.waves[k].path.c * t + half
        left = x <= pos if fan.states[k + 1] is None else x < pos
        if fan.waves[k].kind == "head":
            interior, base = inside & ~left, seg
        rho = np.where(left, 0.0 if seg is None else seg.rho, rho)
        u = np.where(left, 0.0 if seg is None else seg.v + bt, u)
        inside = left

    if interior is not None and np.any(interior):
        q_l = g.chap(base.rho)
        w_l = base.v - q_l
        x_i, half_i, t_i, bt_i = (
            np.broadcast_to(a, rho.shape)[interior] for a in (x, half, t, bt)
        )
        xs = (x_i - half_i) / t_i
        rho[interior] = (g.A * (1.0 - g.alpha) / (xs - w_l)) ** (1.0 / g.alpha)
        u[interior] = (xs - g.alpha * w_l) / (1.0 - g.alpha) + bt_i

    return rho, u


class SampleKind:
    REGULAR = "regular"
    VACUUM = "vacuum"
    ON_DELTA = "delta"


@dataclass(frozen=True)
class SolutionSlice:
    """Solution at points x at one time t.

    kind, rho and u have the shape of x (0-d for a scalar x); rho and u are
    nan wherever kind is not regular. weight and u_delta are the delta's
    running weight and velocity at t for a delta-shock fan (whether or not
    any point sits on the delta), None otherwise.
    """

    kind: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    weight: float | None = None
    u_delta: float | None = None


def evaluate(
    fan: WaveFan, x: float | np.ndarray, t: float, loc_tol: float | None = None
) -> SolutionSlice:
    """Sample the solution at points x and one time t > 0.

    Points within loc_tol of a delta trajectory are on the delta and report
    its running weight w(t) and velocity; loc_tol defaults to
    1e-9 * max(1, |x|) per point. Points strictly inside a vacuum segment
    are vacuum; all others are regular. Raises DensityOutOfRange when the
    drift beta t, a wave's position c t + beta t**2 / 2, a constant
    segment's velocity or the delta's weight or velocity at t leaves the
    float64 range.
    """
    if t <= 0.0:
        raise NegativeTime(f"evaluation requires t > 0, got t = {t}")
    bt = fan.problem.params.beta * t
    # positions as _profile computes them, checked here on Python floats,
    # where an overflow gives inf without a NumPy warning
    values = [bt] + [wave.path.position(t) for wave in fan.waves]
    values += [seg.v + bt for seg in fan.states if seg is not None]
    weight = u_delta = None
    if fan.delta is not None:
        weight, u_delta = fan.delta.weight(t), fan.delta.path.speed(t)
        values += [weight, u_delta]
    if not all(map(math.isfinite, values)):
        raise DensityOutOfRange(f"the solution at t = {t!r} leaves the float64 range")
    xa = np.asarray(x, dtype=float)
    if loc_tol is None:
        loc_tol = 1e-9 * np.maximum(1.0, np.abs(xa))

    rho, u = _profile(fan, xa, t)
    kind = np.full(xa.shape, SampleKind.REGULAR, dtype=object)
    special = np.zeros(xa.shape, dtype=bool)
    for k in range(1, len(fan.waves)):
        if fan.is_vacuum(k):
            lo, hi = (wave.path.position(t) for wave in fan.waves[k - 1 : k + 1])
            vacuum = (lo < xa) & (xa < hi)
            kind[vacuum] = SampleKind.VACUUM
            special |= vacuum
    if fan.delta is not None:
        on_delta = np.abs(xa - fan.delta.path.position(t)) <= loc_tol
        kind[on_delta] = SampleKind.ON_DELTA
        special |= on_delta
    rho[special] = np.nan
    u[special] = np.nan
    return SolutionSlice(kind=kind, rho=rho, u=u, weight=weight, u_delta=u_delta)
