"""Behaviour of the Riemann solution as the pressure amplitude A varies.

For compressive data there are two distinguished amplitudes,

    A0 = rho_l**alpha (u_l - u_r),   A1 = rho_l**alpha u_l,

with the right state in region II for A > A0 and in region III for A <= A0
(A1 bounds region II from above only when u_r > 0 and is reported for
information). As A decreases to A0 the shock-contact pair squeezes onto a
single trajectory while the plateau density blows up like
rho_l (A/(A - A0))**(1/alpha), concentrating finite mass; past A0 the delta
shock's speed and weight converge to the pressureless (sticky-particle)
values as A -> 0. For expansive data the star density vanishes like
A**(1/alpha) and the solution opens the pressureless vacuum.

limit_study reports each decay rate as the closed-form least-squares slope
of log(error) against log(A) over the last four amplitudes with a positive
error, the slope a degree-1 polynomial fit gives, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delta import make_delta_wave
from .errors import CaseMismatch, DensityOutOfRange, RegionMismatch, ValidationError
from .states import GasParams, RiemannProblem, pressureless_case
from .waves import solve


def thresholds(p: RiemannProblem):
    """Amplitudes (A0, A1) separating the compressive regimes."""
    if pressureless_case(p) != "compression":
        raise CaseMismatch("thresholds are defined for compressive data u_l > u_r")
    base = p.left.rho ** p.params.alpha
    return base * (p.left.v - p.right.v), base * p.left.v


def concentration_integrals(p: RiemannProblem, a: float, t: float):
    """Mass and momentum held between the shock and the contact at time t.

    The problem is re-solved with amplitude a, which must put the data in
    region II. As a decreases to A0 the integrals converge to
    rho_l (u_l - u_r) t and rho_l (u_l - u_r) (u_r + beta t) t, the weight
    and momentum transported by the nascent delta shock.
    """
    return _concentration(solve(_with_amplitude(p, a)), t)


def _concentration(fan, t: float):
    """concentration_integrals of an already solved fan."""
    if fan.variant != "shock_contact":
        raise RegionMismatch("concentration integrals require a shock-contact fan")
    width_rate = fan.path("J").c - fan.path("S1").c
    mass = fan.star.rho * width_rate * t
    momentum = mass * (fan.problem.right.v + fan.problem.params.beta * t)
    return mass, momentum


def default_sweep(p: RiemannProblem, n: int = 12):
    """Geometric amplitude sweep, halving from just below A0 (or from 1)."""
    if pressureless_case(p) == "compression":
        start = 0.9 * thresholds(p)[0]
    else:
        start = 1.0
    return tuple(start * 0.5 ** k for k in range(n))


@dataclass(frozen=True)
class LimitReport:
    """Sweep outcome: per-amplitude rows, limit targets, fitted decay rates."""

    case: str
    a_values: tuple
    rows: tuple
    targets: dict
    rates: dict


def _fit_rate(a_values, errors, tail: int = 4):
    """Log-log slope of errors against amplitudes over the sweep tail.

    The least-squares slope sum((x - mx)(y - my)) / sum((x - mx)**2) of
    y = log(error) on x = log(A), with the means taken first, over the last
    `tail` pairs with A > 0 and error > 0; nan with fewer than two pairs
    or where the amplitudes are too close for their logs to differ.
    """
    pairs = [(a, e) for a, e in zip(a_values, errors) if e > 0.0 and a > 0.0]
    if len(pairs) < 2:
        return math.nan
    pairs = pairs[-tail:]
    xs = [math.log(a) for a, _ in pairs]
    ys = [math.log(e) for _, e in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx > 0.0 else math.nan


def limit_study(p: RiemannProblem, sweep=None) -> LimitReport:
    """Solve the problem across an amplitude sweep and fit convergence rates.

    The sweep defaults to default_sweep(p). Targets are the pressureless
    solution of the same data (delta speed/weight for compressive data,
    vacuum edges for expansive data); region II entries additionally carry
    concentration errors against the A -> A0 limits at t = 1. Raises
    DensityOutOfRange when a row or a target leaves the float64 range.
    """
    if sweep is None:
        sweep = default_sweep(p)
    a_values = tuple(float(a) for a in sweep)
    if not a_values or any(not (a > 0.0) for a in a_values):
        raise ValidationError("amplitude sweep must be nonempty with A > 0 entries")
    if any(b >= a for a, b in zip(a_values, a_values[1:])):
        raise ValidationError("amplitude sweep must be strictly decreasing")
    u_l, u_r = p.left.v, p.right.v
    case = pressureless_case(p)

    rows = []
    targets: dict = {}
    # each fitted rate is a name and its (amplitudes, errors) series
    fits: dict = {}

    if case == "expansion":
        targets = {"x_left": u_l, "x_right": u_r, "rho_star": 0.0}
        for a in a_values:
            fan = solve(_with_amplitude(p, a))
            rows.append(
                {
                    "A": a,
                    "region": fan.problem.region.value,
                    "rho_star": fan.star.rho,
                    "head_gap": abs(fan.path("R1.head").c - u_l),
                }
            )
        fits = {name: (a_values, [r[name] for r in rows]) for name in ("rho_star", "head_gap")}

    elif case == "contact":
        targets = {"contact_speed": u_l}
        for a in a_values:
            fan = solve(_with_amplitude(p, a))
            rows.append(
                {"A": a, "region": fan.problem.region.value, "contact_speed": fan.path("J").c}
            )

    else:
        # compressive data are region III at A = 0: the sticky-particle delta
        delta0 = make_delta_wave(_with_amplitude(p, 0.0))
        targets = {
            "v_delta": delta0.v_delta,
            "w0": delta0.w0,
            "mass": p.left.rho * (u_l - u_r),
            "momentum": p.left.rho * (u_l - u_r) * (u_r + p.params.beta),
            "A0": thresholds(p)[0],
        }
        for a in a_values:
            fan = solve(_with_amplitude(p, a))
            if fan.delta is not None:
                rows.append(
                    {
                        "A": a,
                        "region": fan.problem.region.value,
                        "v_delta": fan.delta.v_delta,
                        "w0": fan.delta.w0,
                        "v_delta_err": abs(fan.delta.v_delta - delta0.v_delta),
                        "w0_err": abs(fan.delta.w0 - delta0.w0),
                    }
                )
            else:
                mass, momentum = _concentration(fan, 1.0)
                rows.append(
                    {
                        "A": a,
                        "region": fan.problem.region.value,
                        "rho_star": fan.star.rho,
                        "mass_err": abs(mass - targets["mass"]),
                        "momentum_err": abs(momentum - targets["momentum"]),
                    }
                )
        # rows are ordered by decreasing A, so the tail is the small-A end
        iii = [r for r in rows if "w0" in r]
        a_iii = [r["A"] for r in iii]
        fits = {name: (a_iii, [r[name] for r in iii]) for name in ("v_delta_err", "w0_err")}

    numbers = [v for row in rows for v in row.values() if not isinstance(v, str)]
    if not all(map(math.isfinite, numbers + list(targets.values()))):
        raise DensityOutOfRange("the amplitude sweep leaves the float64 range")
    rates = {name: _fit_rate(a, errors) for name, (a, errors) in fits.items()}
    return LimitReport(
        case=case, a_values=a_values, rows=tuple(rows), targets=targets, rates=rates
    )


def _with_amplitude(p: RiemannProblem, a: float) -> RiemannProblem:
    g = p.params
    return RiemannProblem(p.left, p.right, GasParams(A=a, alpha=g.alpha, beta=g.beta))
