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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delta import _delta_params
from .errors import AlphaOutOfRange, CaseMismatch, RegionMismatch, ValidationError
from .states import (
    GasParams,
    Region,
    RiemannProblem,
    classify_region,
    validate_problem,
)
from .waves import solve


def thresholds(p: RiemannProblem):
    """Amplitudes (A0, A1) separating the compressive regimes."""
    validate_problem(p)
    if not (0.0 < p.params.alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {p.params.alpha!r}")
    if not p.left.v > p.right.v:
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
    fan = solve(_with_amplitude(p, a))
    if fan.variant != "shock_contact":
        raise RegionMismatch("concentration integrals require a shock-contact fan")
    width_rate = fan.path("J").c - fan.path("S1").c
    mass = fan.star.rho * width_rate * t
    momentum = mass * (p.right.v + p.params.beta * t)
    return mass, momentum


def default_sweep(p: RiemannProblem, n: int = 12):
    """Geometric amplitude sweep, halving from just below A0 (or from 1)."""
    validate_problem(p)
    if p.left.v > p.right.v:
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
    """Log-log slope of errors against amplitudes over the sweep tail."""
    pairs = [(a, e) for a, e in zip(a_values, errors) if e > 0.0 and a > 0.0]
    if len(pairs) < 2:
        return math.nan
    pairs = pairs[-tail:]
    la = np.log([a for a, _ in pairs])
    le = np.log([e for _, e in pairs])
    return float(np.polyfit(la, le, 1)[0])


def limit_study(p: RiemannProblem, sweep=None) -> LimitReport:
    """Solve the problem across an amplitude sweep and fit convergence rates.

    The sweep defaults to default_sweep(p). Targets are the pressureless
    solution of the same data (delta speed/weight for compressive data,
    vacuum edges for expansive data); region II entries additionally carry
    concentration errors against the A -> A0 limits at t = 1.
    """
    validate_problem(p)
    if sweep is None:
        sweep = default_sweep(p)
    a_values = tuple(float(a) for a in sweep)
    if not a_values or any(not (a > 0.0) for a in a_values):
        raise ValidationError("amplitude sweep must be nonempty with A > 0 entries")
    if any(b >= a for a, b in zip(a_values, a_values[1:])):
        raise ValidationError("amplitude sweep must be strictly decreasing")
    u_l, u_r = p.left.v, p.right.v

    if u_l < u_r:
        case = "expansion"
    elif u_l == u_r:
        case = "contact"
    else:
        case = "compression"

    rows = []
    targets: dict = {}
    rates: dict = {}

    if case == "expansion":
        targets = {"x_left": u_l, "x_right": u_r, "rho_star": 0.0}
        for a in a_values:
            fan = solve(_with_amplitude(p, a))
            rows.append(
                {
                    "A": a,
                    "region": Region.I.value,
                    "rho_star": fan.star.rho,
                    "head_gap": abs(fan.path("R1.head").c - u_l),
                }
            )
        rates["rho_star"] = _fit_rate(a_values, [r["rho_star"] for r in rows])
        rates["head_gap"] = _fit_rate(a_values, [r["head_gap"] for r in rows])

    elif case == "contact":
        targets = {"contact_speed": u_l}
        for a in a_values:
            fan = solve(_with_amplitude(p, a))
            rows.append(
                {"A": a, "region": Region.OnJ.value, "contact_speed": fan.path("J").c}
            )

    else:
        p0 = _with_amplitude(p, 0.0)
        v_delta0, w00 = _delta_params(p0)
        a0, _ = thresholds(p)
        targets = {
            "v_delta": v_delta0,
            "w0": w00,
            "mass": p.left.rho * (u_l - u_r),
            "momentum": p.left.rho * (u_l - u_r) * (u_r + p.params.beta),
        }
        iii_a, iii_v_err, iii_w_err = [], [], []
        for a in a_values:
            prob = _with_amplitude(p, a)
            region = classify_region(prob)
            fan = solve(prob)
            if fan.delta is not None:
                v_err = abs(fan.delta.v_delta - v_delta0)
                w_err = abs(fan.delta.w0 - w00)
                rows.append(
                    {
                        "A": a,
                        "region": region.value,
                        "v_delta": fan.delta.v_delta,
                        "w0": fan.delta.w0,
                        "v_delta_err": v_err,
                        "w0_err": w_err,
                    }
                )
                iii_a.append(a)
                iii_v_err.append(v_err)
                iii_w_err.append(w_err)
            else:
                mass, momentum = concentration_integrals(p, a, 1.0)
                rows.append(
                    {
                        "A": a,
                        "region": region.value,
                        "rho_star": fan.star.rho,
                        "mass_err": abs(mass - targets["mass"]),
                        "momentum_err": abs(momentum - targets["momentum"]),
                    }
                )
        # rows are ordered by decreasing A, so the tail is the small-A end
        rates["v_delta_err"] = _fit_rate(iii_a, iii_v_err)
        rates["w0_err"] = _fit_rate(iii_a, iii_w_err)
        targets["A0"] = a0

    return LimitReport(
        case=case, a_values=a_values, rows=tuple(rows), targets=targets, rates=rates
    )


def _with_amplitude(p: RiemannProblem, a: float) -> RiemannProblem:
    g = p.params
    return RiemannProblem(p.left, p.right, GasParams(A=a, alpha=g.alpha, beta=g.beta))
