"""Self-consistency checks for a solved wave fan.

Assembles one flat list of named checks so the command-line ``verify``
subcommand and the test suite grade a fan the same way. Every row records
the residual value, the tolerance it was held to, and the verdict; margin
rows (entropy, Lax admissibility, wave ordering) store the signed margin
and pass when it is not meaningfully negative.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from .delta import (
    c_identity_residual,
    entropy_check,
    grh_residual,
    speed_quadratic_residual,
)
from .errors import DensityOutOfRange, ValidationError
from .states import (
    PrimState,
    RiemannProblem,
    eigenvalues,
    problem_scale,
    riemann_invariants,
)
from .waves import WaveFan, rarefaction_state, rh_residual, solve
from .weakform import residual_battery, weak_residual

_TIMES = (0.0, 1.0, 10.0)
# tolerances scale with problem_scale**3, which must stay a finite float
_SCALE_MAX = sys.float_info.max ** (1.0 / 3.0)


@dataclass(frozen=True)
class CheckRow:
    """One named check: residual value, tolerance, verdict."""

    name: str
    value: float
    tol: float
    ok: bool


def _absrow(name: str, value: float, tol: float) -> CheckRow:
    return CheckRow(name, float(value), float(tol), abs(value) <= tol)


def _marginrow(name: str, margin: float, tol: float) -> CheckRow:
    return CheckRow(name, float(margin), float(tol), margin >= -tol)


def _tlabel(t: float) -> str:
    return f"t{t:g}"


def _rh_rows(
    rows: list[CheckRow],
    label: str,
    left: PrimState,
    right: PrimState,
    path,
    p: RiemannProblem,
    scale: float,
) -> None:
    # Star densities can dwarf the input scale near the region-II threshold,
    # so residuals are also normalized by the fluxes entering the condition.
    g = p.params
    for t in _TIMES:
        e1, e2 = rh_residual(left, right, path, g, t)
        ut_l, ut_r = left.v + g.beta * t, right.v + g.beta * t
        mom_l = left.rho * (left.v - g.chap(left.rho))
        mom_r = right.rho * (right.v - g.chap(right.rho))
        s1 = max(scale**2, abs(left.rho * ut_l), abs(right.rho * ut_r))
        s2 = max(scale**3, abs(mom_l * ut_l), abs(mom_r * ut_r))
        rows.append(_absrow(f"rh.{label}.mass.{_tlabel(t)}", e1, 1e-12 * s1))
        rows.append(_absrow(f"rh.{label}.momentum.{_tlabel(t)}", e2, 1e-12 * s2))


def _star_rows(rows: list[CheckRow], p: RiemannProblem, star: PrimState, scale: float) -> None:
    w_l, _ = riemann_invariants(p.left, p.params)
    w_star, _ = riemann_invariants(star, p.params)
    rows.append(
        _absrow("star.invariant", w_star - w_l, 1e-12 * max(1.0, abs(w_l), scale))
    )
    rows.append(
        _absrow("star.speed", star.v - p.right.v, 1e-12 * max(1.0, abs(p.right.v)))
    )


def _fan_edge_rows(rows: list[CheckRow], fan: WaveFan, scale: float) -> None:
    # The interior profile depends on x and t only through the drift-frame
    # similarity variable, so evaluating with beta = 0 at the edge speeds is
    # exact; adding and subtracting beta*t would not round-trip in floats.
    p = fan.problem
    g0 = replace(p.params, beta=0.0)
    for k, wave in enumerate(fan.waves):
        if wave.kind in ("head", "tail"):
            state = fan.states[k] if wave.kind == "head" else fan.states[k + 1]
            inside = rarefaction_state(wave.path.c, 1.0, p.left, g0)
            gap = max(abs(inside.rho - state.rho), abs(inside.v - state.v))
            rows.append(_absrow(f"fan.{wave.kind}.match", gap, 1e-9 * scale))


def _lax_rows(rows: list[CheckRow], fan: WaveFan, scale: float) -> None:
    g = fan.problem.params
    for k, wave in enumerate(fan.waves):
        if wave.kind == "shock":
            sigma = wave.path.c
            lam1_l, _ = eigenvalues(fan.states[k], g)
            lam1_s, lam2_s = eigenvalues(fan.states[k + 1], g)
            margin = min(lam1_l - sigma, sigma - lam1_s, lam2_s - sigma)
            rows.append(_marginrow("lax.margin", margin, 1e-12 * scale))


def _delta_rows(rows: list[CheckRow], fan: WaveFan, scale: float) -> None:
    p = fan.problem
    wave = fan.delta
    for t in _TIMES:
        r1, r2, r3 = grh_residual(p, wave, t)
        tl = _tlabel(t)
        rows.append(_absrow(f"grh.path.{tl}", r1, 1e-14 * max(1.0, scale)))
        rows.append(_absrow(f"grh.weight.{tl}", r2, 1e-10 * scale**2))
        rows.append(_absrow(f"grh.momentum.{tl}", r3, 1e-10 * scale**3))
        rows.append(
            _absrow(f"delta.source.{tl}", c_identity_residual(p, wave, t), 1e-10 * scale**3)
        )
    upper = p.left.v - p.params.chap(p.left.rho)
    margin = min(wave.v_delta - p.right.v, upper - wave.v_delta)
    row = _marginrow("delta.entropy", margin, 1e-12 * scale)
    if row.ok != entropy_check(p, wave):
        row = CheckRow(row.name, row.value, row.tol, False)
    rows.append(row)
    rows.append(
        _absrow("delta.quadratic", speed_quadratic_residual(p, wave), 1e-10 * scale**3)
    )


def _ordering_rows(rows: list[CheckRow], fan: WaveFan, scale: float) -> None:
    # each row is named by the segment between the two waves it orders
    for k in range(1, len(fan.waves)):
        if fan.states[k] is not None:
            name = "order.contact"
        elif fan.is_vacuum(k):
            name = "order.vacuum"
        else:
            name = "order.fan"
        margin = fan.waves[k].path.c - fan.waves[k - 1].path.c
        rows.append(_marginrow(name, margin, 1e-12 * scale))


def _battery_rows(rows: list[CheckRow], fan: WaveFan, quad_n: int, scale: float) -> None:
    tol = 1e-6 * scale**3
    for i, (r1, r2) in enumerate(weak_residual(fan, residual_battery(fan), quad_n=quad_n)):
        rows.append(_absrow(f"weak.psi{i}.mass", r1, tol))
        rows.append(_absrow(f"weak.psi{i}.momentum", r2, tol))


def fan_checks(
    p: RiemannProblem, quad_n: int = 64, w0_factor: float = 1.0
) -> tuple[WaveFan, list[CheckRow]]:
    """Solve the problem and grade the fan; returns (fan, check rows).

    ``w0_factor`` rescales the delta strength before grading. Anything but
    1.0 is a deliberate fault injection: the perturbed fan must fail the
    weight and weak-form checks, which is how the checks themselves are
    validated. It only makes sense for a delta-shock fan. Raises
    DensityOutOfRange when the problem scale is so large that the check
    tolerances, which grow like its cube, would overflow.
    """
    fan = solve(p)
    scale = problem_scale(p)
    if scale > _SCALE_MAX:
        raise DensityOutOfRange(
            f"problem scale {scale!r} puts the check tolerances (scale**3) "
            "past the float64 range"
        )
    if w0_factor != 1.0:
        if fan.delta is None:
            raise ValidationError("w0_factor applies only to delta-shock fans")
        fan = replace(fan, delta=replace(fan.delta, w0=fan.delta.w0 * w0_factor))

    rows: list[CheckRow] = []
    _ordering_rows(rows, fan, scale)
    if fan.star is not None:
        _star_rows(rows, p, fan.star, scale)
    _fan_edge_rows(rows, fan, scale)
    _lax_rows(rows, fan, scale)
    for k, wave in enumerate(fan.waves):
        left, right = fan.states[k], fan.states[k + 1]
        if wave.kind in ("shock", "contact") and left is not None and right is not None:
            _rh_rows(rows, wave.label, left, right, wave.path, p, scale)
    if fan.delta is not None:
        _delta_rows(rows, fan, scale)

    _battery_rows(rows, fan, quad_n, scale)
    return fan, rows


def checks_pass(rows: list[CheckRow]) -> bool:
    """True when every row passed."""
    return all(row.ok for row in rows)
