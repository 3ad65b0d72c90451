"""Independent finite-volume oracle.

First-order local Lax-Friedrichs scheme on the conservative drift-frame
form of the system: unknowns (rho, m) with m = rho v - A rho**(1-alpha)
and flux (v + beta t) (rho, m). The friction enters only through the
explicit time dependence of the flux, so the scheme is fully conservative
and comparable cell-by-cell against the exact fan. Deliberately simple and
structurally unrelated to the closed-form solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CflViolation,
    NonPositiveDensity,
    TimeMismatch,
    ValidationError,
    WindowOutOfDomain,
)
from .states import GasParams, RiemannProblem
from .waves import WaveFan, _profile, wave_positions


@dataclass(frozen=True)
class FvConfig:
    """Grid, time horizon and scheme parameters for one oracle run."""

    problem: RiemannProblem
    x_lo: float
    x_hi: float
    n_cells: int
    t_end: float
    cfl: float = 0.45
    floor: float = 1e-12

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "t_end", "cfl", "floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"FvConfig.{name} must be finite")
        if self.n_cells < 100:
            raise ValidationError(f"n_cells must be >= 100, got {self.n_cells}")
        if not (self.x_lo < 0.0 < self.x_hi):
            raise ValidationError("domain must contain the initial discontinuity x = 0")
        if not (0.0 < self.cfl <= 0.5):
            raise CflViolation(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.t_end <= 0.0:
            raise ValidationError(f"t_end must be > 0, got {self.t_end}")
        if not (0.0 < self.floor < 1e-6):
            raise ValidationError(f"floor must be a tiny positive density, got {self.floor}")


@dataclass
class FvState:
    """Cell-centred conserved fields plus bookkeeping.

    clamped counts density-floor activations; boundary_mass/boundary_mom
    accumulate the net influx through the domain ends, so totals satisfy
    sum(q) dx - boundary = const to round-off while no clamping occurs.
    """

    x: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    t: float
    clamped: int = 0
    boundary_mass: float = 0.0
    boundary_mom: float = 0.0

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def grid(cfg: FvConfig):
    """Cell centres and spacing; the domain is shifted by at most dx/2 so
    that x = 0 falls exactly on a cell interface."""
    dx = (cfg.x_hi - cfg.x_lo) / cfg.n_cells
    k = round(-cfg.x_lo / dx)
    if not 1 <= k <= cfg.n_cells - 1:
        raise ValidationError("initial discontinuity must be an interior interface")
    x_lo = -k * dx
    return x_lo + (np.arange(cfg.n_cells) + 0.5) * dx, dx


def primitive_recover(rho, m, g: GasParams):
    """Drift-free velocity v from the conserved pair; rho must be positive."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(rho <= 0.0):
        raise NonPositiveDensity("cannot recover velocity at nonpositive density")
    return (m + g.A * rho ** (1.0 - g.alpha)) / rho


def init_state(cfg: FvConfig) -> FvState:
    x, _ = grid(cfg)
    p = cfg.problem
    g = p.params
    rho = np.where(x < 0.0, p.left.rho, p.right.rho)
    v = np.where(x < 0.0, p.left.v, p.right.v)
    m = rho * v - g.A * rho ** (1.0 - g.alpha)
    return FvState(x=x, rho=rho, m=m, t=0.0)


def _signal_speeds(rho, m, g: GasParams, t: float):
    v = primitive_recover(rho, m, g)
    u = v + g.beta * t
    gap = g.alpha * g.A / rho ** g.alpha
    return u, np.maximum(np.abs(u), np.abs(u - gap))


def step(state: FvState, cfg: FvConfig, dt_cap: float | None = None) -> FvState:
    """One forward-Euler LLF step; dt = cfl dx / max|lambda|, capped."""
    g = cfg.problem.params
    dx = state.dx
    rho = np.concatenate(([state.rho[0]], state.rho, [state.rho[-1]]))
    m = np.concatenate(([state.m[0]], state.m, [state.m[-1]]))
    u, amax = _signal_speeds(rho, m, g, state.t)
    peak = float(np.max(amax))
    if not math.isfinite(peak):
        raise CflViolation("wave speeds are not finite")

    dt = cfg.cfl * dx / peak if peak > 0.0 else math.inf
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not (0.0 < dt < math.inf):
        raise CflViolation(f"no admissible time step (dt = {dt})")

    f_rho = u * rho
    f_m = u * m
    a_face = np.maximum(amax[:-1], amax[1:])
    flux_rho = 0.5 * (f_rho[:-1] + f_rho[1:]) - 0.5 * a_face * (rho[1:] - rho[:-1])
    flux_m = 0.5 * (f_m[:-1] + f_m[1:]) - 0.5 * a_face * (m[1:] - m[:-1])

    lam = dt / dx
    rho_new = state.rho - lam * (flux_rho[1:] - flux_rho[:-1])
    m_new = state.m - lam * (flux_m[1:] - flux_m[:-1])
    n_clamp = int(np.count_nonzero(rho_new < cfg.floor))
    if n_clamp:
        rho_new = np.maximum(rho_new, cfg.floor)

    return FvState(
        x=state.x,
        rho=rho_new,
        m=m_new,
        t=state.t + dt,
        clamped=state.clamped + n_clamp,
        boundary_mass=state.boundary_mass + dt * (flux_rho[0] - flux_rho[-1]),
        boundary_mom=state.boundary_mom + dt * (flux_m[0] - flux_m[-1]),
    )


def run(cfg: FvConfig, max_steps: int = 10_000_000) -> FvState:
    """March the scheme from the Riemann data to t_end."""
    state = init_state(cfg)
    tiny = 1e-12 * max(1.0, cfg.t_end)
    steps = 0
    while cfg.t_end - state.t > tiny:
        state = step(state, cfg, dt_cap=cfg.t_end - state.t)
        steps += 1
        if steps >= max_steps:
            raise CflViolation(f"did not reach t_end within {max_steps} steps")
    return state


def measure_delta_mass(state: FvState, center: float, halfwidth: float) -> float:
    """Mass inside |x - center| <= halfwidth above the local background.

    The background density is the mean of the two cells adjacent to the
    window, times the window length. Needs the window plus those two cells
    inside the domain.
    """
    if halfwidth <= 0.0:
        raise WindowOutOfDomain("window halfwidth must be positive")
    inside = np.abs(state.x - center) <= halfwidth
    idx = np.flatnonzero(inside)
    if idx.size == 0:
        raise WindowOutOfDomain("window contains no cells")
    lo, hi = int(idx[0]), int(idx[-1])
    if lo - 1 < 0 or hi + 1 >= state.x.size:
        raise WindowOutOfDomain("window (plus background cells) leaves the domain")
    dx = state.dx
    raw = float(np.sum(state.rho[lo : hi + 1])) * dx
    background = 0.5 * (state.rho[lo - 1] + state.rho[hi + 1]) * (hi - lo + 1) * dx
    return raw - float(background)


def compare_to_exact(
    state: FvState, fan: WaveFan, exclusion: float, t_expected: float | None = None
) -> float:
    """L1 density error against the exact fan, skipping wave neighbourhoods.

    exclusion is the half-width (in x) removed around every wave position.
    """
    if t_expected is not None and abs(state.t - t_expected) > 1e-9 * max(1.0, abs(t_expected)):
        raise TimeMismatch(f"state at t = {state.t}, expected {t_expected}")
    rho_exact = _profile(fan, state.x, state.t)[0]
    keep = np.ones(state.x.shape, dtype=bool)
    for _, pos in wave_positions(fan, state.t):
        keep &= np.abs(state.x - pos) > exclusion
    return float(np.sum(np.abs(state.rho[keep] - rho_exact[keep])) * state.dx)


def _window(state: FvState, x_target: float, halfwidth: float):
    mask = np.abs(state.x - x_target) <= halfwidth
    idx = np.flatnonzero(mask)
    if idx.size < 5:
        raise WindowOutOfDomain("search window too small or outside the grid")
    return int(idx[0]), int(idx[-1])


def locate_jump(state: FvState, x_target: float, halfwidth: float) -> float:
    """Interface with the steepest density difference near x_target."""
    lo, hi = _window(state, x_target, halfwidth)
    seg = state.rho[lo : hi + 1]
    k = int(np.argmax(np.abs(np.diff(seg))))
    return float(state.x[lo + k] + 0.5 * state.dx)


def locate_peak(state: FvState, x_target: float, halfwidth: float) -> float:
    """Cell with the largest density near x_target (delta spike)."""
    lo, hi = _window(state, x_target, halfwidth)
    k = int(np.argmax(state.rho[lo : hi + 1]))
    return float(state.x[lo + k])


def wave_offsets(state: FvState, fan: WaveFan):
    """Signed located-minus-exact distance, in cells, per locatable wave.

    Returns (label, method, cells) triples. Jumps (shocks and contacts) are
    located by the steepest density difference, the delta spike by the
    density peak. Rarefaction edges are omitted: the scheme smears a slope
    kink into a transition wider than the fan's own curvature, so no
    gradient-based locator applies; the profile comparison covers them.
    Waves with no density jump (constant data still has a formal contact)
    carry no locatable signal and are omitted as well.
    """
    positions = wave_positions(fan, state.t)
    span = float(state.x[-1] - state.x[0])
    dx = state.dx
    out = []
    for k, (label, pos) in enumerate(positions):
        if label.startswith("R1."):
            continue
        if label != "Sdelta":
            eps = 1e-9 * max(1.0, abs(pos))
            sides = _profile(fan, np.array([pos - eps, pos + eps]), state.t)[0]
            if abs(sides[1] - sides[0]) <= 1e-9 * max(1.0, sides[0], sides[1]):
                continue
        gaps = [abs(pos - q) for j, (_, q) in enumerate(positions) if j != k]
        halfwidth = min(gaps) * 0.45 if gaps else 0.15 * span
        halfwidth = max(5.0 * dx, min(halfwidth, 0.15 * span))
        if label == "Sdelta":
            found = locate_peak(state, pos, halfwidth)
            method = "peak"
        else:
            found = locate_jump(state, pos, halfwidth)
            method = "jump"
        out.append((label, method, (found - pos) / dx))
    return out
