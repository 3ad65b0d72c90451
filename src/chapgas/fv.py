"""Independent finite-volume oracle.

First-order local Lax-Friedrichs scheme on the conservative drift-frame
form of the system: unknowns (rho, m) with m = rho v - A rho**(1-alpha)
and flux (v + beta t) (rho, m). The friction enters only through the
explicit time dependence of the flux, so the scheme is fully conservative
and comparable cell-by-cell against the exact fan. Deliberately simple and
structurally unrelated to the closed-form solver.

One ghost cell per side copies its edge cell (zero-gradient outflow).
``step`` is pure: it returns a new state with fresh ``rho`` and ``m``. Its
work arrays are made once per grid, by the first step of a march, and handed
on in ``FvState.scratch``, because at a few hundred cells a step costs
mostly per-call overhead (allocation, slicing), not arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


class _Row:
    """A work array a with its views lo = a[:-1] and hi = a[1:], made once."""

    __slots__ = ("a", "lo", "hi")

    def __init__(self, size: int):
        self.a = np.empty(size)
        self.lo, self.hi = self.a[:-1], self.a[1:]


class _Scratch:
    """Work arrays of step for one grid of n cells.

    Cell arrays have n + 2 entries (one ghost cell per side), face arrays
    n + 1; a face's left and right cells are a cell row's lo and hi. step
    writes every entry before it reads it, so states of one grid can share
    a scratch, as long as they are not stepped concurrently.
    """

    def __init__(self, n: int):
        self.rho, self.m, self.amax, self.f = (_Row(n + 2) for _ in range(4))
        self.flux_rho, self.flux_m = _Row(n + 1), _Row(n + 1)
        self.u, self.gap = np.empty(n + 2), np.empty(n + 2)
        self.half_a, self.jump = np.empty(n + 1), np.empty(n + 1)
        self.nonpositive = np.empty(n + 2, dtype=bool)
        self.low = np.empty(n, dtype=bool)


@dataclass
class FvState:
    """Cell-centred conserved fields plus bookkeeping.

    clamped counts density-floor activations; boundary_mass/boundary_mom
    accumulate the net influx through the domain ends, so totals satisfy
    sum(q) dx - boundary = const to round-off while no clamping occurs.
    scratch holds step's work arrays for this grid; it is not part of the
    state's value.
    """

    x: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    t: float
    clamped: int = 0
    boundary_mass: float = 0.0
    boundary_mom: float = 0.0
    scratch: _Scratch | None = field(default=None, repr=False, compare=False)

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


def _velocity(rho, m, g: GasParams, out, nonpositive):
    """Drift-free velocity (m + A rho**(1-alpha)) / rho, written to out.

    nonpositive is a boolean work array shaped like rho. Raises
    NonPositiveDensity if any rho <= 0.
    """
    if np.count_nonzero(np.less_equal(rho, 0.0, out=nonpositive)):
        raise NonPositiveDensity("cannot recover velocity at nonpositive density")
    np.power(rho, 1.0 - g.alpha, out=out)
    np.multiply(g.A, out, out=out)
    np.add(m, out, out=out)
    return np.divide(out, rho, out=out)


def primitive_recover(rho, m, g: GasParams):
    """Drift-free velocity v from the conserved pair; rho must be positive."""
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    out = np.empty(np.broadcast_shapes(rho.shape, m.shape))
    return _velocity(rho, m, g, out, np.empty(rho.shape, dtype=bool))[()]


def init_state(cfg: FvConfig) -> FvState:
    x, _ = grid(cfg)
    p = cfg.problem
    g = p.params
    rho = np.where(x < 0.0, p.left.rho, p.right.rho)
    v = np.where(x < 0.0, p.left.v, p.right.v)
    m = rho * v - g.A * rho ** (1.0 - g.alpha)
    return FvState(x=x, rho=rho, m=m, t=0.0)


def _face_flux(u, q: _Row, half_a, sc: _Scratch, out: _Row) -> _Row:
    """LLF flux 0.5 (f_l + f_r) - (0.5 a) (q_r - q_l) on every face, into out."""
    f = sc.f
    np.multiply(u, q.a, out=f.a)
    np.add(f.lo, f.hi, out=out.a)
    np.multiply(0.5, out.a, out=out.a)
    np.subtract(q.hi, q.lo, out=sc.jump)
    np.multiply(half_a, sc.jump, out=sc.jump)
    np.subtract(out.a, sc.jump, out=out.a)
    return out


def _update(q, flux: _Row, lam: float):
    """q - lam (F_r - F_l) in a freshly allocated array."""
    new = np.subtract(flux.hi, flux.lo)
    np.multiply(lam, new, out=new)
    return np.subtract(q, new, out=new)


def step(state: FvState, cfg: FvConfig, dt_cap: float | None = None) -> FvState:
    """One forward-Euler LLF step; dt = cfl dx / max|lambda|, capped.

    Pure: returns a new state with freshly allocated rho and m and leaves
    state untouched. The work arrays come from state.scratch, are allocated
    here when state carries none for its grid, and pass on to the returned
    state. Each ghost cell copies its edge cell (zero-gradient outflow).
    """
    g = cfg.problem.params
    dx = state.dx
    n = len(state.rho)
    sc = state.scratch
    if sc is None or sc.low.size != n:
        sc = _Scratch(n)
    rho, m = sc.rho.a, sc.m.a
    rho[1:-1] = state.rho
    m[1:-1] = state.m
    rho[0], rho[-1] = state.rho[0], state.rho[-1]
    m[0], m[-1] = state.m[0], state.m[-1]

    u = _velocity(rho, m, g, sc.u, sc.nonpositive)
    np.add(u, g.beta * state.t, out=u)
    # signal speeds |u| and |u - alpha A / rho**alpha|; amax is the larger
    gap = np.power(rho, g.alpha, out=sc.gap)
    np.divide(g.alpha * g.A, gap, out=gap)
    np.subtract(u, gap, out=gap)
    np.abs(gap, out=gap)
    amax = sc.amax
    np.abs(u, out=amax.a)
    np.maximum(amax.a, gap, out=amax.a)
    peak = float(amax.a.max())
    if not math.isfinite(peak):
        raise CflViolation("wave speeds are not finite")

    dt = cfg.cfl * dx / peak if peak > 0.0 else math.inf
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not (0.0 < dt < math.inf):
        raise CflViolation(f"no admissible time step (dt = {dt})")

    half_a = np.maximum(amax.lo, amax.hi, out=sc.half_a)
    np.multiply(0.5, half_a, out=half_a)
    flux_rho = _face_flux(u, sc.rho, half_a, sc, sc.flux_rho)
    flux_m = _face_flux(u, sc.m, half_a, sc, sc.flux_m)

    lam = dt / dx
    rho_new = _update(state.rho, flux_rho, lam)
    m_new = _update(state.m, flux_m, lam)
    n_clamp = int(np.count_nonzero(np.less(rho_new, cfg.floor, out=sc.low)))
    if n_clamp:
        np.maximum(rho_new, cfg.floor, out=rho_new)

    return FvState(
        x=state.x,
        rho=rho_new,
        m=m_new,
        t=state.t + dt,
        clamped=state.clamped + n_clamp,
        boundary_mass=state.boundary_mass + dt * (flux_rho.a[0] - flux_rho.a[-1]),
        boundary_mom=state.boundary_mom + dt * (flux_m.a[0] - flux_m.a[-1]),
        scratch=sc,
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


def delta_mass_window(x: np.ndarray, center: float, halfwidth: float) -> tuple[int, int]:
    """First and last index of the cells x with |x - center| <= halfwidth.

    Raises WindowOutOfDomain unless the window holds a cell and the two
    cells adjacent to it, which give the background, lie inside the domain.
    """
    if halfwidth <= 0.0:
        raise WindowOutOfDomain("window halfwidth must be positive")
    idx = np.flatnonzero(np.abs(x - center) <= halfwidth)
    if idx.size == 0:
        raise WindowOutOfDomain("window contains no cells")
    lo, hi = int(idx[0]), int(idx[-1])
    if lo - 1 < 0 or hi + 1 >= x.size:
        raise WindowOutOfDomain("window (plus background cells) leaves the domain")
    return lo, hi


def measure_delta_mass(state: FvState, center: float, halfwidth: float) -> float:
    """Mass inside |x - center| <= halfwidth above the local background.

    The background density is the mean of the two cells adjacent to the
    window, times the window length. The window is delta_mass_window's.
    """
    lo, hi = delta_mass_window(state.x, center, halfwidth)
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
    positions = [wave.path.position(state.t) for wave in fan.waves]
    span = float(state.x[-1] - state.x[0])
    dx = state.dx
    out = []
    for k, (wave, pos) in enumerate(zip(fan.waves, positions)):
        if wave.kind in ("head", "tail"):
            continue
        if wave.kind != "delta":
            eps = 1e-9 * max(1.0, abs(pos))
            sides = _profile(fan, np.array([pos - eps, pos + eps]), state.t)[0]
            if abs(sides[1] - sides[0]) <= 1e-9 * max(1.0, sides[0], sides[1]):
                continue
        gaps = [abs(pos - q) for j, q in enumerate(positions) if j != k]
        halfwidth = min(gaps) * 0.45 if gaps else 0.15 * span
        halfwidth = max(5.0 * dx, min(halfwidth, 0.15 * span))
        if wave.kind == "delta":
            found = locate_peak(state, pos, halfwidth)
            method = "peak"
        else:
            found = locate_jump(state, pos, halfwidth)
            method = "jump"
        out.append((wave.label, method, (found - pos) / dx))
    return out
