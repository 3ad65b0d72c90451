"""Independent finite-volume oracle.

First-order local Lax-Friedrichs scheme on the conservative drift-frame
form of the system: unknowns (rho, m) with m = rho v - A rho**(1-alpha)
and flux (v + beta t) (rho, m). The friction enters only through the
explicit time dependence of the flux, so the scheme is fully conservative
and comparable cell-by-cell against the exact fan. Deliberately simple and
structurally unrelated to the closed-form solver.

One ghost cell per side copies its edge cell (zero-gradient outflow).
``step`` is pure: it returns a new state with fresh ``rho`` and ``m``, which
are read-only, as ``init_state``'s are, so an in-place edit raises instead
of going unseen. Its work arrays are made once per grid, by the first step
of a march, and handed on in ``FvState.scratch``, because at a few hundred
cells a step costs mostly per-call overhead (allocation, slicing, about
0.45 us per NumPy call), not arithmetic. For the same reason a step makes
few calls. The cells of rho and of m, each with one outer cell per side, lie
end to end in one flat work row, with a pad cell between them (see _Work):
the cell fluxes, both fields' LLF face fluxes and their differences are one
1-D call each, and only the last update, q - lam (F_r - F_l), takes one call
per field, into the fresh arrays. At A = 0 the pressure terms (two powers and
the alpha A / rho**alpha gap) are skipped: u = (m + A rho) / rho + beta t and
the signal speed |u| have the bits of the general formulas (see _speeds).

``step`` works only on a window of cells that can change. Outside the
window each cell holds the bits of its side's far data state. Every face
there lies between two equal states, so its LLF flux is exactly f, the flux
difference exactly 0.0 and the cell keeps its bits; the full grid would
leave these cells as they are too. The window's computation takes one far
cell per side along, which gives dt, the boundary fluxes and the boundary
sums bit for bit as on the full grid, and lets the CflViolation checks see
every distinct cell. A window step needs no NonPositiveDensity scan: its
fields are init_state's or step's, whose densities are > 0 or nan. A side
grows by a chunk of cells when its edge cell changes (compared by bit
pattern, since m can be +0.0 or -0.0). The full grid runs, for good, once
the window would skip fewer cells than its bookkeeping costs (so always at
200 cells), when a far density lies below the floor (the clamp moves every
far cell), and for the step in which a far face's flux is not finite.
``init_state`` gives the data their window, _CHUNK cells per side of the
interface, and ``step`` hands on the window of each state it returns.
``step`` trusts a window only while the state's fields are the read-only
arrays it was set for; every other state, whether built by hand, by
``dataclasses.replace`` or by a copy (whose arrays are writable), takes the
full grid, which gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CflViolation, NonPositiveDensity, ValidationError, WindowOutOfDomain
from .states import RiemannProblem
from .waves import WaveFan, _profile, wave_positions


# The largest grid FvConfig accepts: a march over n cells takes about n steps
# of n cells, so at this bound already about 10**12 cell-steps.
_MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class FvConfig:
    """Grid, time horizon and scheme parameters for one oracle run."""

    problem: RiemannProblem
    x_lo: float
    x_hi: float
    n_cells: int
    t_end: float
    cfl: float = 0.45

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "t_end", "cfl"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"FvConfig.{name} must be finite")
        if self.n_cells < 100:
            raise ValidationError(f"n_cells must be >= 100, got {self.n_cells}")
        if self.n_cells > _MAX_CELLS:
            raise ValidationError(f"n_cells must be <= {_MAX_CELLS}, got {self.n_cells}")
        if not (self.x_lo < 0.0 < self.x_hi):
            raise ValidationError("domain must contain the initial discontinuity x = 0")
        if not (0.0 < self.cfl <= 0.5):
            raise CflViolation(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.t_end <= 0.0:
            raise ValidationError(f"t_end must be > 0, got {self.t_end}")


# The density floor: a step clamps every cell below it up to it.
_FLOOR = 1e-12


# A window grows by _CHUNK cells on a side whose edge cell moved. A growth
# re-slices the work arrays (about 5 us), and an edge moves at most one cell
# per step, so a chunk of C costs about 5 us / C per step in re-slicing and
# about C idle cells at 10 ns (A = 0) to 15 ns (A > 0) each: the sum is least
# near C = 18 to 22, and 8, 16 and 32 ran within noise of each other in fv.run
# on the oracle refs.
_CHUNK = 16
# A window step pays for the copy into fresh n-cell arrays, the slices and the
# edge checks, saves the density scan (see _speeds) and skips the cells
# outside the window at 10 to 15 ns each. Timed against a full step of the
# same state, it pays from about 60 to 100 skipped cells on grids of 200 and
# 400 cells and from about 140 to 160 on 1600. A bound of 140 ran within 1%
# of 190 per step on the oracle refs, so 190 stays, and a 200-cell grid always
# takes the full grid. The figures are from a 2-vCPU Intel Xeon, Python 3.11,
# NumPy 2.4.
_SKIP_MIN = 190


class _Work:
    """Work arrays of step for a window of w cells: views of a _Scratch.

    q is one flat row of 2c + 1 entries, c = w + 2: the window's rho cells
    with one outer cell per side, a pad cell, then its m cells laid out
    alike; rho and m are its two halves and rho_in and m_in the window's own
    cells. u and f are laid out as q. Face k lies between q[k] and q[k + 1],
    so half_a, flux and jump have 2c entries. The pad holds 0.0 in q and u,
    and half_a 0.0 on the two faces around it, so those faces' fluxes are
    half the cell flux of the outer cell beside the pad, and the flux
    differences next to the pad no larger than the outer cells' own fluxes:
    no entry that straddles the halves raises a floating-point warning that
    the fields do not raise themselves. The last update runs on each half
    alone and reads none of them. Only this constructor writes the pad
    entries.
    """

    def __init__(self, sc: _Scratch, w: int):
        c = w + 2
        self.w = w
        self.q, self.u, self.f = sc.q[: 2 * c + 1], sc.u[: 2 * c + 1], sc.f[: 2 * c + 1]
        self.half_a, self.flux = sc.half_a[: 2 * c], sc.flux[: 2 * c]
        self.q[c] = self.u[c] = self.half_a[c - 1] = self.half_a[c] = 0.0
        self.rho, self.m = self.q[:c], self.q[c + 1 :]
        self.rho_in, self.m_in = self.rho[1:-1], self.m[1:-1]
        self.q_lo, self.q_hi = self.q[:-1], self.q[1:]
        self.f_lo, self.f_hi = self.f[:-1], self.f[1:]
        self.flux_lo, self.flux_hi = self.flux[:-1], self.flux[1:]
        self.u_rho, self.u_m = self.u[:c], self.u[c + 1 :]
        self.half_rho, self.half_m = self.half_a[: c - 1], self.half_a[c + 1 :]
        # jump holds q_r - q_l per face, then, as diff, the flux difference
        # per cell; diff_rho and diff_m are those of the window's own cells
        self.jump = sc.jump[: 2 * c]
        self.diff = self.jump[:-1]
        self.diff_rho, self.diff_m = self.diff[:w], self.diff[c + 1 : c + 1 + w]
        # boundary faces: the first and last of rho, then of m
        self.ends = (0, c - 2, c + 1, 2 * c - 1)
        self.amax, self.gap, self.nonpositive = sc.amax[:c], sc.gap[:c], sc.nonpositive[:c]
        self.amax_lo, self.amax_hi = self.amax[:-1], self.amax[1:]
        self.low = sc.low[:w]


class _Scratch:
    """Buffers of step for one grid of n cells and one FvConfig.

    step writes every entry before it reads it, except the pad entries that
    _Work sets, so states of one grid can share a scratch, as long as they
    are not stepped concurrently. The constant operands are 0-d arrays: the
    same bits as the Python floats, without a conversion on every ufunc
    call.
    """

    def __init__(self, n: int, cfg: FvConfig):
        self.n, self.cfg = n, cfg
        self.q, self.u, self.f = (np.empty(2 * n + 5) for _ in range(3))
        self.half_a, self.flux, self.jump = (np.empty(2 * n + 4) for _ in range(3))
        self.amax, self.gap = np.empty(n + 2), np.empty(n + 2)
        self.nonpositive = np.empty(n + 2, dtype=bool)
        self.low = np.empty(n, dtype=bool)
        self.work = _Work(self, n)
        g = cfg.problem.params
        self.pressureless = g.pressureless
        self.half, self.zero, self.floor = np.array(0.5), np.array(0.0), np.array(_FLOOR)
        self.A, self.alpha = np.array(g.A), np.array(g.alpha)
        self.one_minus_alpha, self.alpha_A = np.array(1.0 - g.alpha), np.array(g.alpha * g.A)


# The window of a state whose every cell can change: the whole grid.
_FULL = "full grid"


class _Window:
    """The cells [a, b) of the fields rho and m that step works on.

    Every cell outside the window, and its edge cells a (where a > 0) and
    b - 1 (where b < n), holds the bits of its side's far state, far =
    (rho_l, m_l, rho_r, m_r). rho and m are the read-only arrays it was set
    for.
    """

    __slots__ = ("rho", "m", "a", "b", "far")

    def __init__(self, rho, m, a: int, b: int, far: tuple):
        self.rho, self.m, self.a, self.b, self.far = rho, m, a, b, far

    def fits(self, state) -> bool:
        """Whether state's fields are still this window's read-only arrays."""
        rho, m = state.rho, state.m
        return rho is self.rho and m is self.m and not (rho.flags.writeable or m.flags.writeable)

    def after(self, rho, m, rho_win, m_win):
        """The window of the stepped fields rho and m, whose cells [a, b)
        are rho_win and m_win: a side whose edge cell moved grows by
        _CHUNK cells, and the full grid takes over once fewer than
        _SKIP_MIN cells stay outside."""
        n = len(rho)
        a, b = self.a, self.b
        rho_l, m_l, rho_r, m_r = self.far
        if a and not _holds(rho_win.item(0), m_win.item(0), rho_l, m_l):
            a = max(0, a - _CHUNK)
        if b < n and not _holds(rho_win.item(-1), m_win.item(-1), rho_r, m_r):
            b = min(n, b + _CHUNK)
        if n - (b - a) < _SKIP_MIN:
            return _FULL
        return _Window(rho, m, a, b, self.far)


def _holds(rho: float, m: float, rho_far: float, m_far: float) -> bool:
    """Whether a cell holds the bits of a far state. == tells floats of
    different bits apart except +0.0 and -0.0, which m can be; a nan counts
    as moved."""
    return (
        rho == rho_far
        and m == m_far
        and (m != 0.0 or math.copysign(1.0, m) == math.copysign(1.0, m_far))
    )


@dataclass
class FvState:
    """Cell-centred conserved fields plus bookkeeping.

    clamped counts density-floor activations; boundary_mass/boundary_mom
    accumulate the net influx through the domain ends, so totals satisfy
    sum(q) dx - boundary = const to round-off while no clamping occurs.
    scratch holds step's work arrays for this grid; it is not part of the
    state's value. _window is the part of the grid that step works on;
    init_state and step set it, and every other state takes the full grid.
    """

    x: np.ndarray
    rho: np.ndarray
    m: np.ndarray
    t: float
    clamped: int = 0
    boundary_mass: float = 0.0
    boundary_mom: float = 0.0
    scratch: _Scratch | None = field(default=None, repr=False, compare=False)
    _window: _Window | str = field(default=_FULL, init=False, repr=False, compare=False)

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


def _speeds(wk: _Work, sc: _Scratch, beta_t: float, scan: bool) -> float:
    """The velocity u = (m + A rho**(1-alpha)) / rho + beta t of every cell of
    wk.rho and wk.m, into wk.u_rho, the larger signal speed |u| or
    |u - alpha A / rho**alpha| of each, into wk.amax, and the largest of those.

    With scan, raises NonPositiveDensity if any rho <= 0. Without, every rho
    must be > 0 or nan already, as in the fields of a window: init_state's
    are the data's densities, and step leaves each cell as it was, >= the
    floor, or nan.

    At A = 0 the pressure terms are skipped, u being (m + A rho) / rho +
    beta t and amax |u|: the same bits, since at every rho > 0 A rho and
    A rho**(1-alpha) are the same signed zero (the same nan at rho = inf,
    with the same warning), and u - alpha A / rho**alpha is u but for the
    sign of a zero, which |.| drops.
    """
    rho, u, amax = wk.rho, wk.u_rho, wk.amax
    if scan and np.count_nonzero(np.less_equal(rho, sc.zero, out=wk.nonpositive)):
        raise NonPositiveDensity("cannot recover velocity at nonpositive density")
    if sc.pressureless:
        np.multiply(sc.A, rho, out=u)
    else:
        np.power(rho, sc.one_minus_alpha, out=u)
        np.multiply(sc.A, u, out=u)
    np.add(wk.m, u, out=u)
    np.divide(u, rho, out=u)
    np.add(u, beta_t, out=u)
    np.abs(u, out=amax)
    if not sc.pressureless:
        gap = np.power(rho, sc.alpha, out=wk.gap)
        np.divide(sc.alpha_A, gap, out=gap)
        np.subtract(u, gap, out=gap)
        np.abs(gap, out=gap)
        np.maximum(amax, gap, out=amax)
    return float(amax.max())


def init_state(cfg: FvConfig) -> FvState:
    """The Riemann data on the grid, with read-only rho and m, and their
    window: _CHUNK cells per side of the interface, or the full grid when
    that skips fewer than _SKIP_MIN cells or a far density lies below the
    floor (the clamp moves every far cell)."""
    x, _ = grid(cfg)
    p = cfg.problem
    g = p.params
    rho = np.where(x < 0.0, p.left.rho, p.right.rho)
    v = np.where(x < 0.0, p.left.v, p.right.v)
    m = rho * v - g.A * rho ** (1.0 - g.alpha)
    rho.setflags(write=False)
    m.setflags(write=False)
    state = FvState(x=x, rho=rho, m=m, t=0.0)
    n, k = len(x), int(np.searchsorted(x, 0.0))
    a, b = max(0, k - _CHUNK), min(n, k + _CHUNK)
    if n - (b - a) >= _SKIP_MIN and min(p.left.rho, p.right.rho) >= _FLOOR:
        far = (rho.item(0), m.item(0), rho.item(-1), m.item(-1))
        state._window = _Window(rho, m, a, b, far)
    return state


def step(state: FvState, cfg: FvConfig, dt_cap: float | None = None) -> FvState:
    """One forward-Euler LLF step; dt = cfl dx / max|lambda|, capped.

    Pure: returns a new state with freshly allocated, read-only rho and m
    and leaves state untouched. Each ghost cell copies its edge cell
    (zero-gradient outflow). The work arrays come from state.scratch, are
    allocated here when state carries none for its grid and config, and
    pass on to the returned state.

    Only the cells of state's window are stepped; every cell outside it
    keeps its bits (see _advance). A window that does not fit state's
    fields is not trusted, and the full grid is stepped.
    """
    n = len(state.rho)
    sc = state.scratch
    if sc is None or sc.n != n or sc.cfg is not cfg:
        sc = _Scratch(n, cfg)
    win = state._window
    if win is not _FULL and win.fits(state):
        new = _advance(state, cfg, dt_cap, sc, win.a, win.b, win)
        if new is not None:
            return new
    return _advance(state, cfg, dt_cap, sc, 0, n, _FULL)


def _advance(state: FvState, cfg: FvConfig, dt_cap, sc: _Scratch, a: int, b: int, win):
    """step on the window's cells [a, b) and one outer cell per side.

    The outer cell is a far cell, or a ghost at a grid end. Outside the
    window every face lies between two equal far states, where the LLF flux
    is f, its difference 0.0 and the update q - lam 0.0 = q bit for bit;
    the window's two outer faces are such faces, so they give the boundary
    fluxes, and the outer cells the far signal speeds, of the full grid.
    dt, both boundary sums, the clamp count and the CflViolation checks
    therefore come out as on the full grid; the NonPositiveDensity scan runs
    on the full grid only (see _speeds). Only a non-finite flux on a far face
    breaks this (the full grid turns far cells into nan there); then this
    returns None and step takes the full grid.
    """
    n = len(state.rho)
    wk = sc.work
    if wk.w != b - a:
        wk = sc.work = _Work(sc, b - a)
    dx = state.dx
    rho, m = wk.rho, wk.m
    wk.rho_in[...] = state.rho[a:b]
    wk.m_in[...] = state.m[a:b]
    lo, hi = a - 1 if a else 0, b if b < n else b - 1
    rho[0], rho[-1] = state.rho[lo], state.rho[hi]
    m[0], m[-1] = state.m[lo], state.m[hi]

    peak = _speeds(wk, sc, cfg.problem.params.beta * state.t, scan=win is _FULL)
    if not math.isfinite(peak):
        raise CflViolation("wave speeds are not finite")

    dt = cfg.cfl * dx / peak if peak > 0.0 else math.inf
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not (0.0 < dt < math.inf):
        raise CflViolation(f"no admissible time step (dt = {dt})")

    # 0.5 a per face and u per cell, copied from the rho half to the m half
    half_a = np.maximum(wk.amax_lo, wk.amax_hi, out=wk.half_rho)
    np.multiply(sc.half, half_a, out=half_a)
    wk.half_m[...] = half_a
    wk.u_m[...] = wk.u_rho
    # the LLF flux 0.5 (f_l + f_r) - (0.5 a) (q_r - q_l), f = u q, on every
    # face of both halves
    np.multiply(wk.u, wk.q, out=wk.f)
    flux = np.add(wk.f_lo, wk.f_hi, out=wk.flux)
    np.multiply(sc.half, flux, out=flux)
    jump = np.subtract(wk.q_hi, wk.q_lo, out=wk.jump)
    np.multiply(wk.half_a, jump, out=jump)
    np.subtract(flux, jump, out=flux)
    rho_first, rho_last, m_first, m_last = wk.ends
    mass_in = dt * (flux[rho_first] - flux[rho_last])
    mom_in = dt * (flux[m_first] - flux[m_last])
    if win is not _FULL and not (math.isfinite(mass_in) and math.isfinite(mom_in)):
        return None

    # lam (F_r - F_l) on every cell of both halves
    lam = dt / dx
    diff = np.subtract(wk.flux_hi, wk.flux_lo, out=wk.diff)
    np.multiply(lam, diff, out=diff)
    # q - lam (F_r - F_l) into fresh arrays: the window's cells into rho_new
    # and m_new, which are views of rho_out and m_out, the rest copied from
    # state
    if win is _FULL:
        rho_new = rho_out = np.empty(n)
        m_new = m_out = np.empty(n)
    else:
        rho_out, m_out = state.rho.copy(), state.m.copy()
        rho_new, m_new = rho_out[a:b], m_out[a:b]
    np.subtract(wk.rho_in, wk.diff_rho, out=rho_new)
    np.subtract(wk.m_in, wk.diff_m, out=m_new)
    n_clamp = int(np.count_nonzero(np.less(rho_new, sc.floor, out=wk.low)))
    if n_clamp:
        np.maximum(rho_new, sc.floor, out=rho_new)
    rho_out.setflags(write=False)
    m_out.setflags(write=False)

    new = FvState(
        x=state.x,
        rho=rho_out,
        m=m_out,
        t=state.t + dt,
        clamped=state.clamped + n_clamp,
        boundary_mass=state.boundary_mass + mass_in,
        boundary_mom=state.boundary_mom + mom_in,
        scratch=sc,
    )
    new._window = _FULL if win is _FULL else win.after(new.rho, new.m, rho_new, m_new)
    return new


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


def _cells(mask: np.ndarray) -> slice:
    """The cells where mask holds, as a slice; they must lie in one run."""
    idx = np.flatnonzero(mask)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def delta_mass_window(x: np.ndarray, center: float, halfwidth: float) -> slice:
    """The cells x with |x - center| <= halfwidth, as a slice of the grid.

    Raises WindowOutOfDomain unless the window holds a cell and the two
    cells adjacent to it, which give measure_delta_mass its background, lie
    inside the domain.
    """
    if halfwidth <= 0.0:
        raise WindowOutOfDomain("window halfwidth must be positive")
    cells = _cells(np.abs(x - center) <= halfwidth)
    if cells.start == cells.stop:
        raise WindowOutOfDomain("window contains no cells")
    if cells.start == 0 or cells.stop == x.size:
        raise WindowOutOfDomain("window (plus background cells) leaves the domain")
    return cells


def measure_delta_mass(state: FvState, cells: slice) -> float:
    """Mass in the cells of a delta_mass_window above the local background.

    The background density is the mean of the two cells adjacent to the
    window, times the window length.
    """
    dx, rho = state.dx, state.rho
    raw = float(np.sum(rho[cells])) * dx
    background = 0.5 * (rho[cells.start - 1] + rho[cells.stop]) * (cells.stop - cells.start) * dx
    return raw - float(background)


def compare_to_exact(state: FvState, fan: WaveFan, exclusion: float) -> float:
    """L1 density error against the exact fan at the state's time, skipping
    wave neighbourhoods.

    exclusion is the half-width (in x) removed around every wave position.
    """
    rho_exact = _profile(fan, state.x, state.t)[0]
    keep = np.ones(state.x.shape, dtype=bool)
    for _, pos in wave_positions(fan, state.t):
        keep &= np.abs(state.x - pos) > exclusion
    return float(np.sum(np.abs(state.rho[keep] - rho_exact[keep])) * state.dx)


def offset_windows(x: np.ndarray, fan: WaveFan, t: float):
    """The waves that wave_offsets locates on the cell centres x, each with
    the cells it searches, as (wave, cells) pairs; cells is a slice of the
    grid.

    A wave is located where the densities the fan stores on its two sides
    differ (a vacuum counts as 0), so not a contact of constant data: a jump
    (shock or contact) by the steepest density difference, the delta spike
    by the density peak. Rarefaction edges are omitted: the scheme smears a
    slope kink into a transition wider than the fan's own curvature, so no
    gradient-based locator applies; the profile comparison covers them. A
    window is centred on the wave's position at t, with a half-width of 0.45
    times the gap to the nearest other wave, at most 15% of the domain and
    at least five cells. Raises WindowOutOfDomain when a window holds fewer
    than five cells.
    """
    positions = [wave.path.position(t) for wave in fan.waves]
    rho = [0.0 if seg is None else seg.rho for seg in fan.states]
    span = float(x[-1] - x[0])
    dx = float(x[1] - x[0])
    out = []
    for k, (wave, pos) in enumerate(zip(fan.waves, positions)):
        left, right = rho[k], rho[k + 1]
        if wave.kind in ("head", "tail") or (
            wave.kind != "delta" and abs(right - left) <= 1e-9 * max(1.0, left, right)
        ):
            continue
        gaps = [abs(pos - q) for j, q in enumerate(positions) if j != k]
        halfwidth = min(gaps) * 0.45 if gaps else 0.15 * span
        halfwidth = max(5.0 * dx, min(halfwidth, 0.15 * span))
        cells = _cells(np.abs(x - pos) <= halfwidth)
        if cells.stop - cells.start < 5:
            raise WindowOutOfDomain("search window too small or outside the grid")
        out.append((wave, cells))
    return out


def wave_offsets(state: FvState, windows):
    """Signed located-minus-exact distance, in cells, per window of
    offset_windows, as (label, method, cells) triples.

    A jump is located at the interface with the steepest density difference
    in its window, a delta at the cell with the largest density; each is
    measured against the wave's position at the state's time.
    """
    dx, x = state.dx, state.x
    out = []
    for wave, cells in windows:
        rho = state.rho[cells]
        if wave.kind == "delta":
            method, found = "peak", x[cells.start + np.argmax(rho)]
        else:
            method, found = "jump", x[cells.start + np.argmax(np.abs(np.diff(rho)))] + 0.5 * dx
        out.append((wave.label, method, float(found - wave.path.position(state.t)) / dx))
    return out


def gate_cells(cfg: FvConfig, fan: WaveFan, delta_window: float):
    """The cells the oracle's gates read at t_end, on cfg's grid: the pairs
    of offset_windows, the delta_mass_window of half-width delta_window (None
    without a delta) and the plateau, the middle 40% of the star segment
    (None without a star state; it may hold no cell). Raises
    WindowOutOfDomain as delta_mass_window and offset_windows do."""
    x, t = grid(cfg)[0], cfg.t_end
    delta = plateau = None
    if fan.delta is not None:
        delta = delta_mass_window(x, fan.delta.path.position(t), delta_window)
    offsets = offset_windows(x, fan, t)
    if fan.star is not None:
        # the plateau lies between the two waves around the star segment
        k = fan.states.index(fan.star)
        lo, hi = (wave.path.position(t) for wave in fan.waves[k - 1 : k + 1])
        width = hi - lo
        plateau = _cells((x >= lo + 0.3 * width) & (x <= hi - 0.3 * width))
    return offsets, delta, plateau
