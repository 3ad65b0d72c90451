"""Distributional residuals of the Riemann solution.

A constructed fan is a weak solution iff for every compactly supported
smooth psi(x, t) with support in t > 0,

    R1 = <rho, psi_t> + <rho u, psi_x> = 0,
    R2 = <rho(u + P), psi_t> + <rho u (u + P), psi_x> + <beta rho, psi> = 0,

where the pairings integrate the classical part over the plane and add, for
a delta shock, line integrals along the trajectory parametrized by t with
weight w(t), velocity u_delta(t), and A/rho**alpha taken as zero on the
delta. The integrals are done with tensor Gauss-Legendre quadrature; the
support rectangle is split at every wave trajectory so each quadrature cell
sees a smooth integrand.

The bump factors of psi are evaluated once per strip, each pair (b, b')
with one exp: the t factors once per time panel on its n nodes, the x
factors once on the strip's n x n grid and on a delta's n trajectory
points; psi, psi_x and psi_t are their broadcast products. A pair whose
every argument lies inside the support is taken on the whole array;
otherwise only the inside entries are computed. The nodes of a strip row
are monotone across it, so the two end columns of the grid decide whether
every x argument lies inside.

Each strip lies between two adjacent wave paths, and a WaveFan keeps its
waves in order, so strip k is segment fan.states[k]. When every node lies
strictly between the strip's two paths, a constant segment enters as its
rho (a 0-d operand) and columns of its u over the n time nodes, and a
vacuum strip is skipped, since every term there is a signed zero. A
rarefaction interior, or a strip with a node on or past a path (a strip
thinner than a few ulps), falls back to the per-point waves._profile.
Either way the residuals are bit for bit the per-point ones. Time is never
expanded to the grid.

Every n x n pass of a strip writes, with out=, into one of six work
arrays of its order n (_Work), in the order of operations of the plain
expressions, so no strip allocates an n x n temporary and the sums keep
their bits. A set outlives the call: each thread keeps its own
(threading.local), so concurrent calls never share one, and holds the
sets of its last two orders up to 256, at most 6.3 MB per thread (0.98 MB
for orders 64 and 128). A higher order gets a fresh set on every call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInput, UnsupportedQuadOrder, ValidationError
from .waves import WaveFan, _profile


def _bump_inside(s):
    """(b, b') on an array whose every entry has |s| < 1, with one exp."""
    g = 1.0 - s * s
    b = np.exp(-1.0 / g)
    return b, b * (-2.0 * s / (g * g))


def _bump_pair(s):
    """C-infinity bump b(s) = exp(-1/(1-s^2)) on |s| < 1 and its derivative.

    Both factors come from one pass with one exp, over the whole array when
    every |s| < 1 and over the inside entries otherwise; both vanish to all
    orders at |s| = 1 and are zero outside.
    """
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    if inside.all():
        return _bump_inside(s)
    b = np.zeros(s.shape)
    db = np.zeros(s.shape)
    b[inside], db[inside] = _bump_inside(s[inside])
    return b, db


@dataclass(frozen=True)
class TestFunction:
    """Tensor bump psi(x, t) = b((x-x0)/rx) b((t-t0)/rt), support in t > 0."""

    __test__ = False  # not a pytest case despite the contract name

    x0: float
    t0: float
    rx: float
    rt: float

    def __post_init__(self):
        for name in ("x0", "t0", "rx", "rt"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteInput(f"TestFunction.{name} must be finite")
        if self.rx <= 0.0 or self.rt <= 0.0:
            raise ValidationError("TestFunction radii must be positive")
        if self.t0 - self.rt <= 0.0:
            raise ValidationError("TestFunction support must lie in t > 0")

    def x_factors(self, x):
        """(b, b') of the x factor at (x - x0)/rx."""
        return _bump_pair((np.asarray(x) - self.x0) / self.rx)

    def t_factors(self, t):
        """(b, b') of the t factor at (t - t0)/rt."""
        return _bump_pair((np.asarray(t) - self.t0) / self.rt)

    def value(self, x, t):
        return self.x_factors(x)[0] * self.t_factors(t)[0]

    def dx(self, x, t):
        return self.x_factors(x)[1] / self.rx * self.t_factors(t)[0]

    def dt(self, x, t):
        return self.x_factors(x)[0] * (self.t_factors(t)[1] / self.rt)


@lru_cache(maxsize=32)
def _gauss(n: int):
    """Gauss-Legendre nodes and weights of order n. Every caller shares the
    two arrays, so they are read-only: a stray write raises."""
    nodes, wts = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = wts.flags.writeable = False
    return nodes, wts


class _Work:
    """The n x n work arrays of the strip kernel at quadrature order n.

    The kernel writes every entry before it reads it, so a set carries
    nothing from one strip, panel, bump or fan to the next. frac is where
    each node sits across a strip, 0.5 (node + 1). The end-column inside
    test needs it nondecreasing, so that each row of a strip's node grid is
    monotone; that is checked here, once per set.
    """

    def __init__(self, n: int):
        self.n = n
        self.frac = 0.5 * (_gauss(n)[0][None, :] + 1.0)
        if np.any(np.diff(self.frac[0]) < 0.0):
            raise RuntimeError(f"Gauss-Legendre nodes of order {n} are not in order")
        self.frac.flags.writeable = False
        self.x, self.w, self.p, self.b, self.t1, self.t2 = (np.empty((n, n)) for _ in range(6))


# Each thread keeps the work sets of its last _KEEP orders up to _KEEP_MAX_N:
# at most 2 x 6 x 256^2 x 8 B = 6.3 MB, and 0.98 MB for orders 64 and 128.
# A higher order gets a fresh set per call.
_KEEP = 2
_KEEP_MAX_N = 256
_kept = threading.local()


def _work(n: int) -> _Work:
    """This thread's work set of order n, most recently used first."""
    sets = _kept.__dict__.setdefault("sets", [])
    for i, ws in enumerate(sets):
        if ws.n == n:
            sets.insert(0, sets.pop(i))
            return ws
    ws = _Work(n)
    if n <= _KEEP_MAX_N:
        sets.insert(0, ws)
        del sets[_KEEP:]
    return ws


def _strip_sums(ws: _Work, psi: TestFunction, rho, rho_u, mom, mom_u, beta_rho, bt, dbt_rt):
    """Quadrature sums (R1, R2) of one strip, pass by pass in ws.

    On entry ws.x holds the strip's nodes X and ws.w their weights W; the
    state terms are 0-d, (n, 1) columns over the time nodes or n x n. Each
    pass is the operation, in the order, of

        R1 = sum(W (rho psi_t + (rho u) psi_x))
        R2 = sum(W (mom psi_t + (mom u) psi_x + (beta rho) psi)),

    with psi_t = b dbt_rt, psi_x = b' / rx * bt and psi = b bt for the
    x-bump pair (b, b') of _bump_pair, so the sums are bit for bit those
    of the allocating expressions.
    """
    s, p, b = ws.x, ws.p, ws.b
    np.subtract(s, psi.x0, out=s)
    np.divide(s, psi.rx, out=s)
    # a monotone row has its extremes at its ends, so the two end columns
    # decide whether every |s| < 1
    if (np.abs(s[:, :: ws.n - 1]) < 1.0).all():
        np.multiply(s, s, out=p)
        np.subtract(1.0, p, out=p)  # g = 1 - s^2
        np.exp(np.divide(-1.0, p, out=b), out=b)
        np.multiply(-2.0, s, out=s)
        np.multiply(p, p, out=p)
        np.divide(s, p, out=s)
        np.multiply(b, s, out=s)  # b' = b (-2 s / g^2)
    else:
        b[...], s[...] = _bump_pair(s)
    np.multiply(b, dbt_rt, out=p)  # psi_t
    np.divide(s, psi.rx, out=s)
    np.multiply(s, bt, out=s)  # psi_x

    t1, t2 = ws.t1, ws.t2
    np.multiply(rho, p, out=t1)
    np.add(t1, np.multiply(rho_u, s, out=t2), out=t1)
    r1 = float(np.multiply(ws.w, t1, out=t1).sum())
    np.multiply(mom, p, out=p)
    np.add(p, np.multiply(mom_u, s, out=s), out=p)
    np.multiply(beta_rho, np.multiply(b, bt, out=b), out=b)
    np.add(p, b, out=p)
    r2 = float(np.multiply(ws.w, p, out=p).sum())
    return r1, r2


def _check_order(quad_n) -> int:
    if isinstance(quad_n, bool) or not isinstance(quad_n, (int, np.integer)):
        raise UnsupportedQuadOrder(f"quad_n must be an integer, got {quad_n!r}")
    if not 8 <= quad_n <= 1024:
        raise UnsupportedQuadOrder(f"quad_n must lie in [8, 1024], got {quad_n}")
    return int(quad_n)


def _crossing_times(c: float, beta: float, x_edge: float, t_lo: float, t_hi: float):
    """Times in (t_lo, t_hi) at which c t + beta t^2/2 passes x_edge."""
    hits = []
    if beta == 0.0:
        if c != 0.0:
            hits.append(x_edge / c)
    else:
        disc = c * c + 2.0 * beta * x_edge
        if disc > 0.0:
            sq = math.sqrt(disc)
            hits.extend(((-c + sq) / beta, (-c - sq) / beta))
        elif disc == 0.0:
            hits.append(-c / beta)
    return [t for t in hits if t_lo < t < t_hi]


def weak_residual(fan: WaveFan, psi: TestFunction, quad_n: int = 64):
    """Residuals (R1, R2) of the two weak-form identities of fan.problem
    against psi."""
    n = _check_order(quad_n)
    g = fan.problem.params
    nodes, wts = _gauss(n)
    ws = _work(n)

    t_lo, t_hi = psi.t0 - psi.rt, psi.t0 + psi.rt
    x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
    paths = [wave.path for wave in fan.waves]

    cuts = {t_lo, t_hi}
    for path in paths:
        for edge in (x_lo, x_hi):
            cuts.update(_crossing_times(path.c, g.beta, edge, t_lo, t_hi))
    panels = sorted(cuts)

    r1 = 0.0
    r2 = 0.0
    for ta, tb in zip(panels[:-1], panels[1:]):
        tj = 0.5 * (ta + tb) + 0.5 * (tb - ta) * nodes
        wj = 0.5 * (tb - ta) * wts
        t_col = tj[:, None]
        bt, dbt = psi.t_factors(t_col)
        dbt_rt = dbt / psi.rt

        # x-breakpoints: wave positions clipped into the support, kept in
        # their left-to-right order (wave trajectories do not cross)
        half = 0.5 * g.beta * tj * tj
        rows = [np.full(tj.shape, x_lo)]
        for path in paths:
            rows.append(np.clip(path.c * tj + half, x_lo, x_hi))
        rows.append(np.full(tj.shape, x_hi))

        for k, (lo, hi) in enumerate(zip(rows[:-1], rows[1:])):
            width = hi - lo
            if not (width > 0.0).any():
                continue
            X = np.multiply(width[:, None], ws.frac, out=ws.x)
            np.add(lo[:, None], X, out=X)
            seg = fan.states[k]
            # X grows along each row, so its end columns decide whether every
            # node lies strictly between the strip's two paths
            inside = (lo < X[:, 0]).all() and (X[:, -1] < hi).all()
            if inside and seg is not None:
                # rho ** e stays NumPy's power on an array: a Python float
                # power differs from it in the last bit for some values
                rho_col = np.full(t_col.shape, seg.rho)
                u = seg.v + g.beta * t_col
                rho, beta_rho = seg.rho, g.beta * seg.rho
            elif inside and fan.is_vacuum(k):
                continue  # every term is a signed zero
            else:
                rho_col, u = _profile(fan, X, t_col)
                rho, beta_rho = rho_col, g.beta * rho_col
            np.multiply((wj * 0.5 * width)[:, None], wts, out=ws.w)

            rho_u = rho_col * u
            mom = rho_u - g.A * rho_col ** (1.0 - g.alpha)
            s1, s2 = _strip_sums(ws, psi, rho, rho_u, mom, mom * u, beta_rho, bt, dbt_rt)
            r1 += s1
            r2 += s2

        if fan.delta is not None:
            d = fan.delta
            xt = d.path.position(tj)
            wt = d.weight(tj)
            ud = d.path.speed(tj)
            # psi.dt, psi.dx and psi.value on the trajectory, from one x-bump
            # pair and the panel's t factors
            bx, dbx = psi.x_factors(xt)
            along = bx * dbt_rt[:, 0] + ud * (dbx / psi.rx * bt[:, 0])
            r1 += float(np.sum(wj * wt * along))
            r2 += float(np.sum(wj * (wt * ud * along + g.beta * wt * (bx * bt[:, 0]))))

    return r1, r2


def residual_battery(fan: WaveFan):
    """Five deterministic test bumps probing the fan around t = 1.

    One wide bump covering every wave, smooth-region bumps clear of the
    waves, and one bump straddling each individual wave, five in total.
    """
    rt = 0.4
    span_t = (1.0 - rt, 1.0 + rt)
    positions = []
    speeds = []
    paths = [wave.path for wave in fan.waves]
    for path in paths:
        positions.append(path.position(1.0))
        speeds.append(max(abs(path.speed(span_t[0])), abs(path.speed(span_t[1]))))
    lo = min(path.position(tt) for path in paths for tt in span_t)
    hi = max(path.position(tt) for path in paths for tt in span_t)

    wide = TestFunction(x0=0.5 * (lo + hi), t0=1.0, rx=0.5 * (hi - lo) + 1.0, rt=rt)
    left_clear = TestFunction(x0=lo - 1.5, t0=1.0, rx=1.0, rt=rt)
    right_clear = TestFunction(x0=hi + 1.5, t0=1.0, rx=1.0, rt=rt)

    bumps = [wide, left_clear]
    for xk, sk in zip(positions, speeds):
        # wide enough that the wave stays inside the bump across its t-window
        bumps.append(TestFunction(x0=xk, t0=1.0, rx=max(0.5, 0.6 * sk * rt + 0.3), rt=rt))
        if len(bumps) == 5:
            break
    if len(bumps) < 5:
        bumps.append(right_clear)
    if len(bumps) < 5:
        bumps.append(
            TestFunction(x0=0.5 * (lo + hi), t0=1.4, rx=0.5 * (hi - lo) + 1.5, rt=0.4 * 1.4)
        )
    return tuple(bumps)
