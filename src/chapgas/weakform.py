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
factors once on the strip's n x n grid; psi, psi_x and psi_t are their
broadcast products. A pair whose every argument lies inside the support is
taken on the whole array; otherwise only the inside entries are computed.

Each strip lies between two adjacent wave paths, so strip k is segment
fan.states[k]. When the waves are in order and every node lies strictly
between the strip's two paths, a constant segment enters as columns of its
rho and u over the n time nodes, and a vacuum strip is skipped, since
every term there is a signed zero. A rarefaction interior, or a strip with
a node on or past a path (a strip thinner than a few ulps), falls back to
the per-point waves._profile. Either way the residuals are bit for bit the
per-point ones. Time is never expanded to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInput, UnsupportedQuadOrder, ValidationError
from .states import RiemannProblem
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
    return np.polynomial.legendre.leggauss(n)


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


def weak_residual(p: RiemannProblem, fan: WaveFan, psi: TestFunction, quad_n: int = 64):
    """Residuals (R1, R2) of the two weak-form identities against psi."""
    n = _check_order(quad_n)
    g = p.params
    nodes, wts = _gauss(n)

    t_lo, t_hi = psi.t0 - psi.rt, psi.t0 + psi.rt
    x_lo, x_hi = psi.x0 - psi.rx, psi.x0 + psi.rx
    paths = [wave.path for wave in fan.waves]
    ordered = all(a.c <= b.c for a, b in zip(paths[:-1], paths[1:]))

    cuts = {t_lo, t_hi}
    for path in paths:
        for edge in (x_lo, x_hi):
            cuts.update(_crossing_times(path.c, g.beta, edge, t_lo, t_hi))
    panels = sorted(cuts)

    r1 = 0.0
    r2 = 0.0
    for ta, tb in zip(panels[:-1], panels[1:]):
        if tb <= ta:
            continue
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
            if not np.any(width > 0.0):
                continue
            X = lo[:, None] + width[:, None] * (0.5 * (nodes[None, :] + 1.0))
            seg = fan.states[k]
            # X grows along each row, so its end columns decide whether every
            # node lies strictly between the strip's two paths
            inside = ordered and np.all(lo < X[:, 0]) and np.all(X[:, -1] < hi)
            if inside and seg is not None:
                # an array, so rho ** e below is NumPy's power: a Python float
                # power differs from it in the last bit for some values
                rho = np.full(t_col.shape, seg.rho)
                u = seg.v + g.beta * t_col
            elif inside and fan.is_vacuum(k):
                continue  # every term is a signed zero
            else:
                rho, u = _profile(fan, X, t_col)
            W = (wj * 0.5 * width)[:, None] * wts[None, :]

            mom = rho * u - g.A * rho ** (1.0 - g.alpha)
            bx, dbx = psi.x_factors(X)
            psi_t = bx * dbt_rt
            psi_x = dbx / psi.rx * bt
            r1 += float(np.sum(W * (rho * psi_t + rho * u * psi_x)))
            r2 += float(np.sum(W * (mom * psi_t + mom * u * psi_x + g.beta * rho * (bx * bt))))

        if fan.delta is not None:
            d = fan.delta
            xt = d.position(tj)
            wt = d.weight(tj)
            ud = d.u_delta(tj)
            psi_t = psi.dt(xt, tj)
            psi_x = psi.dx(xt, tj)
            along = psi_t + ud * psi_x
            r1 += float(np.sum(wj * wt * along))
            r2 += float(np.sum(wj * (wt * ud * along + g.beta * wt * psi.value(xt, tj))))

    return r1, r2


def residual_battery(fan: WaveFan, t_center: float = 1.0):
    """Five deterministic test bumps probing the fan around t = t_center.

    One wide bump covering every wave, smooth-region bumps clear of the
    waves, and one bump straddling each individual wave, five in total.
    """
    beta = fan.problem.params.beta
    rt = 0.4 * t_center
    span_t = (t_center - rt, t_center + rt)
    positions = []
    speeds = []
    paths = [wave.path for wave in fan.waves]
    for path in paths:
        positions.append(path.position(t_center))
        speeds.append(max(abs(path.speed(span_t[0])), abs(path.speed(span_t[1]))))
    lo = min(path.position(tt) for path in paths for tt in span_t)
    hi = max(path.position(tt) for path in paths for tt in span_t)

    wide = TestFunction(
        x0=0.5 * (lo + hi), t0=t_center, rx=0.5 * (hi - lo) + 1.0, rt=rt
    )
    left_clear = TestFunction(x0=lo - 1.5, t0=t_center, rx=1.0, rt=rt)
    right_clear = TestFunction(x0=hi + 1.5, t0=t_center, rx=1.0, rt=rt)

    bumps = [wide, left_clear]
    for xk, sk in zip(positions, speeds):
        # wide enough that the wave stays inside the bump across its t-window
        bumps.append(TestFunction(x0=xk, t0=t_center, rx=max(0.5, 0.6 * sk * rt + 0.3), rt=rt))
        if len(bumps) == 5:
            break
    if len(bumps) < 5:
        bumps.append(right_clear)
    if len(bumps) < 5:
        shifted = 1.4 * t_center
        bumps.append(
            TestFunction(x0=0.5 * (lo + hi), t0=shifted, rx=0.5 * (hi - lo) + 1.5, rt=0.4 * shifted)
        )
    return tuple(bumps)
