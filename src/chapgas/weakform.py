"""Distributional residuals of the Riemann solution.

A constructed fan is a weak solution iff for every compactly supported
smooth psi(x, t) with support in t > 0,

    R1 = <rho, psi_t> + <rho u, psi_x> = 0,
    R2 = <rho(u + P), psi_t> + <rho u (u + P), psi_x> + <beta rho, psi> = 0,

where the pairings integrate the classical part over the plane and add, for
a delta shock, line integrals along the trajectory parametrized by t with
weight w(t), velocity u_delta(t), and A/rho**alpha taken as zero on the
delta. The test functions are tensor bumps psi = b((x - x0)/rx) bt(t) with
bt(t) = b((t - t0)/rt). The support's time span is split into panels
wherever a wave enters or leaves the support, each panel takes n
Gauss-Legendre nodes in t, and at each node the x axis splits at the wave
positions into strips, strip k holding segment fan.states[k] (a WaveFan
keeps its waves in order).

A constant strip is integrated exactly in x. Its state is constant, so
every term is a function of t times psi_t, psi_x or psi, and with B the
antiderivative of b and s = (x - x0)/rx running over [s_lo, s_hi],

    int psi_x dx = bt [b(s_hi) - b(s_lo)],
    int psi dx = rx bt [B(s_hi) - B(s_lo)],
    int psi_t dx = rx (bt' / rt) [B(s_hi) - B(s_lo)].

B comes from a table of 512 cells, built on first use: a strip's interval
is whole cells from the table plus a piece at each end by Gauss nodes, and
an interval inside one cell is one piece, so a strip thinner than a cell
keeps its relative accuracy. A strip's width is the difference of its two
clipped wave positions, the same width a grid of nodes across the strip
would see. A vacuum strip adds nothing.

A rarefaction interior is integrated on an n x n Gauss grid per panel, its
states from waves._profile's closed form, op for op (from _profile itself
when a node lies on the head or the tail). Every n x n pass writes, with
out=, into one of ten work arrays of its order n (_Work), in the order of
operations of the plain expressions, so no pass allocates an n x n
temporary and the sums keep their bits. Each thread keeps its own sets
(threading.local) of its last two orders up to 256, at most 10.5 MB per
thread (1.6 MB for orders 64 and 128); a higher order gets a fresh set.

A call takes all its bumps in one pass: their panels are the rows of one
ragged axis, each row with its own bump's (x0, t0, rx, rt), and the t
factors, the wave positions, the constant strips of all panels and the
delta line are one expression each, every pair (b, b') with one exp. A
bump's sums run over a contiguous copy of its own rows, its delta panel
sums added in order, so it gets the bits it would get alone.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import NonFiniteInput, UnsupportedQuadOrder, ValidationError
from .waves import WaveFan, _profile


def _bump_inside(s, g=None, b=None):
    """(b, b') for every |s| < 1 by g = 1 - s^2, b = exp(-1/g) and
    b' = b (-2 s / g^2), in that order, with one exp; b' is written over s,
    and g and b, if given, are arrays of the shape of s to work in."""
    g = np.multiply(s, s, out=np.empty_like(s) if g is None else g)
    np.subtract(1.0, g, out=g)
    b = np.divide(-1.0, g, out=np.empty_like(s) if b is None else b)
    np.exp(b, out=b)
    np.multiply(-2.0, s, out=s)
    np.multiply(g, g, out=g)
    np.divide(s, g, out=s)
    return b, np.multiply(b, s, out=s)


def _bump_pair(s):
    """C-infinity bump b(s) = exp(-1/(1-s^2)) on |s| < 1 and its derivative.

    Both factors come from one pass with one exp, over the whole array when
    every |s| < 1 and over the inside entries otherwise; both vanish to all
    orders at |s| = 1 and are zero outside.
    """
    s = np.array(s, dtype=float)  # a copy: _bump_inside writes over it
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


# B(s) = int_{-1}^{s} b: _CELLS cells of width 2/_CELLS (a power of two, so
# every edge is exact), each integrated with _TABLE_ORDER Gauss nodes, and a
# piece of one cell with _PIECE_ORDER nodes
_CELLS = 512
_TABLE_ORDER = 16
_PIECE_ORDER = 8
_RIM = 2.0**-10


def _running_sums(values):
    """0 and the running sums of values, each with Neumaier's compensation."""
    out, total, comp = [0.0], 0.0, 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
        out.append(total + comp)
    return out


@cache
def _bump_table():
    """The cell edges E_0..E_{_CELLS + 1} (the last lies past 1), the
    integrals B(E_i) and the bump values b(E_i) for i <= _CELLS, and the
    piece rule: node fractions 0.5 (node + 1) and half-weights.

    Built on first use, 4 KB per array, and read-only. Each B(E_i) is the
    compensated sum of its cells' integrals, within an ulp of the exact sum:
    a plain cumulative sum is off by up to ten ulps, and math.fsum per
    prefix takes some 10 ms.
    """
    h = 2.0 / _CELLS
    edges = -1.0 + h * np.arange(_CELLS + 2)
    nodes, wts = _gauss(_TABLE_ORDER)
    cells = 0.5 * h * (_bump_pair(edges[:_CELLS, None] + 0.5 * h * (nodes + 1.0))[0] @ wts)
    cum = np.array(_running_sums(cells.tolist()))
    nodes, wts = _gauss(_PIECE_ORDER)
    table = (edges, cum, _bump_pair(edges[: _CELLS + 1])[0], 0.5 * (nodes + 1.0), 0.5 * wts)
    for arr in table:
        arr.flags.writeable = False
    return table


def _bump_integrals(lo, width):
    """(int b ds, b(hi) - b(lo)) over [lo, hi], hi = lo + width, elementwise,
    for -1 <= lo <= hi <= 1.

    [lo, hi] splits at the table's cell edges into a piece of lo's cell,
    whole cells, whose integrals and end values come from the table, and a
    piece of hi's cell. The pieces take Gauss nodes on b and b', and an
    interval inside one cell is one piece of the given width, so it keeps
    its relative accuracy however thin it is, where a difference of two
    values of B or of b would keep only their absolute one.
    """
    edges, cum, b_edges, frac, half_w = _bump_table()
    some = width > 0.0  # an empty interval takes no pieces and gives (+0.0, +0.0)
    out = np.zeros(np.shape(lo)), np.zeros(np.shape(lo))
    lo, width = lo[some], width[some]
    hi = np.minimum(lo + width, 1.0)
    i_lo = edges.searchsorted(lo, "right") - 1
    i_hi = edges.searchsorted(hi, "right") - 1
    j = np.minimum(i_lo + 1, i_hi)  # i_hi when lo and hi share a cell
    # the pieces [lo, lo + first] and [E_{i_hi}, E_{i_hi} + last], their
    # sizes taken from width, not from the rounded hi; last is 0 when lo
    # and hi share a cell
    first = np.minimum(width, edges[i_lo + 1] - lo)
    last = (width - first) - (edges[i_hi] - edges[j])
    pieces = []
    for start, size in ((lo, first), (edges[i_hi], last)):
        s = start[..., None] + size[..., None] * frac
        # a piece of size 0 puts its nodes on its end, which can be +-1; b
        # and b' are below 1e-216 within _RIM of +-1, so the nodes there move in
        np.minimum(np.maximum(s, _RIM - 1.0, out=s), 1.0 - _RIM, out=s)
        pieces.append([size * (f @ half_w) for f in _bump_inside(s)])
        del s  # s holds this piece's b' now; free it before the next piece is made
    (pb0, pdb0), (pb1, pdb1) = pieces
    out[0][some] = pb0 + (cum[i_hi] - cum[j]) + pb1
    out[1][some] = pdb0 + (b_edges[i_hi] - b_edges[j]) + pdb1
    return out


class _Work:
    """The n x n work arrays of the rarefaction-strip kernel at order n.

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
        self.x, self.w, self.p, self.b, self.bt, self.dbt_rt = (np.empty((n, n)) for _ in range(6))
        self.rho, self.u, self.rho_u, self.mom = (np.empty((n, n)) for _ in range(4))


# Each thread keeps the work sets of its last _KEEP orders up to _KEEP_MAX_N, at
# most 2 x 10 x 256^2 x 8 B = 10.5 MB; a higher order gets a fresh set per call.
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


def _strip_sums(ws: _Work, psi: TestFunction, g):
    """Quadrature sums (R1, R2) of one rarefaction strip, pass by pass in ws.

    On entry ws.x holds the strip's nodes X, ws.w their weights W, ws.bt
    and ws.dbt_rt the t factors bt and bt'/rt and ws.rho and ws.u the
    states on the grid. Each pass is the operation, in the order, of

        mom = rho u - A rho**(1 - alpha)
        R1 = sum(W (rho psi_t + (rho u) psi_x))
        R2 = sum(W (mom psi_t + (mom u) psi_x + (beta rho) psi)),

    with psi_t = b dbt_rt, psi_x = b' / rx * bt and psi = b bt for the
    x-bump pair (b, b') of _bump_pair, so the sums are bit for bit those
    of the allocating expressions.
    """
    s, p, b, bt, rho, rho_u, mom, t1 = ws.x, ws.p, ws.b, ws.bt, ws.rho, ws.rho_u, ws.mom, ws.dbt_rt
    np.multiply(rho, ws.u, out=rho_u)
    np.copyto(mom, rho)
    mom **= 1.0 - g.alpha  # in-place ** keeps the operator's np.square and np.sqrt
    np.subtract(rho_u, np.multiply(g.A, mom, out=mom), out=mom)
    mom_u = np.multiply(mom, ws.u, out=ws.u)
    np.subtract(s, psi.x0, out=s)
    np.divide(s, psi.rx, out=s)
    # a monotone row has its extremes at its ends, so the two end columns
    # decide whether every |s| < 1
    if (np.abs(s[:, :: ws.n - 1]) < 1.0).all():
        _bump_inside(s, p, b)
    else:
        b[...], s[...] = _bump_pair(s)
    np.multiply(b, ws.dbt_rt, out=p)  # psi_t; ws.dbt_rt is free from here on
    np.divide(s, psi.rx, out=s)
    np.multiply(s, bt, out=s)  # psi_x

    np.multiply(rho, p, out=t1)
    np.add(t1, np.multiply(rho_u, s, out=rho_u), out=t1)
    r1 = float(np.multiply(ws.w, t1, out=t1).sum())
    np.multiply(mom, p, out=p)
    np.add(p, np.multiply(mom_u, s, out=s), out=p)
    np.multiply(np.multiply(g.beta, rho, out=t1), np.multiply(b, bt, out=b), out=b)
    np.add(p, b, out=p)
    r2 = float(np.multiply(ws.w, p, out=p).sum())
    return r1, r2


def _interior(ws: _Work, g, w_l: float, X, t, half):
    """waves._profile's rarefaction interior, op for op, at the nodes X and times t (a column)
    into ws.rho and ws.u, with w_l = v - chap(rho) of the head's left state."""
    xs = np.divide(np.subtract(X, half, out=ws.u), t, out=ws.u)
    rho = np.divide(g.A * (1.0 - g.alpha), np.subtract(xs, w_l, out=ws.rho), out=ws.rho)
    rho **= 1.0 / g.alpha  # in-place ** keeps the operator's np.square and np.sqrt
    u = np.divide(np.subtract(xs, g.alpha * w_l, out=xs), 1.0 - g.alpha, out=xs)
    np.add(u, g.beta * t, out=u)


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


def _parts(fan: WaveFan, bumps, n: int):
    """Per bump, (R1, R2) of fan against it in three parts summed over its
    panels: the constant strips, the rarefaction interiors and the delta
    line."""
    g = fan.problem.params
    nodes, wts = _gauss(n)
    paths = [wave.path for wave in fan.waves]

    # the panels of all bumps are the rows of one ragged axis: bump i owns
    # rows spans[i], and each row carries its bump's (x0, t0, rx, rt)
    panels, owner, spans = [], [], []
    for i, psi in enumerate(bumps):
        t_lo, t_hi = psi.t0 - psi.rt, psi.t0 + psi.rt
        cuts = {t_lo, t_hi}
        for path in paths:
            for edge in (psi.x0 - psi.rx, psi.x0 + psi.rx):
                cuts.update(_crossing_times(path.c, g.beta, edge, t_lo, t_hi))
        cuts = sorted(cuts)
        spans.append((len(panels), len(panels) + len(cuts) - 1))
        panels += zip(cuts[:-1], cuts[1:])
        owner += [i] * (len(cuts) - 1)
    ta, tb = np.reshape(panels, (-1, 2)).T[..., None]
    bump = np.reshape([(q.x0, q.t0, q.rx, q.rt) for q in bumps], (-1, 4))
    x0, t0, rx, rt = bump[owner].T[..., None]
    # one row of n time nodes per panel
    tj = 0.5 * (ta + tb) + 0.5 * (tb - ta) * nodes
    wj = 0.5 * (tb - ta) * wts
    bt, dbt = _bump_pair((tj - t0) / rt)
    dbt_rt = dbt / rt

    # breakpoints on every node: the support's edges and the wave positions
    # clipped into it; the waves keep their order, so each column runs left
    # to right
    x_lo, x_hi = x0 - rx, x0 + rx
    x = np.empty((len(paths) + 2,) + tj.shape)
    x[0], x[-1] = x_lo, x_hi
    pos = np.multiply(np.array([path.c for path in paths])[:, None, None], tj, out=x[1:-1])
    pos += 0.5 * g.beta * tj * tj
    np.minimum(np.maximum(pos, x_lo, out=pos), x_hi, out=pos)

    # constant strips, exact in x: strip k lies between breakpoints k and
    # k + 1 and holds the state fan.states[k]
    const = [k for k, seg in enumerate(fan.states) if seg is not None]
    lo, hi = x[const], x[[k + 1 for k in const]]
    dB, db = _bump_integrals(np.minimum(np.maximum((lo - x0) / rx, -1.0), 1.0), (hi - lo) / rx)
    area = rx * dB  # the strip's integral of b((x - x0)/rx) dx
    at, ax = wj * dbt_rt, wj * bt  # the t weights times bt'/rt and bt
    rho = np.array([fan.states[k].rho for k in const])[:, None, None]
    u = np.array([fan.states[k].v for k in const])[:, None, None] + g.beta * tj
    rho_u = rho * u
    mom = rho_u - g.A * rho ** (1.0 - g.alpha)
    terms = (
        area * (rho * at) + db * (rho_u * ax),
        area * (mom * at + g.beta * rho * ax) + db * (mom * u * ax),
    )
    # each bump's sum over a contiguous copy of its rows, as it was alone
    constant = [tuple(float(np.sum(f[:, a:b].copy())) for f in terms) for a, b in spans]
    del lo, hi, dB, db, area, at, ax, u, rho_u, mom, terms  # freed before the n x n grids

    # rarefaction interiors on the 2-D Gauss grid, panel by panel
    r1, r2 = [0.0] * len(bumps), [0.0] * len(bumps)
    for k in range(1, len(fan.waves)):
        if fan.states[k] is not None or fan.is_vacuum(k):
            continue
        ws = _work(n)
        w_l = fan.states[k - 1].v - g.chap(fan.states[k - 1].rho)
        for p, t in enumerate(tj[:, :, None]):
            lo, hi = x[k, p], x[k + 1, p]
            width = hi - lo
            if not (width > 0.0).any():
                continue
            X = np.multiply(width[:, None], ws.frac, out=ws.x)
            np.add(lo[:, None], X, out=X)
            half = 0.5 * g.beta * t * t
            # the closed form if every node lies strictly between the head and
            # the tail at _profile's positions (its tie rule gives a node on the
            # head the left state); rows are nondecreasing, so their ends decide
            head, tail = (path.c * t + half for path in paths[k - 1 : k + 1])
            if (X[:, :1] > head).all() and (X[:, -1:] < tail).all():
                _interior(ws, g, w_l, X, t, half)
            else:
                ws.rho[...], ws.u[...] = _profile(fan, X, t)
            np.multiply((wj[p] * 0.5 * width)[:, None], wts, out=ws.w)
            # the t factors on the whole grid: a plain multiply costs about
            # half of one that broadcasts a column
            ws.bt[...] = bt[p][:, None]
            ws.dbt_rt[...] = dbt_rt[p][:, None]
            i = owner[p]
            s1, s2 = _strip_sums(ws, bumps[i], g)
            r1[i] += s1
            r2[i] += s2
    rarefaction = list(zip(r1, r2))

    delta = [(0.0, 0.0)] * len(bumps)
    if fan.delta is not None:
        d = fan.delta
        wt, ud = d.weight(tj), d.path.speed(tj)
        # psi.dt, psi.dx and psi.value on the trajectory, from one x-bump
        # pair and the panels' t factors
        bx, dbx = _bump_pair((d.path.position(tj) - x0) / rx)
        along = bx * dbt_rt + ud * (dbx / rx * bt)
        # one sum per panel, each bump's added in order, as the tensor grid
        # sums them
        rows1 = (wj * wt * along).sum(axis=1).tolist()
        rows2 = (wj * (wt * ud * along + g.beta * wt * (bx * bt))).sum(axis=1).tolist()
        delta = [(sum(rows1[a:b]), sum(rows2[a:b])) for a, b in spans]
    return list(zip(constant, rarefaction, delta))


def weak_residual(fan: WaveFan, psi, quad_n: int = 64):
    """Residuals (R1, R2) of the two weak-form identities of fan.problem
    against psi, a TestFunction; for a sequence of them, a list of one
    (R1, R2) per bump, all bumps in one pass."""
    if isinstance(psi, TestFunction):
        return weak_residual(fan, [psi], quad_n)[0]
    if not isinstance(psi, Sequence) or not all(isinstance(b, TestFunction) for b in psi):
        raise ValidationError("weak_residual takes a TestFunction or a sequence of them")
    return [tuple(map(sum, zip(*parts))) for parts in _parts(fan, psi, _check_order(quad_n))]


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
