"""Monotone extension of a mixed-monotone map to a bounding rectangle.

The construction works in a canonical frame where F decreases in x and
increases in y.  Maps with the opposite mixed signature are handled by
swapping coordinates on the way in and out.

The boundary of the domain is split at the four axis-extreme points
(taking flat midpoints, so the split is symmetric under the coordinate
transforms used below) into four chains:

  SW: left extreme -> bottom extreme, x non-decreasing, y non-increasing
  SE: bottom -> right, x and y non-decreasing
  NE: right -> top, x non-increasing, y non-decreasing
  NW: top -> left, x and y non-increasing

The rectangle is the domain's bounding box, so the four extreme points
lie on its sides, and the exterior of the domain inside it is tiled by
pieces:

  * below the SW chain and right of the NE chain: ray bands, one
    construction in (kept, other) coordinates (x kept below SW, y right
    of NE): pieces constant along rays up to the boundary plus graft
    rectangles next to each flat of the chain, where a boundary profile
    is added to keep continuity;
  * right of / below the SE chain: a windowed-minimum rule — the
    minimum of boundary values between the horizontal and vertical
    projections onto the chain (the two-projection minimum formula,
    generalized to non-convex chains by taking the exact minimum over
    the boundary arc between the projections);
  * left of / above the NW chain: the mirrored windowed-maximum rule.

Sector intrusions on the SE chain (boundary backtracking in x while y
still increases) are closed by a vertical chord and filled first —
linear interpolation when the two arc restrictions run in opposite
directions, a windowed minimum when they run in the same direction.
The outer construction then sees the closed domain, reading boundary
values on the chord from the sector fill.

All exterior rules evaluate the base map at exactly-projected boundary
points, so continuity across piece borders and weak monotonicity hold to
floating-point accuracy.  Inside the domain the extension is the base map
itself; on the domain's boundary an exterior rule may claim a point, and
there it reproduces the base map only to rounding (by up to
6.9e-14·max(1, spread of F) on the benchmark's random domains).

Evaluation runs on tables built once per engine: each interpolant and
crossing is stored per result of its knot search, so a call makes one
search per table and the interpolation arithmetic on the gathered rows.
Inside a box where ``ExtendedMap.box_is_base`` holds, the extension is F
at the very point; ``BaseBoxEval`` states that rule once for the
evaluations that close in on one region (the pair search, the
equilibrium narrowing and the corner chains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (
    NonMonotoneInducedEdge,
    OutsideRect,
    SectorOrderViolation,
    UnsupportedDomain,
)
from .map_model import Box, DEC_INC, MapSpec, lattice_violations
from .geometry import (DomainKind, DomainSpec, EdgeTable, _shifted,
                       _signed_area)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Range-minimum / range-maximum queries over chain value arrays.
# ---------------------------------------------------------------------------


class _SparseTable:
    """O(1) windowed min/max over a fixed array (inclusive index ranges).
    Every level lives in one flat array, so a query is two gathers."""

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        self.n = len(v)
        mins, maxs = [v], [v]
        k = 1
        while (1 << k) <= self.n:
            half = 1 << (k - 1)
            prev_min, prev_max = mins[-1], maxs[-1]
            mins.append(np.minimum(prev_min[:-half], prev_min[half:]))
            maxs.append(np.maximum(prev_max[:-half], prev_max[half:]))
            k += 1
        self.mins = np.concatenate(mins)
        self.maxs = np.concatenate(maxs)
        # where each window length's level floor(log2 L) starts, for the
        # window's first and for its last 2**level entries; length 0, an
        # empty window that the fill answers, reads level 0
        lo_at, hi_at, start = [0], [0], 0
        for k, t in enumerate(mins):
            count = min(1 << k, self.n - (1 << k) + 1)
            lo_at += [start] * count
            hi_at += [start - (1 << k) + 1] * count
            start += len(t)
        self._lo_at = np.array(lo_at)
        self._hi_at = np.array(hi_at)

    def query(self, lo: np.ndarray, hi: np.ndarray, want_max: bool):
        """Vectorized min/max over inclusive [lo, hi]; empty ranges give
        +inf (min) or -inf (max)."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        length = hi - lo + 1
        ok = length > 0
        np.maximum(length, 0, out=length)
        table = self.maxs if want_max else self.mins
        a = table[self._lo_at[length] + lo]
        b = table[self._hi_at[length] + hi]
        out = np.maximum(a, b) if want_max else np.minimum(a, b)
        return np.where(ok, out, -np.inf if want_max else np.inf)


# ---------------------------------------------------------------------------
# Chain tables: refined polylines with boundary values.
# ---------------------------------------------------------------------------


def _insert_breakpoints(pts: np.ndarray, srcs: np.ndarray, valfuncs, tol: float):
    """Refine polyline edges until the boundary value is monotone on each
    edge.  Splits an edge at the interior extremum of the value function
    (found by ternary search) and repeats."""
    srcs = np.asarray(srcs, dtype=int)[: max(len(pts) - 1, 0)]
    for _ in range(12):
        p0, p1 = pts[:-1], pts[1:]
        # each edge's start, three probes and end, in one evaluation
        q = np.stack([p0] + [p0 + lam * (p1 - p0) for lam in (0.25, 0.5, 0.75)]
                     + [p1])
        seq = _eval_src(q[..., 0].ravel(), q[..., 1].ravel(),
                        np.tile(srcs, 5), valfuncs).reshape(5, -1)
        d = np.diff(seq, axis=0)
        pos = d > tol
        neg = d < -tol
        bad = np.nonzero(np.any(pos, axis=0) & np.any(neg, axis=0))[0]
        if bad.size == 0:
            return pts, srcs
        new_pts = []
        new_srcs = []
        bad_set = set(bad.tolist())
        for i in range(len(pts) - 1):
            new_pts.append(pts[i])
            new_srcs.append(srcs[i])
            if i in bad_set:
                kind = 1 if (np.argmax(seq[:, i]) not in (0, 4)) else -1
                lam = _edge_extremum(pts[i], pts[i + 1], srcs[i], valfuncs, kind)
                new_pts.append(pts[i] + lam * (pts[i + 1] - pts[i]))
                new_srcs.append(srcs[i])
        new_pts.append(pts[-1])
        pts = np.array(new_pts)
        srcs = np.array(new_srcs, dtype=int)
    return pts, srcs


def _edge_extremum(p0, p1, src, valfuncs, kind, iters=120):
    """Ternary search for the value extremum along a straight edge."""
    f = valfuncs[src]
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        q1 = p0 + m1 * (p1 - p0)
        q2 = p0 + m2 * (p1 - p0)
        v1 = float(f(np.array([q1[0]]), np.array([q1[1]]))[0])
        v2 = float(f(np.array([q2[0]]), np.array([q2[1]]))[0])
        if kind > 0:  # maximum
            if v1 < v2:
                lo = m1
            else:
                hi = m2
        else:
            if v1 > v2:
                lo = m1
            else:
                hi = m2
    return 0.5 * (lo + hi)


def _eval_src(x, y, srcs, valfuncs):
    """Evaluate points whose values come from different source functions
    (base map or a sector fill, per originating edge)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    srcs = np.asarray(srcs)
    if srcs.size == 0:
        return out
    first = srcs.flat[0]
    if (srcs == first).all():  # one source: no split
        out[...] = valfuncs[int(first)](x, np.asarray(y))
        return out
    for s in np.unique(srcs):
        m = srcs == s
        out[m] = valfuncs[int(s)](x[m], np.asarray(y)[m])
    return out


class _ChainTable:
    """A chain polyline with per-vertex boundary values and windowed
    min/max support.  Coordinates are weakly monotone along the chain."""

    def __init__(self, xs, ys, fs, edge_srcs, valfuncs):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self.edge_srcs = np.asarray(edge_srcs, dtype=int)
        self.valfuncs = valfuncs
        self.rmq = _SparseTable(self.fs)

    @classmethod
    def build(cls, pts: np.ndarray, srcs: np.ndarray, valfuncs,
              tol: float) -> "_ChainTable":
        """The table of a polyline, refined until the boundary value is
        monotone on every edge."""
        pts, srcs = _dedupe_polyline(pts, srcs)
        pts, srcs = _insert_breakpoints(pts, srcs, valfuncs, tol)
        xs, ys = pts[:, 0].copy(), pts[:, 1].copy()
        edge_srcs = np.asarray(srcs[: len(pts) - 1], dtype=int)
        # a vertex shared by two sources sits on the domain boundary,
        # where the sources agree; use the incoming edge's source
        vs = (
            np.concatenate([edge_srcs[:1], edge_srcs])
            if len(edge_srcs)
            else np.zeros(len(pts), dtype=int)
        )
        fs = _eval_src(xs, ys, vs, valfuncs)
        return cls(xs, ys, fs, edge_srcs, valfuncs)

    def to_state(self):
        return {
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
            "fs": self.fs.tolist(),
            "edge_srcs": self.edge_srcs.tolist(),
        }


def _dedupe_polyline(pts, srcs):
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > 1e-14:
            keep.append(i)
    pts2 = pts[keep]
    srcs2 = np.asarray(srcs)[np.minimum(keep, len(srcs) - 1)] if len(srcs) else np.asarray(srcs)
    return pts2, srcs2


def _unit_clamp(lam: np.ndarray) -> None:
    """Clamp an array to [0, 1] in place, as np.clip does but without its
    Python-level wrapper (the bound comes first: on a tie numpy's
    maximum/minimum return the second operand, which keeps the value)."""
    np.maximum(0.0, lam, out=lam)
    np.minimum(1.0, lam, out=lam)


class _Segments:
    """Piecewise-linear segments tabulated per result s of a knot
    search: a query q with that result interpolates on row s.  A row
    holds the segment's start q0 and length d and, per value, its start
    v0 and rise dv.  The arithmetic is that of piecewise-linear
    interpolation on the knots themselves: (q - q0)/d, clamped to
    [0, 1], then v0 + lam*dv.

    On a segment of no length the fraction is ``tie`` (0: the earlier
    knot, 1: the later), a scalar or one per row.  Such a row stores
    d = 1 and q0 = +inf or -inf, so that (q - q0)/d clamps to the tie
    for every finite q; a NaN query gives NaN.
    """

    def __init__(self, q0, d, values, tie=0.0):
        flat = d <= 0
        self.q0 = np.where(flat, np.where(tie, -np.inf, np.inf), q0)
        self.d = np.where(flat, 1.0, d)
        self.values = values

    def __call__(self, s, q):
        lam = q - self.q0[s]
        lam /= self.d[s]
        _unit_clamp(lam)
        return [v0[s] + lam * dv[s] for v0, dv in self.values]


class _Interp:
    """Piecewise-linear interpolation of one or more curves, each given
    by weakly increasing knots (ties collapse to the earlier knot),
    tabulated once over their merged knots: one knot search per call
    serves every curve.

    For knots k and merged knots m (sorted, holding every knot), the
    number of knots below q is the number at or below m[s - 1], where s
    is the number of merged knots below q (ties and all); so the segment
    q interpolates on is fixed by s alone.
    """

    def __init__(self, *curves):
        self.knots = np.sort(np.concatenate([q for q, _ in curves]))
        # row s holds the segment for s merged knots below q; -inf
        # stands in for m[-1], with no knot at or below it
        below = np.concatenate(([-np.inf], self.knots))
        self.rows = []
        for knot_q, knot_v in curves:
            i = knot_q.searchsorted(below, side="right")
            i = np.minimum(np.maximum(i, 1), len(knot_q) - 1)
            j = i - 1
            q0, v0 = knot_q[j], knot_v[j]
            self.rows.append(_Segments(q0, knot_q[i] - q0,
                                       [(v0, knot_v[i] - v0)]))

    def __call__(self, q) -> list:
        s = self.knots.searchsorted(q)
        return [r(s, q)[0] for r in self.rows]


class _Crossing:
    """Where the chain coordinate ``coord`` first reaches a query
    (first=True) or last stays within it, tabulated per result s of the
    knot search: the crossing point, the value source of its edge and
    the vertex that bounds the window's interior -- the first vertex at
    or after the crossing, or the last at or before it."""

    def __init__(self, table: _ChainTable, coord: np.ndarray, first: bool):
        n = len(coord)
        s = np.arange(n + 1)
        # row s interpolates on the edge from vertex a to vertex b; past
        # the last vertex the first crossing stays on the last edge
        a = np.maximum(s - 1, 0)
        if first:
            a[-1] = max(n - 2, 0)
        b = np.minimum(a + 1, n - 1)
        q0 = coord[a]
        d = coord[b] - q0
        if first:
            self.inner = np.minimum(s, n - 1)
            # q at or before vertex 0: the crossing is vertex 0 (a row of
            # no length, fraction 0); on any other edge of no length it
            # is the edge's far end (fraction 1)
            d[0] = 0.0
            tie = s > 0
        else:
            self.inner = a
            tie = 0.0
        x0, y0 = table.xs[a], table.ys[a]
        self.rows = _Segments(q0, d, [(x0, table.xs[b] - x0),
                                      (y0, table.ys[b] - y0)], tie)
        self.knots = coord
        self.side = "left" if first else "right"
        srcs = table.edge_srcs
        self.src = (srcs[np.minimum(a, len(srcs) - 1)] if len(srcs)
                    else np.zeros(n + 1, dtype=int))

    def __call__(self, q):
        s = self.knots.searchsorted(q, side=self.side)
        x, y = self.rows(s, q)
        return x, y, self.inner[s], self.src[s]


class _Window:
    """The windowed extremum rule of a chain table: the extremum of the
    boundary value between the crossing where the ``first`` coordinate
    first reaches its query and the crossing where the other coordinate
    last stays within its query."""

    def __init__(self, table: _ChainTable, first: str, want_max: bool):
        xs, ys = table.xs, table.ys
        self.first_y = first == "y"
        self.first = _Crossing(table, ys if self.first_y else xs, True)
        self.last = _Crossing(table, xs if self.first_y else ys, False)
        self.rmq = table.rmq
        self.valfuncs = table.valfuncs
        self.want_max = want_max

    def __call__(self, x, y):
        q_first, q_last = (y, x) if self.first_y else (x, y)
        xa, ya, ia, sa = self.first(q_first)
        xb, yb, ib, sb = self.last(q_last)
        fa = _eval_src(xa, ya, sa, self.valfuncs)
        fb = _eval_src(xb, yb, sb, self.valfuncs)
        inner = self.rmq.query(ia, ib, self.want_max)
        if self.want_max:
            return np.maximum(np.maximum(fa, fb), inner)
        return np.minimum(np.minimum(fa, fb), inner)


def _xy(kept: int, k, o):
    """(kept, other) coordinates, the kept axis being ``kept``, as (x, y),
    and back."""
    return (k, o) if kept == 0 else (o, k)


class _Ray:
    """The ray rule of the band beside the SW or the NE chain: F where
    the ray that keeps the point's coordinate on the ``kept`` axis meets
    the chain, plus a graft term per flat (c, lo, hi, end) where
    ``acts(kept, c)``: F with the kept coordinate at c and the other
    clipped to [lo, hi], minus F at the flat's end (c, end)."""

    def __init__(self, func, chain: _ChainTable, kept: int, acts, flats):
        self.func, self.kept = func, kept
        self.acts, self.flats = acts, flats
        # the chain's other coordinate over the kept one
        self.table = _Interp(_xy(kept, chain.xs, chain.ys))
        self._ends = {}

    def _f_end(self, x: float, y: float) -> float:
        """F at a flat's end, evaluated once per rule, on the first call
        whose graft term needs it (a flat on the rectangle's side has no
        point that does)."""
        f = self._ends.get((x, y))
        if f is None:
            f = float(self.func(np.array([x]), np.array([y]))[0])
            self._ends[(x, y)] = f
        return f

    def __call__(self, x, y):
        u, v = _xy(self.kept, x, y)
        (w,) = self.table(u)
        base = np.asarray(self.func(*_xy(self.kept, u, w)), dtype=float)
        total = np.zeros(u.shape)
        for c, lo, hi, end in self.flats:
            active = self.acts(u, c)
            if not np.any(active):
                continue
            vc = np.clip(v[active], lo, hi)
            at = _xy(self.kept, np.full(vc.shape, c), vc)
            total[active] += (np.asarray(self.func(*at), dtype=float)
                              - self._f_end(*_xy(self.kept, c, end)))
        return base + total


# ---------------------------------------------------------------------------
# Sector fills (intrusions on the SE chain).
# ---------------------------------------------------------------------------


class _Sector:
    """A boundary intrusion closed by a vertical chord.

    arc1 runs from the chord bottom to the apex (x decreasing, y
    increasing: its boundary value is forced non-decreasing); arc2 runs
    from the apex back to the chord top (x and y increasing, value
    free).  Filled linearly when arc2's value decreases, by a windowed
    minimum when it increases.
    """

    def __init__(self, arc1, arc2, func, mode: str):
        self.arc1 = np.asarray(arc1, dtype=float)
        self.arc2 = np.asarray(arc2, dtype=float)
        self.func = func
        self.mode = mode
        self.chord_x = float(self.arc1[0, 0])
        self.y_lo = float(self.arc1[0, 1])
        self.y_hi = float(self.arc2[-1, 1])
        self.apex = self.arc1[-1]
        self.polygon = np.vstack([self.arc1, self.arc2[1:]])
        # the lower (arc1, reversed to run by increasing x) and upper
        # (arc2) boundary heights over x, and x of the far boundary over y
        self._arcs = _Interp(self.arc1[::-1].T, self.arc2.T)
        self._far_x = _Interp(self.polygon[:, ::-1].T)

    @classmethod
    def build(cls, arc1: np.ndarray, arc2: np.ndarray, func,
              tol_val: float) -> "_Sector":
        """The sector of two arcs, filled by the rule arc2's value allows."""
        f2 = np.asarray(func(arc2[:, 0], arc2[:, 1]), dtype=float)
        d2 = np.diff(f2)
        if np.all(d2 >= -tol_val):
            return cls(arc1, arc2, func, "min_window")
        if not np.all(d2 <= tol_val):
            raise NonMonotoneInducedEdge(
                "boundary value oscillates along a sector arc"
            )
        sector = cls(arc1, arc2, func, "linear")
        # monotone fill needs the upper graph to dominate the lower
        xs = np.linspace(sector.apex[0], sector.chord_x, 64)
        ylo, yhi = sector._arcs(xs)
        vlo = np.asarray(func(xs, ylo), dtype=float)
        vhi = np.asarray(func(xs, yhi), dtype=float)
        if np.any(vhi < vlo - tol_val):
            k = int(np.argmin(vhi - vlo))
            raise SectorOrderViolation(
                f"sector fill would break monotonicity near x={xs[k]:.6g}"
            )
        return sector

    def eval(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.mode == "linear":
            y1, y2 = self._arcs(x)
            g1 = np.asarray(self.func(x, y1), dtype=float)
            g2 = np.asarray(self.func(x, y2), dtype=float)
            d = y2 - y1
            lam = np.where(d > 0, (y - y1) / np.where(d > 0, d, 1), 0.0)
            lam = np.clip(lam, 0.0, 1.0)
            return (1 - lam) * g1 + lam * g2
        # both arc values increase along the boundary, so the windowed
        # minimum over the arc between the two projections collapses to
        # the horizontal projection onto the wedge's far boundary
        yq = np.clip(y, self.y_lo, self.y_hi)
        (xq,) = self._far_x(yq)
        return np.asarray(self.func(xq, yq), dtype=float)

    def contains(self, x, y):
        inx = (x >= self.apex[0]) & (x <= self.chord_x)
        y1, y2 = self._arcs(np.clip(x, self.apex[0], self.chord_x))
        return inx & (y >= y1) & (y <= y2)

    def to_state(self):
        return {
            "arc1": self.arc1.tolist(),
            "arc2": self.arc2.tolist(),
            "mode": self.mode,
        }


# ---------------------------------------------------------------------------
# Piece bookkeeping.
# ---------------------------------------------------------------------------

RULE_BASE = "base_map"
RULE_RAY_YPLUS = "ray_const_y_plus"
RULE_RAY_XMINUS = "ray_const_x_minus"
RULE_MIN = "min_of_two"
RULE_MAX = "max_of_two"
RULE_GRAFT = "graft"
RULE_LINEAR = "linear_sector"


@dataclass
class ExtensionPiece:
    rule: str
    polygon: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "rule": self.rule,
            "polygon": np.asarray(self.polygon, dtype=float).tolist(),
            "meta": self.meta,
        }


def _rect_poly(x0, x1, y0, y1):
    return np.array([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], dtype=float)


# ---------------------------------------------------------------------------
# The canonical engine: F decreasing in x, increasing in y.
# ---------------------------------------------------------------------------

_Z_BASE, _Z_SWBAND, _Z_SE, _Z_NW, _Z_NEBAND = range(5)
_Z_SECTOR = 100  # + sector index
# the wall zones by a 4-bit index: left of the left wall (1), right of
# the right wall (2), y >= L's height (4), y > R's height (8); right of
# the right wall wins
_WALL_ZONES = np.array(
    [_Z_BASE, _Z_SWBAND, _Z_SE, _Z_SE, _Z_BASE, _Z_NW, _Z_SE, _Z_SE,
     _Z_BASE, _Z_SWBAND, _Z_NEBAND, _Z_NEBAND, _Z_BASE, _Z_NW, _Z_NEBAND,
     _Z_NEBAND])


class _Engine:
    def __init__(self, func: Callable, omega: np.ndarray, rect: Box):
        self.func = func
        self.rect = rect
        self.omega = omega  # ccw polyline, no repeated end vertex
        # the noise scale of boundary values: 1e-12 of F's spread at the
        # vertices
        fv = np.asarray(func(omega[:, 0], omega[:, 1]), dtype=float)
        self.tol_val = 1e-12 * max(1.0, float(fv.max() - fv.min()))
        self.geom_tol = 1e-12 * rect.diam

        self._close_sectors()
        self._check_chain_monotone()
        self._build_tables()
        self._build_walls_and_pieces()

    # -- chain construction ---------------------------------------------

    def _close_sectors(self):
        L, B, R, T, ring = _extreme_midpoints(self.omega, self.geom_tol)
        # ring: polyline starting at L, ccw, ending back at L (not repeated),
        # with L,B,R,T inserted as vertices at indices iL=0, iB, iR, iT.
        self.L, self.B, self.R, self.T = L, B, R, T
        iB, iR, iT = ring["iB"], ring["iR"], ring["iT"]
        pts = np.vstack([ring["pts"], ring["pts"][:1]])  # close the ring
        sw = pts[: iB + 1]
        se = pts[iB : iR + 1]
        ne = pts[iR : iT + 1]
        nw = pts[iT:]
        self.sectors: List[_Sector] = []
        se, se_srcs = self._close_chain_sectors(se)
        self.sw_pts, self.se_pts, self.ne_pts, self.nw_pts = sw, se, ne, nw
        self.se_srcs = se_srcs
        self.valfuncs = _valfuncs(self.func, self.sectors)

    def _close_chain_sectors(self, se: np.ndarray):
        """Close x-backtracking intrusions on the SE chain with vertical
        chords; each intrusion becomes a sector fill."""
        srcs = np.zeros(max(len(se) - 1, 0), dtype=int)
        guard = 0
        while True:
            xs = se[:, 0]
            viol = np.nonzero(np.diff(xs) < -self.geom_tol)[0]
            if viol.size == 0:
                return se, srcs
            guard += 1
            if guard > 32:
                raise UnsupportedDomain("too many boundary intrusions")
            i = int(viol[0])  # chord bottom at vertex i
            xw = xs[i]
            # the chain ends at R, whose x is the domain's maximum, so a
            # later vertex gets back to x = xw
            back = np.flatnonzero(xs[i + 1 :] >= xw - self.geom_tol)
            j = i + 1 + int(back[0])
            # chord top: interpolate on edge (j-1, j) at x = xw
            if abs(xs[j] - xw) <= self.geom_tol:
                w2 = se[j].copy()
            else:
                lam = (xw - xs[j - 1]) / (xs[j] - xs[j - 1])
                w2 = se[j - 1] + lam * (se[j] - se[j - 1])
            seg = np.vstack([se[i : j], w2[None, :]])
            ys = seg[:, 1]
            if np.any(np.diff(ys) < -self.geom_tol):
                raise UnsupportedDomain(
                    "boundary intrusion is not monotone in y"
                )
            m = int(np.argmin(seg[:, 0]))
            if np.any(np.diff(seg[: m + 1, 0]) > self.geom_tol) or np.any(
                np.diff(seg[m:, 0]) < -self.geom_tol
            ):
                raise UnsupportedDomain("nested boundary intrusions")
            sector = _Sector.build(seg[: m + 1], seg[m:], self.func, self.tol_val)
            self.sectors.append(sector)
            src_id = len(self.sectors)  # valfuncs index
            se = np.vstack([se[: i + 1], w2[None, :], se[j:]]) if abs(
                xs[j] - xw
            ) > self.geom_tol else np.vstack([se[: i + 1], se[j:]])
            srcs = np.concatenate(
                [srcs[:i], [src_id], np.zeros(len(se) - i - 2, dtype=int)]
            )

    def _check_chain_monotone(self):
        checks = [
            (self.sw_pts, 1, -1, "lower-left"),
            (self.se_pts, 1, 1, "lower-right"),
            (self.ne_pts, -1, 1, "upper-right"),
            (self.nw_pts, -1, -1, "upper-left"),
        ]
        for pts, sx, sy, name in checks:
            if np.any(sx * np.diff(pts[:, 0]) < -self.geom_tol) or np.any(
                sy * np.diff(pts[:, 1]) < -self.geom_tol
            ):
                raise UnsupportedDomain(
                    f"{name} boundary chain is not monotone; this domain "
                    "shape is not supported"
                )

    # -- tables -----------------------------------------------------------

    def _build_tables(self):
        vf = self.valfuncs
        tol = self.tol_val
        srcs0 = lambda p: np.zeros(max(len(p) - 1, 0), dtype=int)
        self.t_se = _ChainTable.build(self.se_pts, self.se_srcs, vf, tol)
        nw_rev = self.nw_pts[::-1].copy()  # L -> T, x and y non-decreasing
        self.t_nw = _ChainTable.build(nw_rev, srcs0(nw_rev), vf, tol)
        self.t_sw = _ChainTable.build(self.sw_pts, srcs0(self.sw_pts), vf, tol)
        self.t_ne = _ChainTable.build(self.ne_pts, srcs0(self.ne_pts), vf, tol)

    # -- zone classification ----------------------------------------------

    def classify(self, x, y):
        """The zone of each point of the rectangle."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # one knot search gives both wall abscissae at each height
        xl, xr = self._walls(y)
        bit = np.uint8
        code = _WALL_ZONES[(x < xl).view(bit) | (x > xr).view(bit) << 1
                           | (y >= self.L[1]).view(bit) << 2
                           | (y > self.R[1]).view(bit) << 3]
        # points inside the closed domain may actually lie in a sector:
        # only base points in its x span can, and its polygon overlaps
        # the base region only on arcs
        for k, (s, (lo, hi)) in enumerate(zip(self.sectors,
                                              self._sector_spans)):
            m = (code == _Z_BASE) & (x >= lo) & (x <= hi)
            if m.any():
                xs, ys = x[m], y[m]
                hit = s.contains(xs, ys)
                hit[hit] = ~self._omega_edges.even_odd(xs[hit], ys[hit])
                code[m] = np.where(hit, _Z_SECTOR + k, _Z_BASE)
        return code

    def box_is_base(self, x0: float, x1: float, y0: float, y1: float) -> bool:
        """Whether ``classify`` puts every point of the box [x0, x1] x
        [y0, y1] in the base zone, outside every sector's x span; False
        may also mean undecided.  Each wall's arithmetic is monotone in y
        within one row of the wall table, so each row the box's heights
        select is evaluated at its ends, clipped to [y0, y1]: the left
        wall at most x0 and the right at least x1 there hold on the row."""
        if not y0 <= y1 or any(lo <= x1 and x0 <= hi
                               for lo, hi in self._sector_spans):
            return False
        knots = self._walls.knots
        first, last = knots.searchsorted((y0, y1)).tolist()
        inner = knots[first:last]
        rows = np.tile(np.arange(first, last + 1), 2)
        ends = np.concatenate([[y0], inner, inner, [y1]])
        left, right = (w(rows, ends)[0] for w in self._walls.rows)
        return bool((left <= x0).all() and (right >= x1).all())

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty(x.shape)
        code = self.classify(x, y)
        if not code.any():
            # every point is in the base zone (_Z_BASE is 0)
            out[...] = self.func(x, y)
            return out
        # only the zones that occur; a small batch usually hits one
        for zone in np.flatnonzero(np.bincount(code)).tolist():
            m = code == zone
            out[m] = self._rules[zone](x[m], y[m])
        return out

    # -- boundary walls and piece polygons ----------------------------------

    def _build_walls_and_pieces(self):
        """Everything else the evaluator needs, from the tables and
        sectors alone; the built and the loaded engine share it."""
        # boundary walls as x-of-y knot tables (B -> L -> T, B -> R -> T);
        # interpolation takes the earlier of tied knots, so the left wall
        # starts at the last knot at B's height: on a flat bottom that is
        # its left end, not B
        wall_x = np.concatenate([self.t_sw.xs[::-1], self.t_nw.xs[1:]])
        wall_y = np.concatenate([self.t_sw.ys[::-1], self.t_nw.ys[1:]])
        k = int(np.searchsorted(wall_y, wall_y[0], side="right")) - 1
        self.wall_left_x, self.wall_left_y = wall_x[k:], wall_y[k:]
        self.wall_right_x = np.concatenate([self.t_se.xs, self.t_ne.xs[1:]])
        self.wall_right_y = np.concatenate([self.t_se.ys, self.t_ne.ys[1:]])
        self._walls = _Interp((self.wall_left_y, self.wall_left_x),
                              (self.wall_right_y, self.wall_right_x))
        self._sector_spans = [(float(s.apex[0]), s.chord_x)
                              for s in self.sectors]
        self._omega_edges = EdgeTable(self.omega)

        r = self.rect
        X0, X1, Y0, Y1 = r.x0, r.x1, r.y0, r.y1
        L, B, R, T = self.L, self.B, self.R, self.T
        g = 1e-9 * r.diam
        pieces: List[ExtensionPiece] = [
            ExtensionPiece(RULE_BASE, self.omega, {"zone": "domain"})
        ]
        for k, s in enumerate(self.sectors):
            pieces.append(
                ExtensionPiece(
                    RULE_LINEAR if s.mode == "linear" else RULE_MIN,
                    s.polygon,
                    {"zone": "sector", "index": k},
                )
            )

        def add(rule, poly, **meta):
            poly = np.asarray(poly, dtype=float)
            if len(poly) >= 3 and abs(_signed_area(poly)) > g * g:
                pieces.append(ExtensionPiece(rule, poly, meta))

        sw = _ray_band(self.t_sw, 0, (L, B), Y0, add, g)

        # SE windowed piece
        se_chain = np.column_stack([self.t_se.xs, self.t_se.ys])
        poly = np.vstack([[(B[0], Y0), (X1, Y0), (X1, R[1])], se_chain[::-1]])
        add(RULE_MIN, poly, zone="southeast")

        # NW windowed piece
        nw_chain = np.column_stack([self.t_nw.xs, self.t_nw.ys])  # L -> T
        poly = np.vstack([[L], nw_chain[1:], [(T[0], Y1), (X0, Y1)]])
        add(RULE_MAX, poly, zone="northwest")

        ne = _ray_band(self.t_ne, 1, (R, T), X1, add, g)
        self.pieces = pieces
        # the stored layouts: (x, top, bottom) and (height, left, right)
        self.sw_flats = [(c, hi, lo) for c, lo, hi in sw]
        self.ne_flats = ne

        # the rule of each zone.  A ray up to the SW chain meets a
        # vertical flat at its top, so the flat's term acts at x <= c and
        # restores the value on the flat; a ray left to the NE chain meets
        # a horizontal flat at its right end, the value there, so y > c.
        # No rule refers back to the engine, which refcounting then frees.
        self._rules = {
            _Z_BASE: self.func,
            _Z_SWBAND: _Ray(self.func, self.t_sw, 0, np.less_equal, [
                (c, lo, hi, hi) for c, lo, hi in sw]),
            _Z_SE: _Window(self.t_se, "y", want_max=False),
            _Z_NW: _Window(self.t_nw, "x", want_max=True),
            _Z_NEBAND: _Ray(self.func, self.t_ne, 1, np.greater, [
                (c, lo, hi, lo) for c, lo, hi in ne]),
            **{_Z_SECTOR + k: s.eval for k, s in enumerate(self.sectors)},
        }

    def to_state(self):
        return {
            "omega": self.omega.tolist(),
            "extremes": {
                "L": list(map(float, self.L)),
                "B": list(map(float, self.B)),
                "R": list(map(float, self.R)),
                "T": list(map(float, self.T)),
            },
            "sw_flats": self.sw_flats,
            "ne_flats": self.ne_flats,
            "tables": {
                "se": self.t_se.to_state(),
                "nw": self.t_nw.to_state(),
                "sw": self.t_sw.to_state(),
                "ne": self.t_ne.to_state(),
            },
            "sectors": [s.to_state() for s in self.sectors],
        }

    @classmethod
    def from_state(cls, state: dict, func: Callable, rect: Box) -> "_Engine":
        """Rebuild an evaluator from serialized state, skipping all the
        geometric construction and validation."""
        eng = cls.__new__(cls)
        eng.func = func
        eng.rect = rect
        eng.omega = np.asarray(state["omega"], dtype=float)
        ex = state["extremes"]
        eng.L, eng.B, eng.R, eng.T = (np.asarray(ex[k], dtype=float)
                                      for k in "LBRT")
        eng.sectors = [_Sector(**s, func=func) for s in state["sectors"]]
        eng.valfuncs = _valfuncs(func, eng.sectors)
        t = state["tables"]
        eng.t_se, eng.t_nw, eng.t_sw, eng.t_ne = (
            _ChainTable(**t[k], valfuncs=eng.valfuncs)
            for k in ("se", "nw", "sw", "ne"))
        eng._build_walls_and_pieces()
        return eng


def _valfuncs(func: Callable, sectors) -> list:
    """The boundary value sources of the chain tables: the base map
    (source 0), then each sector's fill."""
    return [func] + [s.eval for s in sectors]


def _flat_runs(a, b, g: float) -> List[tuple]:
    """The (first, last) knot of each flat run of a chain with knot
    coordinates a, b: a run starts at an edge along which a moves by at
    most g while b falls by more than g, and goes on while a moves by at
    most g and b falls."""
    runs, i = [], 0
    while i < len(a) - 1:
        if abs(a[i + 1] - a[i]) <= g and b[i + 1] < b[i] - g:
            j = i + 1
            while j < len(a) - 1 and abs(a[j + 1] - a[j]) <= g and b[j + 1] < b[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def _trim_runs(part: np.ndarray, lo: float, hi: float, g: float):
    """Drop redundant vertices of a flat run at the slab boundaries (in
    the first column) so slab polygons do not grow degenerate spurs."""
    while len(part) >= 2 and abs(part[0, 0] - lo) <= g and abs(
        part[1, 0] - lo
    ) <= g:
        part = part[1:]
    while len(part) >= 2 and abs(part[-1, 0] - hi) <= g and abs(
        part[-2, 0] - hi
    ) <= g:
        part = part[:-1]
    return part


def _ray_band(table: _ChainTable, kept: int, ends, far: float, add,
              g: float) -> List[tuple]:
    """The flats (c, lo, hi) of the SW (``kept`` axis 0) or NE (1) chain;
    the band's pieces go to ``add``.  In (kept, other) coordinates the
    chain runs from ``ends[0]`` to ``ends[1]``, kept rising and other
    falling, and its flats (runs of constant kept c over [lo, hi]) cut
    the band into slabs: a ray piece from the chain to a wall at the
    closing flat's hi (past the last flat, the rectangle side ``far``)
    and a graft rectangle from the wall to ``far``.  A NE slab turns
    back to (x, y) with its rows reversed, which keeps it ccw."""
    rule, name = ((RULE_RAY_YPLUS, "south"), (RULE_RAY_XMINUS, "east"))[kept]
    k, o = _xy(kept, table.xs, table.ys)
    chain = np.column_stack([k, o])
    flats = [(float(k[i]), float(o[j]), float(o[i]))
             for i, j in _flat_runs(k, o, g)]
    cuts = [ends[0][kept]] + [c for c, _, _ in flats] + [ends[1][kept]]
    walls = [hi for _, _, hi in flats] + [far]
    for j, (a, b, wall) in enumerate(zip(cuts, cuts[1:], walls)):
        if b - a <= g:
            continue
        part = _trim_runs(chain[(k >= a - g) & (k <= b + g)], a, b, g)
        slab = np.vstack([[(a, wall), (b, wall)], part[::-1]])
        add(rule, slab if kept == 0 else slab[::-1, ::-1],
            zone=f"{name}_ray", slab=j)
        if abs(far - wall) > g:
            x_span, y_span = _xy(kept, (a, b), sorted((far, wall)))
            add(RULE_GRAFT, _rect_poly(*x_span, *y_span),
                zone=f"{name}_graft")
    return flats


def _extreme_midpoints(pts: np.ndarray, g: float):
    """Locate the four axis-extreme boundary points (flat midpoints) and
    return the ring re-rooted at the left extreme with all four inserted
    as vertices."""
    n = len(pts)

    def flat_mid(coord_idx, pick_min, run_pick_min):
        """Midpoint of the extreme flat.  When an intrusion splits the
        extreme set into several boundary runs, pick the run that keeps
        the intrusion on the chain able to absorb it (the SE chain),
        selected by the other coordinate."""
        c = pts[:, coord_idx]
        target = c.min() if pick_min else c.max()
        on = np.abs(c - target) <= g
        idx = np.nonzero(on)[0]
        # group into cyclically contiguous runs of boundary indices
        runs = [[idx[0]]]
        for i in idx[1:]:
            if i == runs[-1][-1] + 1:
                runs[-1].append(i)
            else:
                runs.append([i])
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
            runs[0] = runs.pop() + runs[0]
        other = pts[:, 1 - coord_idx]
        key = [other[r].min() if run_pick_min else other[r].max() for r in runs]
        run = runs[int(np.argmin(key) if run_pick_min else np.argmax(key))]
        lo, hi = other[run].min(), other[run].max()
        p = np.empty(2)
        p[coord_idx] = target
        p[1 - coord_idx] = 0.5 * (lo + hi)
        return p

    L = flat_mid(0, True, True)
    B = flat_mid(1, True, True)
    R = flat_mid(0, False, False)
    T = flat_mid(1, False, False)

    # insert each extreme point into the ring if not already a vertex
    ring = pts.copy()
    for p in (L, B, R, T):
        d = np.hypot(ring[:, 0] - p[0], ring[:, 1] - p[1])
        if d.min() <= g:
            continue
        # the edge nearest p: a flat's midpoint lies on the edges between
        # its run's vertices, within g
        a = ring
        b = _shifted(ring)
        t_num = (p[0] - a[:, 0]) * (b[:, 0] - a[:, 0]) + (p[1] - a[:, 1]) * (
            b[:, 1] - a[:, 1]
        )
        L2 = np.sum((b - a) ** 2, axis=1)
        tt = np.where(L2 > 0, t_num / np.where(L2 > 0, L2, 1), 0.0)
        tt = np.clip(tt, 0.0, 1.0)
        proj = a + tt[:, None] * (b - a)
        dist = np.hypot(proj[:, 0] - p[0], proj[:, 1] - p[1])
        k = int(np.argmin(dist))
        ring = np.vstack([ring[: k + 1], p[None, :], ring[k + 1 :]])

    def vindex(p):
        d = np.hypot(ring[:, 0] - p[0], ring[:, 1] - p[1])
        return int(np.argmin(d))

    iL = vindex(L)
    ring = _shifted(ring, iL)
    iB, iR, iT = vindex(B), vindex(R), vindex(T)
    # extremes may coincide (e.g. leftmost vertex is also the topmost);
    # a top extreme equal to the left one wraps to the end of the ring
    if iT == 0:
        iT = len(ring)
    if not (0 <= iB <= iR <= iT <= len(ring)):
        raise UnsupportedDomain(
            "boundary extreme points are not in counterclockwise order"
        )
    return L, B, R, T, {"pts": ring, "iB": iB, "iR": iR, "iT": iT}


# ---------------------------------------------------------------------------
# Public objects and operations.
# ---------------------------------------------------------------------------


@dataclass
class ExtensionAudit:
    continuity_ok: bool
    agreement_ok: bool
    monotone_ok: bool
    nice_ok: bool
    max_jump: float
    max_disagreement: float
    n_monotone_violations: int
    range_inflation: float
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (
            self.continuity_ok
            and self.agreement_ok
            and self.monotone_ok
            and self.nice_ok
        )

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "continuity_ok": self.continuity_ok,
            "agreement_ok": self.agreement_ok,
            "monotone_ok": self.monotone_ok,
            "nice_ok": self.nice_ok,
            "max_jump": self.max_jump,
            "max_disagreement": self.max_disagreement,
            "n_monotone_violations": self.n_monotone_violations,
            "range_inflation": self.range_inflation,
            "all_ok": self.all_ok,
            "witnesses": {k: list(map(float, v)) for k, v in self.witnesses.items()},
        }


def clamp_to(v: np.ndarray, lo: float, hi: float, pad: float = np.inf,
             what: str = "", copy: bool = True) -> np.ndarray:
    """``v`` clipped to [lo, hi]; OutsideRect(what) when a value lies more
    than ``pad`` outside.

    One min and one max reduction decide both.  An array already inside
    comes back as it is; only one that needs clipping is clipped, into a
    copy or, with copy=False, in place.  NaN passes through, as it does
    through np.clip.
    """
    if not v.size:
        return v
    vmin, vmax = v.min(), v.max()
    if vmin < lo - pad or vmax > hi + pad:
        raise OutsideRect(what)
    if vmin >= lo and vmax <= hi:
        return v
    return np.clip(v, lo, hi, out=None if copy else v)


def _swap_piece(p: ExtensionPiece) -> ExtensionPiece:
    """The piece mirrored across the diagonal (the frame swap is its own
    inverse)."""
    poly = np.asarray(p.polygon, dtype=float)[:, ::-1][::-1].copy()
    return ExtensionPiece(p.rule, poly, p.meta)


class ExtendedMap:
    """Piecewise evaluator for the extension of a map to a rectangle.

    ``base_range`` is the range of the base map on the domain, read off
    the SE and NW boundary tables (see :func:`extend`); it is None for a
    rectangle, where the map is its own extension.
    """

    def __init__(self, base: MapSpec, rect: Box, domain: Optional[DomainSpec],
                 engine: Optional[_Engine], swapped: bool,
                 base_range: Optional[tuple] = None):
        self.base = base
        self.rect = rect
        self.domain = domain
        self.engine = engine
        self.swapped = swapped
        self.base_range = base_range
        self._pad = 1e-9 * rect.diam  # how far outside eval clamps
        if engine is None:
            self.pieces = [
                ExtensionPiece(RULE_BASE, _rect_poly(rect.x0, rect.x1, rect.y0, rect.y1),
                               {"zone": "rectangle"})
            ]
        elif swapped:
            self.pieces = [_swap_piece(p) for p in engine.pieces]
        else:
            self.pieces = list(engine.pieces)

    # evaluation -----------------------------------------------------------

    def eval(self, x, y):
        scalar = np.isscalar(x) and np.isscalar(y)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r = self.rect
        what = "evaluation point outside the extension rectangle"
        x = clamp_to(x, r.x0, r.x1, self._pad, what)
        y = clamp_to(y, r.y0, r.y1, self._pad, what)
        if self.engine is None:
            out = np.asarray(self.base(x, y), dtype=float)
        elif self.swapped:
            out = self.engine.eval(y, x)
        else:
            out = self.engine.eval(x, y)
        out = np.asarray(out, dtype=float)
        return float(out[0]) if scalar else out

    __call__ = eval

    def box_is_base(self, x0: float, x1: float, y0: float,
                    y1: float) -> bool:
        """Whether ``eval`` at every point (x, y) of the box [x0, x1] x
        [y0, y1] is F at that very point: the box lies in ``rect`` (eval
        clamps a point outside it) and, with an engine, the engine's
        ``box_is_base`` holds.  False may also mean undecided."""
        r = self.rect
        if not (r.x0 <= x0 <= x1 <= r.x1 and r.y0 <= y0 <= y1 <= r.y1):
            return False
        if self.engine is None:
            return True
        if self.swapped:
            return self.engine.box_is_base(y0, y1, x0, x1)
        return self.engine.box_is_base(x0, x1, y0, y1)

    # serialization ----------------------------------------------------------

    def to_dict(self):
        d = {
            "schema_version": SCHEMA_VERSION,
            "kind": "extended_map",
            "mode": "nice",
            "swapped": self.swapped,
            "rect": list(self.rect.as_tuple()),
            "map": {
                "name": self.base.name,
                "signature": str(self.base.signature),
                "params": dict(self.base.params),
            },
            "pieces": [p.to_dict() for p in self.pieces],
        }
        if self.base_range is not None:
            d["base_range"] = list(self.base_range)
        if self.engine is not None:
            d["engine"] = self.engine.to_state()
        return d

    @classmethod
    def from_dict(cls, data: dict, base: MapSpec) -> "ExtendedMap":
        """Rebuild an evaluator from :meth:`to_dict` output plus the base
        map callable, without redoing the geometric construction; the
        stored ``pieces``, ``mode``, ``sw_flats`` and ``ne_flats`` are not
        read.  ValueError when the stored rectangle is not the bounding
        box of the stored domain, the only rectangle ``extend`` builds."""
        if data.get("kind") != "extended_map":
            raise ValueError("not a serialized extended map")
        rect = Box(*data["rect"])
        base_range = tuple(data["base_range"]) if "base_range" in data else None
        if "engine" not in data:
            return cls(base, rect, None, None, False, base_range)
        swapped = bool(data["swapped"])
        # the engine's map and rectangle, and the domain in the caller's
        # frame, so the audit checks agreement on it and reads the
        # stored range
        func, crect, verts = _swap_frame(
            base, rect, np.asarray(data["engine"]["omega"], dtype=float),
            swapped)
        domain = DomainSpec(verts)
        if Box(*domain.bbox) != rect:
            raise ValueError(
                f"extension rectangle {list(rect.as_tuple())} is not the "
                f"bounding box {list(domain.bbox)} of its domain"
            )
        engine = _Engine.from_state(data["engine"], func, crect)
        return cls(base, rect, domain, engine, swapped, base_range)


# a box that holds no point: the box a ``BaseBoxEval`` keeps until it
# proves one
NO_BOX = (math.inf, -math.inf, math.inf, -math.inf)


class BaseBoxEval:
    """``ext.eval`` for evaluations that close in on one region, by the
    rule that inside a box where ``ext.box_is_base`` holds the extension
    is F at the very point.

    ``box`` is ``NO_BOX`` until ``prove`` keeps one: the first box on
    which ``box_is_base`` holds, after which no other is tried.  A batch
    whose hull lies in the kept box goes to F itself (``base``), any
    other to ``ext.eval``; the values have the bits ``ext.eval`` gives,
    since in a base box it hands every point to F unclamped.  Where the
    batches nest, as a search narrows, every batch after the first
    proved one calls F directly.  ``base`` and ``rect`` are the
    extension's, so that it stands in for it where only they and
    ``eval`` are read.
    """

    def __init__(self, ext: ExtendedMap):
        self.ext, self.base, self.rect = ext, ext.base, ext.rect
        self.box = NO_BOX

    def prove(self, x0: float, x1: float, y0: float, y1: float) -> bool:
        """Keep the box [x0, x1] x [y0, y1] when none is kept yet and
        ``box_is_base`` holds on it; whether it was kept."""
        if self.box is NO_BOX and self.ext.box_is_base(x0, x1, y0, y1):
            self.box = (x0, x1, y0, y1)
            return True
        return False

    def eval(self, x, y, hull: Optional[tuple] = None):
        """The extension at the points (x, y), as arrays: F itself when
        ``hull``, a box (x0, x1, y0, y1) that holds them all, lies in the
        kept box.  By default ``hull`` is the points' own hull, and it is
        tried with ``prove`` while no box is kept; a caller that gives
        it tries its boxes itself."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if hull is None:
            hull = (x.min(initial=math.inf), x.max(initial=-math.inf),
                    y.min(initial=math.inf), y.max(initial=-math.inf))
            self.prove(*hull)
        x0, x1, y0, y1 = hull
        bx0, bx1, by0, by1 = self.box
        if bx0 <= x0 and x1 <= bx1 and by0 <= y0 and y1 <= by1:
            return self.base(x, y)
        return self.ext.eval(x, y)

    __call__ = eval


def _swap_frame(func: Callable, rect: Box, verts: np.ndarray, swapped: bool):
    """``func``, ``rect`` and the ccw vertices ``verts`` seen from the
    other frame when ``swapped``: (x, y) -> F(y, x), the transposed box and
    the vertices mirrored in the diagonal, in reverse order so that they
    stay counterclockwise.  The swap is its own inverse."""
    if not swapped:
        return func, rect, verts
    return ((lambda x, y: func(y, x)), Box(rect.y0, rect.y1, rect.x0, rect.x1),
            verts[::-1, ::-1].copy())


def extend_rectangle(map_spec: MapSpec, rect: Box) -> ExtendedMap:
    """The trivial extension: on a rectangle the map is its own extension."""
    return ExtendedMap(map_spec, rect, None, None, swapped=False)


def extend(map_spec: MapSpec, domain: DomainSpec) -> ExtendedMap:
    """Extend a mixed-monotone map from its domain to the bounding
    rectangle.

    A rectangle is its own extension.  Convex and semi-convex domains go
    through the one zone construction (a convex domain simply has no
    sectors); a domain that fails the exterior-ray test is rejected.

    F's range on the domain is read off the SE and NW boundary tables.
    In the engine's frame F decreases in x and increases in y: a vertical
    ray from an interior point meets the boundary above (F higher) and
    below (F lower); of two boundary points at one height the left one
    has the higher F; F is monotone along the SW and NE chains, towards L
    and T or B and R; and a sector's chord values are fills between its
    two arcs, whose least values sit at chord ends.  So F is least on the
    SE chain and greatest on the NW chain, and every chain vertex, chord
    end and edge extremum ``_insert_breakpoints`` finds is a knot of
    their tables.
    """
    kind = domain.classify()
    if kind == DomainKind.RECTANGLE:
        return extend_rectangle(map_spec, Box(*domain.bbox))
    if kind == DomainKind.UNSUPPORTED:
        raise UnsupportedDomain("domain failed the exterior-ray test")
    if not map_spec.signature.is_mixed:
        raise UnsupportedDomain(
            "extension requires a mixed-monotone map signature"
        )
    # the engine's frame: F decreasing in x, increasing in y
    swapped = map_spec.signature != DEC_INC
    rect = Box(*domain.bbox)
    func, crect, pts = _swap_frame(map_spec, rect, domain.vertices.copy(),
                                   swapped)
    engine = _Engine(func, pts, crect)
    lo, hi = float(engine.t_se.fs.min()), float(engine.t_nw.fs.max())
    return ExtendedMap(map_spec, rect, domain, engine, swapped,
                       base_range=(lo, hi))


def audit_extension(ext: ExtendedMap, grid_n: int = 100,
                    rng=None) -> ExtensionAudit:
    """Check continuity across piece borders, agreement on the domain,
    monotonicity on the rectangle, and range preservation.  A jump may
    reach 1e-7, a monotonicity violation 1e-9 and a range inflation 1e-6
    of the spread of F's values.  The three sets of points, the grid,
    both sides of every piece edge and the agreement points, go to one
    ``ext.eval`` call."""
    rng = np.random.default_rng(0) if rng is None else rng
    r = ext.rect
    # the grid of the monotonicity and range checks; without a stored
    # range (a rectangle) its values give the spread as well
    gx = np.linspace(r.x0, r.x1, grid_n)
    gy = np.linspace(r.y0, r.y1, grid_n)
    X, Y = np.meshgrid(gx, gy, indexing="ij")

    # (C1) continuity: sample along every piece edge, compare both sides.
    # The offset is kept tiny so that steep-but-continuous slopes (e.g.
    # near a nearly vertical boundary chord) do not read as jumps.  The
    # edges of all pieces run at once: each vertex's successor is the
    # next vertex of its own polygon
    eps = 5e-13 * r.diam
    polys = [np.asarray(p.polygon, dtype=float) for p in ext.pieces]
    sizes = [len(poly) for poly in polys]
    ends = np.cumsum(sizes)
    succ = np.arange(1, ends[-1] + 1)
    succ[ends - 1] = ends - sizes
    p0 = np.concatenate(polys)
    seg = p0[succ] - p0
    ln = np.hypot(seg[:, 0], seg[:, 1])
    keep = ln > 1e4 * eps
    p0, seg, ln = p0[keep], seg[keep], ln[keep]
    ts = np.linspace(0.08, 0.92, 9)
    mid = p0[:, None, :] + ts[None, :, None] * seg[:, None, :]
    nrm = np.stack([-seg[:, 1], seg[:, 0]], axis=1) / ln[:, None]
    pa = (mid + eps * nrm[:, None, :]).reshape(-1, 2)
    pb = (mid - eps * nrm[:, None, :]).reshape(-1, 2)
    mid = mid.reshape(-1, 2)
    ok = (
        (pa[:, 0] >= r.x0) & (pa[:, 0] <= r.x1)
        & (pa[:, 1] >= r.y0) & (pa[:, 1] <= r.y1)
        & (pb[:, 0] >= r.x0) & (pb[:, 0] <= r.x1)
        & (pb[:, 1] >= r.y0) & (pb[:, 1] <= r.y1)
    )
    n = int(np.count_nonzero(ok))

    # (C2) agreement with the base map on the domain
    px = py = np.empty(0)
    if ext.domain is not None:
        px, py = ext.domain.draw(400, rng, 400, lambda code: code == 1)

    # one evaluation: the grid, then both sides of every edge, then the
    # agreement points
    v = ext.eval(np.concatenate([X.ravel(), pa[ok, 0], pb[ok, 0], px]),
                 np.concatenate([Y.ravel(), pa[ok, 1], pb[ok, 1], py]))
    V, sides, ve = np.split(v, [grid_n * grid_n, grid_n * grid_n + 2 * n])
    V = V.reshape(grid_n, grid_n)
    if ext.base_range is not None:
        lo, hi = ext.base_range
    else:
        lo, hi = float(V.min()), float(V.max())
    spread = max(hi - lo, 1e-12)
    witnesses = {}

    max_jump = 0.0
    if n:
        jumps = np.abs(sides[:n] - sides[n:])
        k = int(np.argmax(jumps))
        max_jump = float(jumps[k])
        witnesses["continuity"] = (mid[ok][k][0], mid[ok][k][1], max_jump)
    continuity_ok = max_jump <= 1e-7 * spread

    max_dis = 0.0
    if ext.domain is not None:
        vb = np.asarray(ext.base(px, py), dtype=float)
        max_dis = float(np.max(np.abs(ve - vb)))
    agreement_ok = max_dis == 0.0 or max_dis <= 1e-14 * max(1.0, spread)

    # (C3) monotonicity on the whole rectangle, witnessed by the grid
    # point where the worst difference starts
    n_x, n_y, worst = lattice_violations(V, ext.base.signature,
                                         1e-9 * spread)
    n_viol = n_x + n_y
    monotone_ok = worst is None
    if worst is not None:
        i, j, _, step = worst
        witnesses["monotone"] = (gx[i], gy[j], step)

    # (Nice) range preservation
    inflation = max(lo - float(V.min()), float(V.max()) - hi, 0.0)
    nice_ok = inflation <= 1e-6 * spread

    return ExtensionAudit(
        continuity_ok,
        agreement_ok,
        monotone_ok,
        nice_ok,
        max_jump,
        max_dis,
        n_viol,
        inflation,
        witnesses,
    )
