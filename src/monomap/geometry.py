"""Planar domain handling: polygon boundaries, classification, queries.

A domain is a simple polygon, stored counterclockwise without a repeated
closing vertex.  Containment, slicing and classification all work on
that one vertex list, so they stay consistent with each other.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import UnsupportedDomain


# the rounds ``DomainSpec.draw`` draws before a domain is too thin to sample
DRAW_ROUNDS = 1000

# the edge pairs ``DomainSpec._self_contact`` tests in one array pass
_PAIR_BLOCK = 1 << 16


class DomainKind(Enum):
    RECTANGLE = "rectangle"
    CONVEX = "convex"
    SEMI_CONVEX = "semi_convex"
    UNSUPPORTED = "unsupported"


def _shifted(a: np.ndarray, k: int = 1) -> np.ndarray:
    """The rows of ``a`` from row k on, then the first k: ``np.roll(a, -k,
    axis=0)`` for -len(a) <= k <= len(a), without its overhead."""
    return np.concatenate([a[k:], a[:k]])


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * _shifted(y) - _shifted(x) * y))


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > tol:
            keep.append(i)
    out = pts[keep]
    if len(out) > 1 and np.hypot(*(out[0] - out[-1])) <= tol:
        out = out[:-1]
    return out


class EdgeTable:
    """The edges of a closed polygon ring, tabulated once for sweeps over
    points sorted by y.

    Edge k runs from vertex k to vertex k + 1.  A sweep never pairs a
    point with an edge whose y-band misses it: each edge finds its points
    in the sorted order with ``searchsorted`` and works on that slice
    alone (the crossing test of Haines, *Point in Polygon Strategies*,
    Graphics Gems IV, 1994).
    """

    def __init__(self, ring: np.ndarray):
        x0, y0 = ring[:, 0], ring[:, 1]
        x1, y1 = _shifted(x0), _shifted(y0)
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        ylo, yhi = np.minimum(y0, y1), np.maximum(y0, y1)
        # a horizontal edge crosses no row of points
        slanted = dy != 0
        self._slanted = list(zip(*(a[slanted].tolist()
                                   for a in (x0, y0, dx, dy))))
        self._bands = np.concatenate([ylo[slanted], yhi[slanted]])
        self._seg = np.array([x0, y0, dx, dy, np.where(L2 > 0, L2, 1.0)])
        self._yspan = np.concatenate([ylo, yhi])
        self._grow = np.repeat([-1.0, 1.0], len(ring))
        self._xspan = list(zip(np.minimum(x0, x1).tolist(),
                               np.maximum(x0, x1).tolist()))
        # rounding slack of a point's distance to an edge: a few ulps of
        # the coordinates, and the differences whose squares underflow
        # to 0 (below about 1.5e-162)
        self._ulps = 8.0 * float(np.spacing(np.max(np.abs(ring)))) + 1e-160

    def crossings(self, xs: np.ndarray, ys: np.ndarray):
        """For each non-horizontal edge whose band holds points: the slice
        ``lo:hi`` of the points (sorted by ``ys``) with
        min(y0, y1) <= y < max(y0, y1), and the edge's x at their
        heights."""
        m = len(self._slanted)
        ends = np.searchsorted(ys, self._bands).tolist()
        for (x0, y0, dx, dy), lo, hi in zip(self._slanted, ends[:m], ends[m:]):
            if lo < hi:
                yield lo, hi, x0 + (ys[lo:hi] - y0) * dx / dy

    def parity(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The even-odd rule for points sorted by ``ys``: whether a ray to
        +x from each crosses the ring an odd number of times."""
        inside = np.zeros(xs.shape, dtype=bool)
        for lo, hi, xi in self.crossings(xs, ys):
            inside[lo:hi] ^= xs[lo:hi] < xi
        return inside

    def even_odd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``parity`` for the points of the 1-D arrays ``x``, ``y`` in any
        order."""
        order = np.argsort(y)
        out = np.empty(x.shape, dtype=bool)
        out[order] = self.parity(x[order], y[order])
        return out

    def near(self, xs: np.ndarray, ys: np.ndarray, tol: float) -> np.ndarray:
        """Indices of the points (sorted by ``ys``) within ``tol`` of an
        edge.  Only the points in an edge's bounding box, widened by
        2 tol and the rounding slack, go through the distance test."""
        pad = 2.0 * abs(tol) + self._ulps
        ends = np.searchsorted(ys, self._yspan + self._grow * pad).tolist()
        n = len(self._xspan)
        hits, edges = [], []
        for k, ((xlo, xhi), lo, hi) in enumerate(
                zip(self._xspan, ends[:n], ends[n:])):
            if lo < hi:
                band = xs[lo:hi]
                i = np.flatnonzero((band >= xlo - pad) & (band <= xhi + pad))
                if i.size:
                    hits.append(i + lo)
                    edges.append(k)
        if not hits:
            return np.empty(0, dtype=np.intp)
        p = np.concatenate(hits)
        x0, y0, dx, dy, L2 = self._seg[
            :, np.repeat(edges, [len(i) for i in hits])]
        px, py = xs[p], ys[p]
        tpar = np.clip(((px - x0) * dx + (py - y0) * dy) / L2, 0.0, 1.0)
        d2 = (px - (x0 + tpar * dx)) ** 2 + (py - (y0 + tpar * dy)) ** 2
        return p[d2 <= tol * tol]


class DomainSpec:
    """A polygonal domain with its cached classification."""

    def __init__(self, vertices: Sequence[tuple], name: str = "domain"):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise UnsupportedDomain("vertices must be (x, y) pairs")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            x, y = pts[~finite][0]
            raise UnsupportedDomain(f"vertex ({x}, {y}) is not finite")
        self.name = name
        diam = math.hypot(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]))
        if diam == 0:
            raise UnsupportedDomain("degenerate (zero-size) boundary")
        # boundary band for containment queries
        self.chord_tol = 1e-6 * diam
        pts = _dedupe(pts, 1e-12 * diam)
        if _signed_area(pts) < 0:
            pts = pts[::-1].copy()
        if len(pts) < 3:
            raise UnsupportedDomain("fewer than 3 distinct boundary points")
        self.vertices = pts  # ccw, no repeated closing vertex
        self._edges = EdgeTable(pts)
        self._kind: Optional[DomainKind] = None

    # -- basic metrics -------------------------------------------------

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 0].max()),
            float(v[:, 1].min()),
            float(v[:, 1].max()),
        )

    @property
    def diam(self) -> float:
        x0, x1, y0, y1 = self.bbox
        return math.hypot(x1 - x0, y1 - y0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def rectangle(x0: float, x1: float, y0: float, y1: float) -> "DomainSpec":
        if not (x0 < x1 and y0 < y1):
            raise UnsupportedDomain("rectangle needs x0 < x1 and y0 < y1")
        d = DomainSpec([(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                       name="rectangle")
        d._kind = DomainKind.RECTANGLE
        return d

    @staticmethod
    def polygon(points: Sequence[tuple], name: str = "polygon") -> "DomainSpec":
        return DomainSpec(points, name=name)

    # -- point queries ---------------------------------------------------

    def contains(self, x, y, tol: Optional[float] = None):
        """Vectorized location query: 1 inside, 0 boundary, -1 outside.

        ``x`` and ``y`` must broadcast against each other; the codes come
        back in their broadcast shape.  A scalar query gives a 0-d array
        (so ``int(d.contains(x, y))`` works), and a 1-D query gives a 1-D
        array of the same length.  A point within ``tol`` (default
        ``chord_tol``) of an edge is on the boundary; otherwise the
        even-odd rule decides.

        One y-sorted sweep (``EdgeTable``): the points are sorted by y
        once; each edge finds the points in its y-band by binary search,
        tests only those for an even-odd crossing, and tests only those
        in its bounding box, widened by 2 tol and a rounding slack, for
        distance.  For N points that costs O(N log N) plus O(1) per
        (point, edge) pair in a band, not per (point, edge) pair.
        Memory is O(N) plus the pairs that pass the bounding-box test.
        A skipped pair is one whose crossing condition is false or whose
        distance exceeds tol, so skipping never changes a code.
        """
        tol = self.chord_tol if tol is None else tol
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        order = np.argsort(y, axis=None)
        xs, ys = x.ravel()[order], y.ravel()[order]
        code = np.where(self._edges.parity(xs, ys), 1, -1)
        code[self._edges.near(xs, ys, tol)] = 0
        out = np.empty_like(code)
        out[order] = code
        return out.reshape(x.shape)

    def draw(self, n: int, rng: np.random.Generator, batch: int, accept):
        """The first n of the points drawn uniformly from the bounding
        box whose ``contains`` code satisfies ``accept``, as (x, y).
        Each round draws ``batch`` abscissae, then ``batch`` ordinates.
        A domain too thin for ``DRAW_ROUNDS`` rounds to yield n points
        is an unsupported domain."""
        x0, x1, y0, y1 = self.bbox
        xs, ys, got = [np.empty(0)], [np.empty(0)], 0
        for _ in range(DRAW_ROUNDS):
            if got >= n:
                break
            cx = rng.uniform(x0, x1, batch)
            cy = rng.uniform(y0, y1, batch)
            keep = accept(self.contains(cx, cy))
            xs.append(cx[keep])
            ys.append(cy[keep])
            got += len(xs[-1])
        if got < n:
            raise UnsupportedDomain(
                f"{got or 'no'} point(s) of {DRAW_ROUNDS * batch} drawn from "
                f"the bounding box lie inside the domain, {n} needed")
        return np.concatenate(xs)[:n], np.concatenate(ys)[:n]

    def slice_bounds(self, t):
        """Lowest and highest boundary point on each vertical line x = t.

        ``t`` is clamped to the domain's x-range; an edge along the line
        contributes both of its ends.
        """
        xmin, xmax, xlo, xhi, x0, dx, y0, dy, flat, ylo, yhi = self._slices
        t = np.minimum(np.maximum(t, xmin), xmax)[..., None]
        hit = (xlo <= t) & (t <= xhi)
        y = y0 + np.minimum(np.maximum((t - x0) / dx, 0.0), 1.0) * dy
        lo = np.where(hit, np.where(flat, ylo, y), np.inf)
        hi = np.where(hit, np.where(flat, yhi, y), -np.inf)
        return lo.min(axis=-1), hi.max(axis=-1)

    @cached_property
    def _slices(self):
        """The edge table of ``slice_bounds``, built on its first call."""
        (x0, y0), (x1, y1) = self.vertices.T, _shifted(self.vertices).T
        flat = x1 == x0
        return (x0.min(), x0.max(), np.minimum(x0, x1), np.maximum(x0, x1),
                x0, np.where(flat, 1.0, x1 - x0), y0, y1 - y0, flat,
                np.minimum(y0, y1), np.maximum(y0, y1))

    def slab_extent(self, x0, x1):
        """y-range of the part of the domain in each slab x0 <= x <= x1.

        The part is a polygon whose vertices are the domain's vertices
        inside the slab and the boundary points on the slab's sides, so
        those bound it; this holds for any polygon, convex or not.
        """
        x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
        lo, hi = self.slice_bounds(np.stack(np.broadcast_arrays(x0, x1)))
        vx, vy = self.vertices[:, 0], self.vertices[:, 1]
        between = (x0[..., None] < vx) & (vx < x1[..., None])
        lo = np.minimum(lo.min(axis=0),
                        np.where(between, vy, np.inf).min(axis=-1))
        hi = np.maximum(hi.max(axis=0),
                        np.where(between, vy, -np.inf).max(axis=-1))
        return lo, hi

    def trapezoids(self):
        """The polygon cut at every distinct vertex height.

        Returns the cut heights ``ys`` (ascending) and, for each band
        ys[j] <= y <= ys[j + 1], a (k, 2) array of edge indices: the left
        and the right edge of each of the band's k trapezoids.  Edge i
        runs from vertex i to vertex i + 1.  No vertex lies inside a
        band, so the edges that cross it keep their order; sorted by
        their x at mid-height they pair up, left to right, as the sides
        of the trapezoids (Seidel 1991).  Every trapezoid is convex and
        lies in the polygon.
        """
        ya = self.vertices[:, 1]
        yb = _shifted(ya)
        ys = np.unique(ya)
        bands = []
        for lo, hi in zip(ys[:-1], ys[1:]):
            cross = np.flatnonzero((np.minimum(ya, yb) <= lo)
                                   & (np.maximum(ya, yb) >= hi))
            mid = self.edge_x(cross, 0.5 * (lo + hi))
            bands.append(cross[np.argsort(mid)].reshape(-1, 2))
        return ys, bands

    def edge_x(self, edges, t):
        """x of the non-horizontal edges ``edges`` at heights ``t``
        (broadcast against each other), clamped to each edge's ends."""
        v = self.vertices
        a, b = v[edges], v[(edges + 1) % len(v)]
        x0, y0, x1, y1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
        s = np.clip((t - y0) / (y1 - y0), 0.0, 1.0)
        return x0 + s * (x1 - x0)

    # -- classification ----------------------------------------------------

    def classify(self) -> DomainKind:
        if self._kind is not None:
            return self._kind
        self._kind = self._classify()
        return self._kind

    def _classify(self) -> DomainKind:
        v = self.vertices
        n = len(v)
        contact = self._self_contact()
        if contact == 2:
            raise UnsupportedDomain("boundary is self-intersecting")
        scale = self.diam
        # a ring that folds back on itself has no interior to sample
        if abs(_signed_area(v)) <= 1e-12 * scale * scale:
            raise UnsupportedDomain("boundary encloses zero area")
        if contact:
            raise UnsupportedDomain("boundary is self-intersecting")

        # Rectangle: every vertex on a side of the bbox (a corner lies on
        # two), and the polygon covers the bbox.
        if (n <= 8 and all(self._on_bbox_edge(px, py, 1e-9 * scale)
                           for px, py in v) and self._covers_rectangle()):
            return DomainKind.RECTANGLE

        # Convex: all turn cross products non-negative (ccw ordering).
        cross = self._turn_crosses()
        if np.all(cross >= -1e-12 * scale * scale):
            return DomainKind.CONVEX

        if self._semi_convex_ray_test():
            return DomainKind.SEMI_CONVEX
        return DomainKind.UNSUPPORTED

    def _on_bbox_edge(self, px, py, tol) -> bool:
        x0, x1, y0, y1 = self.bbox
        return (
            min(abs(px - x0), abs(px - x1)) <= tol
            or min(abs(py - y0), abs(py - y1)) <= tol
        )

    def _covers_rectangle(self) -> bool:
        x0, x1, y0, y1 = self.bbox
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        area = abs(_signed_area(self.vertices))
        return (
            int(self.contains(cx, cy)) == 1
            and abs(area - (x1 - x0) * (y1 - y0)) <= 1e-9 * area
        )

    def _turn_crosses(self) -> np.ndarray:
        v = self.vertices
        a = v - _shifted(v, -1)
        b = _shifted(v) - v
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    def _self_contact(self) -> int:
        """How two edges that are not neighbours on the ring meet: 2 when
        a pair crosses (the ends of each lie strictly on both sides of
        the other's line); else 1 when a pair shares a point (a repeated
        vertex, a vertex on another edge, collinear edges that overlap);
        else 0.  Every pair of edges (p0, p1), (q0, q1) that are not
        neighbours is tested in one array pass of the four orientation
        tests of a segment pair and of a bounding-box test, which tells
        collinear edges that overlap from those that do not; a long
        boundary is taken in blocks of edges p of about ``_PAIR_BLOCK``
        pairs each."""
        v = self.vertices
        n = len(v)
        q = _shifted(v)
        ax, ay, bx, by = v[:, 0], v[:, 1], q[:, 0], q[:, 1]
        x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
        y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
        rows = max(1, _PAIR_BLOCK // n)
        touch = False
        for r in range(0, n - 2, rows):
            # the pairs (i, j) of edges i = r, ..., r + rows - 1 with
            # j >= i + 2, but for (0, n - 1): edge n - 1 closes the ring
            # onto edge 0
            i, j = np.nonzero(np.arange(n) >= np.arange(
                r + 2, min(r + rows, n - 2) + 2)[:, None])
            i += r
            keep = (i > 0) | (j < n - 1)
            i, j = i[keep], j[keep]
            p0x, p0y, p1x, p1y = ax[i], ay[i], bx[i], by[i]
            q0x, q0y, q1x, q1y = ax[j], ay[j], bx[j], by[j]
            d1 = (q1x - q0x) * (p0y - q0y) - (q1y - q0y) * (p0x - q0x)
            d2 = (q1x - q0x) * (p1y - q0y) - (q1y - q0y) * (p1x - q0x)
            d3 = (p1x - p0x) * (q0y - p0y) - (p1y - p0y) * (q0x - p0x)
            d4 = (p1x - p0x) * (q1y - p0y) - (p1y - p0y) * (q1x - p0x)
            s12 = np.sign(d1) * np.sign(d2)
            s34 = np.sign(d3) * np.sign(d4)
            if np.any((s12 < 0) & (s34 < 0)):
                return 2
            touch = touch or bool(np.any(
                (s12 <= 0) & (s34 <= 0) & (x0[j] <= x1[i]) & (x0[i] <= x1[j])
                & (y0[j] <= y1[i]) & (y0[i] <= y1[j])))
        return int(touch)

    def _semi_convex_ray_test(self) -> bool:
        """Near every sampled boundary point, every nearby exterior probe
        must have at least one horizontal or vertical ray that escapes to
        infinity without re-intersecting the boundary.  A ray meets an
        edge that crosses its line at a signed distance >= -1e-14 ahead."""
        v = self.vertices
        mids = 0.5 * (v + _shifted(v))
        samples = np.concatenate([v, mids])
        if len(samples) > 256:  # thin long boundaries to ~256 samples
            samples = samples[:: len(samples) // 256]
        eps = 64.0 * self.chord_tol + 1e-9 * self.diam
        offsets = np.array([
            (1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (1, -1), (-1, 1), (-1, -1),
        ], dtype=float)
        probes = (samples[:, None, :] + eps * offsets[None, :, :]).reshape(-1, 2)
        probes = probes[self.contains(probes[:, 0], probes[:, 1]) == -1]
        blocked = np.ones(len(probes), dtype=bool)
        # the x-rays sweep the probes by y; the y-rays sweep them by x,
        # against the boundary mirrored in the diagonal
        for edges, (u, w) in ((self._edges, (0, 1)),
                              (EdgeTable(v[:, ::-1]), (1, 0))):
            order = np.argsort(probes[:, w])
            us, ws = probes[order, u], probes[order, w]
            ahead = np.zeros(len(us), dtype=bool)
            behind = np.zeros(len(us), dtype=bool)
            for lo, hi, ui in edges.crossings(us, ws):
                ahead[lo:hi] |= ui - us[lo:hi] >= -1e-14
                behind[lo:hi] |= us[lo:hi] - ui >= -1e-14
            blocked[order] &= ahead & behind
        return not blocked.any()
