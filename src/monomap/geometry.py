"""Planar domain handling: polygon boundaries, classification, queries.

A domain is a simple polygon, stored counterclockwise without a repeated
closing vertex.  Containment, projection and region dispatch all work on
that one vertex list, so they stay consistent with each other.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import UnsupportedDomain


class DomainKind(Enum):
    RECTANGLE = "rectangle"
    CONVEX = "convex"
    SEMI_CONVEX = "semi_convex"
    UNSUPPORTED = "unsupported"


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > tol:
            keep.append(i)
    out = pts[keep]
    if len(out) > 1 and np.hypot(*(out[0] - out[-1])) <= tol:
        out = out[:-1]
    return out


class DomainSpec:
    """A polygonal domain with its cached classification."""

    def __init__(self, vertices: Sequence[tuple], name: str = "domain"):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise UnsupportedDomain("vertices must be (x, y) pairs")
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
        array of the same length.
        """
        tol = self.chord_tol if tol is None else tol
        x, y = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        v = self.vertices
        x0s, y0s = v[:, 0], v[:, 1]
        x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)

        inside = np.zeros(x.shape, dtype=bool)
        on_edge = np.zeros(x.shape, dtype=bool)
        # Classic even-odd ray casting, broadcast points x edges in chunks.
        n_edges = len(x0s)
        chunk = max(1, int(4e6 // max(x.size, 1)))
        dx_all, dy_all = x1s - x0s, y1s - y0s
        L2_all = dx_all * dx_all + dy_all * dy_all
        for s in range(0, n_edges, chunk):
            e = slice(s, s + chunk)
            ex0 = x0s[e][:, None]
            ey0 = y0s[e][:, None]
            ey1 = y1s[e][:, None]
            dx = dx_all[e][:, None]
            dy = dy_all[e][:, None]
            L2 = np.where(L2_all[e] > 0, L2_all[e], 1)[:, None]
            cond = (ey0 > y[None, :]) != (ey1 > y[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = ex0 + (y[None, :] - ey0) * dx / np.where(dy != 0, dy, 1)
            crossed = cond & (x[None, :] < xi)
            inside ^= (np.sum(crossed, axis=0) % 2).astype(bool)
            tpar = ((x[None, :] - ex0) * dx + (y[None, :] - ey0) * dy) / L2
            tpar = np.clip(tpar, 0.0, 1.0)
            d2 = (x[None, :] - (ex0 + tpar * dx)) ** 2 + (
                y[None, :] - (ey0 + tpar * dy)
            ) ** 2
            on_edge |= np.any(d2 <= tol * tol, axis=0)
        out = np.where(on_edge, 0, np.where(inside, 1, -1))
        return out.reshape(shape)

    def slice_bounds(self, t):
        """Lowest and highest boundary point on each vertical line x = t.

        ``t`` is clamped to the domain's x-range; an edge along the line
        contributes both of its ends.
        """
        v = self.vertices
        x0, y0 = v[:, 0], v[:, 1]
        x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
        t = np.clip(np.asarray(t, dtype=float), x0.min(), x0.max())[..., None]
        dx = x1 - x0
        flat = dx == 0
        hit = (np.minimum(x0, x1) <= t) & (t <= np.maximum(x0, x1))
        s = np.clip((t - x0) / np.where(flat, 1.0, dx), 0.0, 1.0)
        y = y0 + s * (y1 - y0)
        lo = np.where(hit, np.where(flat, np.minimum(y0, y1), y), np.inf)
        hi = np.where(hit, np.where(flat, np.maximum(y0, y1), y), -np.inf)
        return lo.min(axis=-1), hi.max(axis=-1)

    def slab_extent(self, x0, x1):
        """y-range of the part of the domain in each slab x0 <= x <= x1.

        The part is a polygon whose vertices are the domain's vertices
        inside the slab and the boundary points on the slab's sides, so
        those bound it; this holds for any polygon, convex or not.
        """
        x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
        lo0, hi0 = self.slice_bounds(x0)
        lo1, hi1 = self.slice_bounds(x1)
        vx, vy = self.vertices[:, 0], self.vertices[:, 1]
        between = (x0[..., None] < vx) & (vx < x1[..., None])
        lo = np.minimum(np.minimum(lo0, lo1),
                        np.where(between, vy, np.inf).min(axis=-1))
        hi = np.maximum(np.maximum(hi0, hi1),
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
        yb = np.roll(ya, -1)
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

    def project(self, x: float, y: float, direction: str) -> Optional[tuple]:
        """Nearest boundary intersection of the axis ray from (x, y).

        ``direction`` is one of 'x-', 'x+', 'y-', 'y+' ('x+' walks right).
        Returns the intersection point or None when the ray misses.
        """
        v = self.vertices
        x0s, y0s = v[:, 0], v[:, 1]
        x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
        best = None
        if direction in ("x-", "x+"):
            cond = (y0s > y) != (y1s > y)
            idx = np.nonzero(cond)[0]
            for i in idx:
                xi = x0s[i] + (y - y0s[i]) * (x1s[i] - x0s[i]) / (y1s[i] - y0s[i])
                d = xi - x if direction == "x+" else x - xi
                if d >= -1e-14 and (best is None or d < best[0]):
                    best = (d, (float(xi), float(y)))
            # also catch exactly-horizontal aligned vertices
        else:
            cond = (x0s > x) != (x1s > x)
            idx = np.nonzero(cond)[0]
            for i in idx:
                yi = y0s[i] + (x - x0s[i]) * (y1s[i] - y0s[i]) / (x1s[i] - x0s[i])
                d = yi - y if direction == "y+" else y - yi
                if d >= -1e-14 and (best is None or d < best[0]):
                    best = (d, (float(x), float(yi)))
        return None if best is None else best[1]

    # -- classification ----------------------------------------------------

    def classify(self) -> DomainKind:
        if self._kind is not None:
            return self._kind
        self._kind = self._classify()
        return self._kind

    def _classify(self) -> DomainKind:
        v = self.vertices
        n = len(v)
        if self._is_self_intersecting():
            raise UnsupportedDomain("boundary is self-intersecting")
        x0, x1, y0, y1 = self.bbox
        scale = self.diam

        # Rectangle: every vertex on a bbox corner-aligned grid of 4 corners.
        if n <= 8:
            corners = {(x0, y0), (x1, y0), (x1, y1), (x0, y1)}
            is_rect = all(
                any(math.hypot(px - cx, py - cy) <= 1e-9 * scale
                    for cx, cy in corners)
                or self._on_bbox_edge(px, py, 1e-9 * scale)
                for px, py in v
            ) and self._covers_rectangle()
            if is_rect:
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
        a = v - np.roll(v, 1, axis=0)
        b = np.roll(v, -1, axis=0) - v
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    def _is_self_intersecting(self) -> bool:
        """True when two edges that share no vertex cross.  Each edge
        (p0, p1) is tested against all later edges (q0, q1) in one array
        pass of the four orientation tests of a segment pair."""
        v = self.vertices
        n = len(v)
        q = np.roll(v, -1, axis=0)
        ax, ay, bx, by = v[:, 0], v[:, 1], q[:, 0], q[:, 1]
        for i in range(n - 2):
            # the later edges not adjacent to edge i (edge n-1 closes
            # the ring onto edge 0)
            j = slice(i + 2, n - 1 if i == 0 else n)
            p0x, p0y, p1x, p1y = ax[i], ay[i], bx[i], by[i]
            q0x, q0y, q1x, q1y = ax[j], ay[j], bx[j], by[j]
            d1 = (q1x - q0x) * (p0y - q0y) - (q1y - q0y) * (p0x - q0x)
            d2 = (q1x - q0x) * (p1y - q0y) - (q1y - q0y) * (p1x - q0x)
            d3 = (p1x - p0x) * (q0y - p0y) - (p1y - p0y) * (q0x - p0x)
            d4 = (p1x - p0x) * (q1y - p0y) - (p1y - p0y) * (q1x - p0x)
            if np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))):
                return True
        return False

    def _semi_convex_ray_test(self) -> bool:
        """Near every sampled boundary point, every nearby exterior probe
        must have at least one horizontal or vertical ray that escapes to
        infinity without re-intersecting the boundary."""
        v = self.vertices
        mids = 0.5 * (v + np.roll(v, -1, axis=0))
        samples = np.concatenate([v, mids])
        if len(samples) > 256:  # thin long boundaries to ~256 samples
            samples = samples[:: len(samples) // 256]
        eps = 64.0 * self.chord_tol + 1e-9 * self.diam
        offsets = np.array([
            (1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (1, -1), (-1, 1), (-1, -1),
        ], dtype=float)
        probes = (samples[:, None, :] + eps * offsets[None, :, :]).reshape(-1, 2)
        outside = self.contains(probes[:, 0], probes[:, 1]) == -1
        for sx, sy in probes[outside]:
            if all(self.project(sx, sy, d) is not None
                   for d in ("x+", "x-", "y+", "y-")):
                return False
        return True
