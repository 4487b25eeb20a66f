import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.errors import UnsupportedDomain
from monomap import geometry
from monomap.geometry import DomainKind, DomainSpec


class TestClassification:
    def test_rectangle(self):
        d = DomainSpec.rectangle(0.0, 2.0, -1.0, 1.0)
        assert d.classify() == DomainKind.RECTANGLE

    def test_convex_polygon(self):
        d = DomainSpec.polygon([(0, 0), (2, 0), (3, 1), (1, 3), (0, 1)])
        assert d.classify() == DomainKind.CONVEX

    def test_notched_polygon_is_semi_convex(self):
        # axis-aligned notch: exterior probes inside the notch escape upward
        pts = [(0, 0), (2, 0), (2, 2), (1.2, 2), (1.2, 0.8),
               (0.8, 0.8), (0.8, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        assert d.classify() == DomainKind.SEMI_CONVEX

    def test_keyhole_is_unsupported(self):
        # probes just below the keyhole's neck see the boundary along
        # every axis ray, so the exterior-ray test fails
        pts = [(0, 0), (3, 0), (3, 3), (1.6, 3), (1.6, 2), (2, 2), (2, 1),
               (1, 1), (1, 2), (1.4, 2), (1.4, 3), (0, 3)]
        d = DomainSpec.polygon(pts)
        assert d.classify() == DomainKind.UNSUPPORTED

    def test_self_intersecting_rejected(self):
        d = DomainSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(UnsupportedDomain):
            d.classify()

    @pytest.mark.parametrize("pts", [
        # passes twice through (9, 9); the triangle it closes there runs
        # clockwise
        [(10, 9), (9, 9), (10, 11), (10, 10), (9, 9), (7, 10), (6, 9),
         (9, 6)],
        # two triangles that meet where the vertex (2, 0) lies on the
        # bottom edge
        [(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)],
    ], ids=["repeated vertex", "vertex on an edge"])
    def test_boundary_through_one_point_twice_rejected(self, pts):
        d = DomainSpec.polygon(pts)
        with pytest.raises(UnsupportedDomain, match="self-intersecting"):
            d.classify()

    def test_collinear_edges_apart_pass(self):
        # the notch leaves two top edges on the line y = 2
        pts = [(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        assert d._self_contact() == 0
        assert d.classify() == DomainKind.SEMI_CONVEX

    def test_bowtie_keeps_its_own_message(self):
        # a bowtie's two lobes cancel: its signed area is 0 as well
        d = DomainSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(UnsupportedDomain, match="self-intersecting"):
            d.classify()

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (2, 0), (1, 0), (3, 0)],
    ])
    def test_zero_area_rejected(self, pts):
        # it has no interior from which to sample the extension's audit
        d = DomainSpec.polygon(pts)
        with pytest.raises(UnsupportedDomain, match="zero area"):
            d.classify()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_vertex_rejected(self, bad):
        with pytest.raises(UnsupportedDomain, match="not finite"):
            DomainSpec.polygon([(0, 0), (2, 0), (bad, 2), (0, 2)])

    def test_pentagon_from_family_is_convex(self):
        d = DomainSpec.polygon([(2, 0), (2, 2), (0.7, 2), (0, 0.7), (0, 0)])
        assert d.classify() == DomainKind.CONVEX


class TestContainment:
    def test_rectangle_inside_outside_boundary(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        assert int(d.contains(0.5, 0.5)) == 1
        assert int(d.contains(2.0, 0.5)) == -1
        assert int(d.contains(1.0, 0.5)) == 0

    def test_vectorized(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        xs = np.array([0.5, 2.0, 0.25])
        ys = np.array([0.5, 0.5, 0.75])
        out = d.contains(xs, ys)
        assert list(out) == [1, -1, 1]

    def test_polygon_interior(self):
        d = DomainSpec.polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert int(d.contains(2.0, 2.0)) == 1
        assert int(d.contains(-0.1, 2.0)) == -1

    def test_result_shape_follows_input(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        for x, y in [
            (0.5, 0.5),
            (np.float64(0.5), np.float64(0.5)),
            (np.array(0.5), np.array(0.5)),
        ]:
            out = d.contains(x, y)
            assert np.ndim(out) == 0
            assert int(out) == 1
        xs = np.array([0.5, 2.0, 1.0])
        out = d.contains(xs, np.array([0.5, 0.5, 0.5]))
        assert out.shape == (3,)
        assert list(out) == [1, -1, 0]
        # a scalar y broadcasts against a 1-D x
        assert list(d.contains(xs, 0.5)) == [1, -1, 0]


def _contains_broadcast(d, x, y, tol=None):
    """Reference for DomainSpec.contains: the even-odd crossings and the
    boundary band of every point against every edge, in points x edges
    arrays, with the float expressions contains uses per pair."""
    tol = d.chord_tol if tol is None else tol
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    )
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    v = d.vertices
    x0s, y0s = v[:, 0], v[:, 1]
    x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
    inside = np.zeros(x.shape, dtype=bool)
    on_edge = np.zeros(x.shape, dtype=bool)
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


def _star_polygon(rng):
    n = int(rng.integers(5, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.2, 2.0, n)
    return DomainSpec.polygon(np.column_stack(
        [radii * np.cos(angles), 0.7 * radii * np.sin(angles)]))


def _v_notch(rng, mirrored):
    """A rectangle with a V notch in its top side; mirrored in the
    diagonal, the notch moves to the right side."""
    x0, y0 = rng.uniform(0.5, 2.0, 2)
    w, h = rng.uniform(1.0, 3.0, 2)
    left, right = x0 + w * rng.uniform(0.1, 0.4), x0 + w * rng.uniform(0.6, 0.9)
    tip = (left + (right - left) * rng.uniform(0.2, 0.8),
           y0 + h * rng.uniform(0.3, 0.8))
    pts = np.array([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h),
                    (right, y0 + h), tip, (left, y0 + h), (x0, y0 + h)])
    return DomainSpec.polygon(pts[::-1, ::-1] if mirrored else pts)


def _ellipse_polygon(rng):
    n = int(rng.integers(5, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rx, ry = rng.uniform(0.5, 2.0, 2)
    rot = rng.uniform(0.0, np.pi)
    ex, ey = rx * np.cos(angles), ry * np.sin(angles)
    return DomainSpec.polygon(3.0 + np.column_stack(
        [ex * np.cos(rot) - ey * np.sin(rot),
         ex * np.sin(rot) + ey * np.cos(rot)]))


def _boundary_probes(d, tol, rng):
    """Points where a containment code can flip: the vertices, edge
    midpoints and random points on every edge, each also nudged along
    both axes and along the edge normal by +-tol, +-0.999 tol,
    +-1.001 tol and one ulp, plus a random cloud over the bounding box."""
    v = d.vertices
    w = np.roll(v, -1, axis=0)
    t = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 1.0, 3)])
    on = (v[None] + t[:, None, None] * (w - v)[None]).reshape(-1, 2)
    e = w - v
    normal = np.column_stack([e[:, 1], -e[:, 0]])
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    normal = np.tile(normal, (len(t), 1))
    pts = [on]
    for step in (tol, 0.999 * tol, 1.001 * tol):
        for sign in (1.0, -1.0):
            pts.append(on + sign * step * normal)
            pts.append(on + [sign * step, 0.0])
            pts.append(on + [0.0, sign * step])
    for direction in (-np.inf, np.inf):
        pts.append(np.column_stack([np.nextafter(on[:, 0], direction),
                                    on[:, 1]]))
        pts.append(np.column_stack([on[:, 0],
                                    np.nextafter(on[:, 1], direction)]))
    x0, x1, y0, y1 = d.bbox
    pad = 0.1 * d.diam
    pts.append(np.column_stack([rng.uniform(x0 - pad, x1 + pad, 400),
                                rng.uniform(y0 - pad, y1 + pad, 400)]))
    p = np.concatenate(pts)
    return p[:, 0], p[:, 1]


def _assert_same_codes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestContainsMatchesBroadcast:
    """DomainSpec.contains gives the codes, dtype and shape of the
    points x edges reference, bit for bit, on convex, notched and star
    polygons."""

    @staticmethod
    def _domains():
        rng = np.random.default_rng(20261018)
        ds = [DomainSpec.rectangle(0.0, 2.0, -1.0, 1.0),
              DomainSpec.polygon([(0, 0), (2, 0), (2, 2), (1.2, 2),
                                  (1.2, 0.8), (0.8, 0.8), (0.8, 2),
                                  (0, 2)])]
        for _ in range(4):
            ds += [_ellipse_polygon(rng), _v_notch(rng, False),
                   _v_notch(rng, True), _star_polygon(rng)]
        # far from the origin an ulp outweighs tol = 0; at 1e-150 the
        # squares of one-ulp offsets underflow to 0
        ds += [DomainSpec.polygon(_v_notch(rng, True).vertices + 1e6),
               DomainSpec.polygon(_star_polygon(rng).vertices * 1e-150)]
        return ds

    def test_boundary_and_nudged_points(self):
        rng = np.random.default_rng(5)
        for d in self._domains():
            for tol in (None, 0.0, 4 * d.chord_tol):
                x, y = _boundary_probes(
                    d, d.chord_tol if tol is None else tol, rng)
                want = _contains_broadcast(d, x, y, tol)
                assert set(want.tolist()) == {-1, 0, 1}
                _assert_same_codes(d.contains(x, y, tol), want)

    def test_input_shapes(self):
        rng = np.random.default_rng(6)
        for d in self._domains():
            x, y = _boundary_probes(d, d.chord_tol, rng)
            for a, b in [(x[0], y[0]), (float(x[1]), float(y[1])),
                         (np.array(x[2]), np.array(y[2])),
                         (x[:7], y[3]), (x[4], y[:9]),
                         # the (256, n) block of an orbit ensemble
                         (np.resize(x, (256, 5)), np.resize(y, (256, 5))),
                         (x[:40].reshape(8, 5), y[:5]),
                         (np.empty(0), np.empty(0)),
                         (np.empty((0, 3)), 1.0)]:
                for tol in (None, 0.0):
                    _assert_same_codes(d.contains(a, b, tol),
                                       _contains_broadcast(d, a, b, tol))

    def test_squared_distances_that_underflow(self):
        # 1e-163 off an edge its squared distance underflows to 0, so
        # even tol = 0 puts the point on the boundary; 1e-160 off, not
        d = DomainSpec.rectangle(0.0, 1e-155, 0.0, 1e-155)
        x = np.array([1e-155 + 1e-163, 1e-155 + 1e-160, 5e-156])
        y = np.full(3, 5e-156)
        want = _contains_broadcast(d, x, y, 0.0)
        assert want.tolist() == [0, -1, 1]
        _assert_same_codes(d.contains(x, y, 0.0), want)

    def test_non_finite_coordinates(self):
        special = np.array([np.nan, np.inf, -np.inf, 0.5, 1.0])
        x, y = np.meshgrid(special, special)
        for d in self._domains():
            for tol in (None, 0.0, 4 * d.chord_tol):
                with np.errstate(invalid="ignore"):
                    want = _contains_broadcast(d, x, y, tol)
                _assert_same_codes(d.contains(x, y, tol), want)


class TestMetrics:
    def test_bbox_and_diam(self):
        d = DomainSpec.polygon([(0, 0), (3, 0), (3, 4), (0, 4)])
        assert d.bbox == pytest.approx((0.0, 3.0, 0.0, 4.0))
        assert d.diam == pytest.approx(5.0)

    def test_chord_tol_scales_with_diameter(self):
        small = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        big = DomainSpec.rectangle(0.0, 100.0, 0.0, 100.0)
        assert big.chord_tol > small.chord_tol


def _project(d, x, y, direction):
    """Nearest boundary intersection of the axis ray from (x, y), one
    edge at a time: ``direction`` is one of 'x-', 'x+', 'y-', 'y+' ('x+'
    walks right).  An edge that crosses the ray's line at a signed
    distance >= -1e-14 ahead is hit.  None when the ray misses."""
    v = d.vertices
    if direction[0] == "y":  # mirror in the diagonal: y-rays become x-rays
        v, x, y = v[:, ::-1], y, x
    x0s, y0s = v[:, 0], v[:, 1]
    x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
    best = None
    for i in np.flatnonzero((y0s > y) != (y1s > y)):
        xi = x0s[i] + (y - y0s[i]) * (x1s[i] - x0s[i]) / (y1s[i] - y0s[i])
        ahead = xi - x if direction[1] == "+" else x - xi
        if ahead >= -1e-14 and (best is None or ahead < best[0]):
            best = (ahead, float(xi))
    if best is None:
        return None
    return (best[1], float(y)) if direction[0] == "x" else (float(y), best[1])


class TestProjection:
    """The axis-ray reference of the exterior-ray test."""

    def test_axis_ray_hits_nearest_boundary(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        px, py = _project(d, 2.0, 0.5, "x-")
        assert px == pytest.approx(1.0, abs=1e-9)
        assert py == pytest.approx(0.5, abs=1e-9)
        assert _project(d, 0.25, -1.0, "y+") == (0.25, 0.0)

    def test_axis_ray_misses(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        assert _project(d, 2.0, 0.5, "x+") is None
        assert _project(d, 0.25, -1.0, "y-") is None


class TestSlices:
    HEXAGON = [(-1.2, 0.0), (-0.9, -0.5), (0.9, -0.5), (1.2, 0.0),
               (0.9, 0.5), (-0.9, 0.5)]

    def test_horizontal_slices(self):
        # the hexagon cut at its vertex heights is two trapezoids, one
        # per band; their sides give the ends of the horizontal slices
        d = DomainSpec.polygon(self.HEXAGON)
        cuts, bands = d.trapezoids()
        assert list(cuts) == [-0.5, 0.0, 0.5]
        assert [b.shape for b in bands] == [(1, 2), (1, 2)]
        # heights past a band's ends clamp to them; the top is a flat edge
        (left, right), = bands[1]
        t = np.array([0.0, 0.25, 0.5, 2.0])
        assert d.edge_x(left, t) == pytest.approx([-1.2, -1.05, -0.9, -0.9])
        assert d.edge_x(right, t) == pytest.approx([1.2, 1.05, 0.9, 0.9])
        (left, right), = bands[0]
        assert d.edge_x(left, -0.5) == pytest.approx(-0.9)
        assert d.edge_x(right, -0.5) == pytest.approx(0.9)

    def test_notch_splits_the_bands_above_its_tip(self):
        # a V notch in the top side: one trapezoid below its tip, two
        # side by side above it
        d = DomainSpec.polygon([(0, 0), (2, 0), (2, 2), (1.6, 2),
                                (1.3, 0.9), (1.0, 2), (0, 2)])
        cuts, bands = d.trapezoids()
        assert list(cuts) == [0.0, 0.9, 2.0]
        assert [len(b) for b in bands] == [1, 2]
        sides = [float(d.edge_x(e, 1.5)) for e in bands[1].ravel()]
        assert sides == pytest.approx([0.0, 1.0 + 0.3 * 0.5 / 1.1,
                                       1.6 - 0.3 * 0.5 / 1.1, 2.0])
        (left, right), = bands[0]
        assert (d.edge_x(left, 0.5), d.edge_x(right, 0.5)) == (0.0, 2.0)

    def test_vertical_slices(self):
        d = DomainSpec.polygon(self.HEXAGON)
        lo, hi = d.slice_bounds(np.array([-1.2, -1.05, 0.0, 1.2]))
        assert lo == pytest.approx([0.0, -0.25, -0.5, 0.0])
        assert hi == pytest.approx([0.0, 0.25, 0.5, 0.0])

    def test_slab_extent_includes_vertices_inside_the_slab(self):
        diamond = DomainSpec.polygon([(0, -1), (1, 0), (0, 1), (-1, 0)])
        lo, hi = diamond.slab_extent(np.array([-0.5, 0.25, -1.0]),
                                     np.array([0.5, 0.75, -1.0]))
        assert lo == pytest.approx([-1.0, -0.75, 0.0])
        assert hi == pytest.approx([1.0, 0.75, 0.0])


def _ray_test_one_probe_at_a_time(d):
    """Reference for DomainSpec._semi_convex_ray_test: the same probes,
    located and ray-tested one at a time."""
    v = d.vertices
    samples = np.concatenate([v, 0.5 * (v + np.roll(v, -1, axis=0))])
    if len(samples) > 256:
        samples = samples[:: len(samples) // 256]
    eps = 64.0 * d.chord_tol + 1e-9 * d.diam
    for px, py in samples:
        for ox, oy in [(1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)]:
            sx, sy = px + ox * eps, py + oy * eps
            if int(d.contains(sx, sy)) != -1:
                continue
            if all(_project(d, sx, sy, k) is not None
                   for k in ("x+", "x-", "y+", "y-")):
                return False
    return True


# a U-notch in the top side whose floor is wider than its mouth: just
# above the floor's ends every axis ray meets the boundary
_UNDERCUT_U_NOTCH = [(0, 0), (2, 0), (2, 2), (1.2, 2), (1.5, 1), (0.5, 1),
                     (0.8, 2), (0, 2)]


def test_ray_test_matches_one_probe_at_a_time():
    rng = np.random.default_rng(4)
    seen = set()
    # random star-shaped polygons (simple, often not convex) and V-notched
    # rectangles, the notch in the top side or, mirrored, the right side
    domains = [_star_polygon(rng) for _ in range(40)]
    domains += [_v_notch(rng, mirrored) for mirrored in (False, True) * 6]
    for d in domains:
        want = _ray_test_one_probe_at_a_time(d)
        assert d._semi_convex_ray_test() == want
        seen.add(want)
    assert seen == {True, False}
    for pts in (_UNDERCUT_U_NOTCH, np.array(_UNDERCUT_U_NOTCH)[::-1, ::-1]):
        d = DomainSpec.polygon(pts)
        assert not _ray_test_one_probe_at_a_time(d)
        assert d.classify() == DomainKind.UNSUPPORTED


def _self_contact_pairwise(d):
    """Reference for DomainSpec._self_contact over every pair of edges
    that are not neighbours on the ring, one pair at a time: 2 if a pair
    crosses properly, else 1 if an end of one edge lies on the other,
    else 0."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        return (orient(a, b, c) == 0
                and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    p = d.vertices
    q = np.roll(p, -1, axis=0)
    n = len(p)
    contact = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            d1 = orient(p[j], q[j], p[i])
            d2 = orient(p[j], q[j], q[i])
            d3 = orient(p[i], q[i], p[j])
            d4 = orient(p[i], q[i], q[j])
            if d1 * d2 < 0 and d3 * d4 < 0:
                return 2
            if (on_segment(p[j], q[j], p[i]) or on_segment(p[j], q[j], q[i])
                    or on_segment(p[i], q[i], p[j])
                    or on_segment(p[i], q[i], q[j])):
                contact = 1
    return contact


def test_self_intersection_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for k in range(120):
        n = int(rng.integers(3, 25))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.2, 2.0, n)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        if k % 3 == 1:
            pts = pts[rng.permutation(n)]  # mostly self-intersecting
        elif k % 3 == 2:
            # small integer grid: collinear and touching edges, exact zeros
            pts = rng.integers(0, 4, (n, 2)).astype(float)
        try:
            d = DomainSpec.polygon(pts)
        except UnsupportedDomain:
            continue
        want = _self_contact_pairwise(d)
        assert d._self_contact() == want
        seen.add(want)
    assert seen == {0, 1, 2}


def _self_contact_loop(d):
    """The per-edge loop DomainSpec._self_contact ran before its one
    array pass: edge i against the later edges not adjacent to it, the
    same four orientation tests and bounding-box test, 2 at the first
    crossing."""
    v = d.vertices
    n = len(v)
    q = np.roll(v, -1, axis=0)
    ax, ay, bx, by = v[:, 0], v[:, 1], q[:, 0], q[:, 1]
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
    touch = False
    for i in range(n - 2):
        j = slice(i + 2, n - 1 if i == 0 else n)
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


def _seeded_ring(rng, n, kind):
    """A ring of n vertices: a star polygon (mostly simple), its vertices
    in a random order (mostly crossing), or on a 4 x 4 integer grid
    (exact zeros: touching and collinear edges)."""
    if kind == "grid":
        return rng.integers(0, 4, (n, 2)).astype(float)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.2, 2.0, n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return pts[rng.permutation(n)] if kind == "shuffled" else pts


class TestSelfContactMatchesTheLoop:
    @pytest.mark.parametrize("kind", ["star", "shuffled", "grid"])
    @pytest.mark.parametrize("block", [1 << 16, 7])
    def test_seeded_rings(self, monkeypatch, kind, block):
        # block 7 takes most rings in several blocks of edges
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(3)
        seen = set()
        for n in range(3, 41):
            for _ in range(4):
                try:
                    d = DomainSpec.polygon(_seeded_ring(rng, n, kind))
                except UnsupportedDomain:
                    continue
                want = _self_contact_loop(d)
                assert d._self_contact() == want, (n, d.vertices.tolist())
                seen.add(want)
        # each kind reaches the outcome it is drawn for
        assert {"star": 0, "shuffled": 2, "grid": 1}[kind] in seen

    @pytest.mark.parametrize("pts,want", [
        ([(0, 0), (1, 1), (1, 0), (0, 1)], 2),
        ([(10, 9), (9, 9), (10, 11), (10, 10), (9, 9), (7, 10), (6, 9),
          (9, 6)], 1),
        ([(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)], 1),
        ([(0, 0), (3, 0), (3, 1), (2, 0), (1, 0), (0, 1)], 1),
        ([(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)],
         0),
    ], ids=["bow-tie", "repeated vertex", "vertex on an edge",
            "collinear overlap", "collinear apart"])
    @pytest.mark.parametrize("block", [1 << 16, 1])
    def test_contacts(self, monkeypatch, pts, want, block):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        d = DomainSpec.polygon(pts)
        assert _self_contact_loop(d) == want
        assert d._self_contact() == want


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 12),
    seed=st.integers(0, 10_000),
)
def test_random_convex_polygons_classify_convex(n, seed):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    if np.min(np.diff(angles)) < 1e-3:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    radii = rng.uniform(0.5, 2.0)
    pts = [(radii * np.cos(a), 0.7 * radii * np.sin(a)) for a in angles]
    d = DomainSpec.polygon(pts)
    assert d.classify() in (DomainKind.CONVEX, DomainKind.RECTANGLE)
    cx = float(np.mean([p[0] for p in pts]))
    cy = float(np.mean([p[1] for p in pts]))
    assert int(d.contains(cx, cy)) >= 0


def test_shifted_is_np_roll():
    # the ring shift the geometry and the extension use in place of
    # np.roll gives its values, for row arrays and flat ones
    from monomap.geometry import _shifted

    rng = np.random.default_rng(7)
    for a in (rng.uniform(-1.0, 1.0, (5, 2)), rng.uniform(-1.0, 1.0, 6)):
        for k in range(-len(a), len(a) + 1):
            want = np.roll(a, -k, axis=0)
            assert _shifted(a, k).tobytes() == want.tobytes()
            assert _shifted(a, k).shape == want.shape
