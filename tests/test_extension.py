import gc
import json
import weakref

import numpy as np
import pytest
from conftest import base_oracle, engine_base_oracle
from test_stability import _notched_square_case

from monomap.cli import main
from monomap.errors import (
    NonMonotoneInducedEdge,
    OutsideRect,
    SectorOrderViolation,
    UnsupportedDomain,
)
from monomap.examples import make_eq8
from monomap.extension import (
    RULE_GRAFT,
    RULE_RAY_XMINUS,
    RULE_RAY_YPLUS,
    ExtendedMap,
    _Interp,
    _Z_BASE,
    _flat_runs,
    _rect_poly,
    audit_extension,
    extend,
    extend_rectangle,
)
from monomap.geometry import (DomainKind, DomainSpec, EdgeTable,
                              _signed_area)
from monomap.map_model import (
    Box,
    DEC_INC,
    INC_DEC,
    Direction,
    MapSpec,
    MonotoneSignature,
    check_monotonicity,
)
from monomap.report import dumps_json


def _random_convex_case(rng):
    """A convex polygon with vertices on a random ellipse and a rational
    map of either mixed signature, as in acceptance criterion 4."""
    n = int(rng.integers(5, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    while np.min(np.diff(np.append(angles, angles[0] + 2 * np.pi))) < 0.1:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rx, ry = rng.uniform(0.5, 2.0, 2)
    rot = rng.uniform(0.0, np.pi)
    centre = rng.uniform(2.5, 4.0, 2)
    ex, ey = rx * np.cos(angles), ry * np.sin(angles)
    pts = centre + np.column_stack([ex * np.cos(rot) - ey * np.sin(rot),
                                    ex * np.sin(rot) + ey * np.cos(rot)])
    domain = DomainSpec.polygon(pts)
    q = rng.uniform(0.2, 2.0)
    p, r = q * rng.uniform(0.1, 1.0), rng.uniform(0.2, 2.0)
    if rng.integers(0, 2):
        func, sig = (lambda x, y: (p + q * y) / (1.0 + y + r * x)), DEC_INC
    else:
        func, sig = (lambda x, y: (p + q * x) / (1.0 + x + r * y)), INC_DEC
    return MapSpec(func, sig, Box(*domain.bbox)), domain


# a flat bottom edge whose left end is the leftmost vertex, in the
# engine's frame (dec_inc) and, mirrored, in the swapped one (inc_dec)
_FLAT_BOTTOM_CASES = [
    (lambda x, y: (1.0 + y) / (1.0 + x), DEC_INC, [(0, 0), (1, 0), (1, 1)]),
    (lambda x, y: (1.0 + y) / (1.0 + x), DEC_INC,
     [(0, 0), (1, 0), (1.2, 1), (0.4, 1.2)]),
    (lambda x, y: (1.0 + x) / (1.0 + y), INC_DEC, [(0, 0), (1, 1), (0, 1)]),
    (lambda x, y: y - x * x, DEC_INC, [(0, 0), (1, 0), (1, 1)]),
]


def _flat_bottom_case(k):
    func, sig, verts = _FLAT_BOTTOM_CASES[k]
    domain = DomainSpec.polygon(verts)
    return MapSpec(func, sig, Box(*domain.bbox)), domain


_INC_DEC_MAP = lambda x, y: (1.0 + x) / (1.0 + x + y)  # noqa: E731
_DEC_INC_MAP = lambda x, y: (1.0 + y) / (1.0 + y + x)  # noqa: E731
_L_SHAPES = ([(0, 0), (3, 0), (3, 1), (2, 1), (2, 3), (0, 3)],
             [(1, 0), (3, 0), (3, 3), (0, 3), (0, 1), (1, 1)])
# L-shapes in both signatures, whose ray chains have flats (the NE flat
# graft terms, a SW graft piece); an intrusion whose chord top lands
# inside an edge, at y = 1.45; and the first L-shape with a collinear
# vertex, which makes a NE flat run over two edges
_SHAPE_CASES = [(f, sig, verts) for verts in _L_SHAPES
                for f, sig in ((_INC_DEC_MAP, INC_DEC), (_DEC_INC_MAP, DEC_INC))]
_SHAPE_CASES += [
    (_DEC_INC_MAP, DEC_INC,
     [(0, 0), (1, 0), (1.8, 0.5), (1.2, 1.0), (2, 1.6), (2, 3), (0, 3)]),
    (_INC_DEC_MAP, INC_DEC,
     [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (2, 3), (0, 3)]),
]


def _shape_cases():
    for func, sig, verts in _SHAPE_CASES:
        domain = DomainSpec.polygon(verts)
        yield MapSpec(func, sig, Box(*domain.bbox)), domain


def _comb(teeth):
    """A square whose right side holds ``teeth`` V-shaped intrusions."""
    h = 4.0 / teeth
    side = [p for i in range(teeth)
            for p in ((4.0, (i + 0.2) * h), (3.8, (i + 0.5) * h))]
    return [(0, 0), (4, 0)] + side + [(4, 4), (0, 4)]


# semi-convex domains the zone engine rejects, in the engine's frame, by
# the message of the check that stops it
_REJECTED = [
    ([(0, 0), (4, 0), (4, 1), (3, 1.2), (3.5, 1.4), (2.5, 1.6), (4, 2),
      (4, 4), (0, 4)], "nested boundary intrusions"),
    (_comb(33), "too many boundary intrusions"),
    # the intrusion's lower arc dips by 1e-8, below the scale of the
    # classifier's probes
    ([(0, 0), (4, 0), (4, 1), (3.5, 1.3), (3, 1.3 - 1e-8), (4, 2), (4, 4),
      (0, 4)], "boundary intrusion is not monotone in y"),
]


class TestRectangleExtension:
    def test_is_the_base_map(self, eq7_ext):
        spec = eq7_ext.base
        for x, y in [(0.2, 0.8), (0.0, 0.0), (1.0, 1.0)]:
            assert eq7_ext.eval(x, y) == pytest.approx(
                float(spec(x, y)), abs=1e-14
            )

    def test_outside_rect_raises(self, eq7_ext):
        with pytest.raises(OutsideRect):
            eq7_ext.eval(2.0, 0.5)

    def test_audit_passes(self, eq7_ext):
        audit = audit_extension(eq7_ext, rng=np.random.default_rng(0))
        assert audit.all_ok


class TestConvexExtension:
    def test_agrees_with_base_inside(self, eq8_ext, rng):
        spec = eq8_ext.base
        domain = eq8_ext.domain
        x0, x1, y0, y1 = domain.bbox
        n = 0
        while n < 300:
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
            if int(domain.contains(x, y)) != 1:
                continue
            n += 1
            assert eq8_ext.eval(x, y) == pytest.approx(
                float(spec(x, y)), abs=1e-12
            )

    def test_outside_value_pins_to_boundary(self, eq8_ext):
        # the point (0.1, b) lies left of the pentagon; its value is the
        # base map at the horizontal boundary hit with the same y
        got = eq8_ext.eval(0.1, 6.2)
        assert got == pytest.approx(0.0011093502377179099, abs=1e-15)

    def test_range_stays_within_base_range(self, eq8_ext, rng):
        lo, hi = eq8_ext.base_range
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = rng.uniform(x0, x1, 2000)
        ys = rng.uniform(y0, y1, 2000)
        vals = np.array([eq8_ext.eval(x, y) for x, y in zip(xs, ys)])
        assert vals.min() >= lo - 1e-9 * (hi - lo + 1.0)
        assert vals.max() <= hi + 1e-9 * (hi - lo + 1.0)

    def test_audit_passes(self, eq8_ext):
        audit = audit_extension(eq8_ext, rng=np.random.default_rng(0))
        assert audit.all_ok
        assert audit.n_monotone_violations == 0
        assert audit.max_disagreement <= 1e-12

    def test_monotone_along_axes(self, eq8_ext):
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = np.linspace(x0, x1, 80)
        for y in np.linspace(y0, y1, 9):
            vals = [eq8_ext.eval(x, y) for x in xs]
            assert np.all(np.diff(vals) >= -1e-9)
        ys = np.linspace(y0, y1, 80)
        for x in np.linspace(x0, x1, 9):
            vals = [eq8_ext.eval(x, y) for y in ys]
            assert np.all(np.diff(vals) <= 1e-9)


class TestFlatBottom:
    """On a flat bottom edge that starts at the leftmost vertex the left
    wall sits at that vertex, so the edge lies in the base zone."""

    @pytest.mark.parametrize("k", range(len(_FLAT_BOTTOM_CASES)))
    def test_extension_is_f_on_the_boundary_and_audits(self, k):
        spec, domain = _flat_bottom_case(k)
        ext = extend(spec, domain)
        audit = audit_extension(ext, rng=np.random.default_rng(k))
        assert audit.all_ok and audit.n_monotone_violations == 0
        v = domain.vertices
        t = np.linspace(0.0, 1.0, 41)[:, None, None]
        edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
        lo, hi = ext.base_range
        np.testing.assert_allclose(
            ext.eval(edge[:, 0], edge[:, 1]), spec(edge[:, 0], edge[:, 1]),
            rtol=0, atol=1e-14 * max(1.0, hi - lo))


# y - x^2 (dec_inc) peaks at 0.25 inside the edge from (0, 0) to (1, 1)
_EDGE_PEAK_DOMAINS = [
    [(0, 0), (1, 0.02), (1, 1)],
    [(0, 0), (0.6, -0.5), (1, 1)],
    [(0, 0), (1, -0.3), (1.1, 0.5), (1, 1)],
]


class TestBaseRange:
    """``base_range`` is F's range on the domain, read off the SE and NW
    boundary tables."""

    @pytest.mark.parametrize("verts", _EDGE_PEAK_DOMAINS)
    def test_maximum_inside_an_edge(self, verts):
        domain = DomainSpec.polygon(verts)
        spec = MapSpec(lambda x, y: y - x * x, DEC_INC, Box(*domain.bbox))
        ext = extend(spec, domain)
        audit = audit_extension(ext, rng=np.random.default_rng(0))
        assert ext.base_range[1] == 0.25
        assert audit.range_inflation == 0.0
        assert audit.nice_ok and audit.all_ok

    def test_extend_command_passes_the_audit(self, tmp_path):
        verts = ";".join(f"{x},{y}" for x, y in _EDGE_PEAK_DOMAINS[0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[map]\nfamily = expression\nexpr = y - x*x\n"
                       "signature = dec_inc\n\n[domain]\nkind = polygon\n"
                       f"vertices = {verts}\n")
        assert main(["extend", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        audit = json.loads((tmp_path / "extension_audit.json").read_text())
        assert audit["nice_ok"] and audit["range_inflation"] == 0.0

    def test_seeded_ranges_hold_f_on_the_boundary(self):
        # F at every vertex, sector arcs included, and at 2,000 points on
        # every edge lies in the range to within 1e-12 of its spread
        rng = np.random.default_rng(20261019)
        cases = [_random_convex_case(rng) for _ in range(100)]
        cases += [_notched_square_case(rng, k) for k in range(100)]
        t = np.linspace(0.0, 1.0, 2000)[:, None, None]
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            lo, hi = ext.base_range
            v = domain.vertices
            edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
            f = spec(edge[:, 0], edge[:, 1])
            slack = 1e-12 * (hi - lo)
            assert lo - slack <= f.min() and f.max() <= hi + slack, k
            seen.add((spec.signature, len(ext.engine.sectors) > 0))
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}


class TestSwappedSignature:
    def test_dec_inc_map_extends_in_native_frame(self):
        func = lambda x, y: (1.0 + y) / (1.0 + x + y)
        spec = MapSpec(func, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        d = DomainSpec.polygon([(0, 0), (1, 0), (1, 0.7), (0.4, 1), (0, 1)])
        ext = extend(spec, d)
        assert not ext.swapped
        assert ext.eval(0.2, 0.3) == pytest.approx(
            func(0.2, 0.3), abs=1e-12
        )
        audit = audit_extension(ext, rng=np.random.default_rng(1))
        assert audit.all_ok

    def test_inc_dec_map_extends_via_coordinate_swap(self, eq8_ext):
        assert eq8_ext.swapped


class TestSemiConvex:
    def test_bitten_domain_extends_and_audits(self):
        pts = [(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        ext = extend(spec, d)
        audit = audit_extension(ext, rng=np.random.default_rng(2))
        assert audit.all_ok

    def test_wedge_domain_extends_and_audits(self):
        d = DomainSpec.polygon([(0, 0), (1, 0), (0.2, 0.2), (0, 1)])
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend(spec, d)
        audit = audit_extension(ext, rng=np.random.default_rng(6))
        assert audit.all_ok

    @pytest.mark.parametrize("k", range(len(_SHAPE_CASES)))
    def test_flat_and_mid_edge_chord_shapes_audit(self, k):
        spec, domain = list(_shape_cases())[k]
        assert domain.classify() == DomainKind.SEMI_CONVEX
        ext = extend(spec, domain)
        assert audit_extension(ext, rng=np.random.default_rng(k)).all_ok

    def test_flat_runs(self):
        # a stays within g while b falls: a run over knots 1 to 3 and one
        # from 4 to 6, which goes on while b falls by less than g
        a = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
        b = np.array([5.0, 4.0, 3.0, 2.0, 2.0, 1.0, 1.0 - 1e-12, 1.0])
        assert _flat_runs(a, b, 1e-9) == [(1, 3), (4, 6)]
        # b rising, or a moving by more than g, starts no run
        assert _flat_runs(a, -b, 1e-9) == []
        assert _flat_runs(a + np.arange(8.0), b, 1e-9) == []

    def test_unsupported_boundary_chain_rejected(self):
        # the bite faces sideways, so a boundary chain loses monotonicity
        pts = [(0, 0), (2, 0), (2, 0.6), (1.3, 1.0), (2, 1.4), (2, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        with pytest.raises(UnsupportedDomain):
            extend(spec, d)

    @pytest.mark.parametrize("verts, message", _REJECTED,
                             ids=[m for _, m in _REJECTED])
    def test_semi_convex_domains_the_zone_engine_rejects(self, verts,
                                                         message):
        d = DomainSpec.polygon(verts)
        assert d.classify() == DomainKind.SEMI_CONVEX
        spec = MapSpec(_DEC_INC_MAP, DEC_INC, Box(*d.bbox))
        with pytest.raises(UnsupportedDomain, match=f"^{message}$"):
            extend(spec, d)

    def test_u_notch_rejected_by_sector_fill(self):
        # a deep axis-aligned notch classifies semi-convex, but the
        # boundary values along its sector arc are not monotone
        pts = [(0, 0), (2, 0), (2, 2), (1.2, 2), (1.2, 0.8),
               (0.8, 0.8), (0.8, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        with pytest.raises(NonMonotoneInducedEdge):
            extend(spec, d)


class TestSerialization:
    def test_round_trip_is_exact(self, eq8_ext, rng):
        data = eq8_ext.to_dict()
        loaded = ExtendedMap.from_dict(data, eq8_ext.base)
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = rng.uniform(x0, x1, 500)
        ys = rng.uniform(y0, y1, 500)
        for x, y in zip(xs, ys):
            assert loaded.eval(x, y) == eq8_ext.eval(x, y)

    def test_loaded_extension_audits(self, eq8_ext):
        loaded = ExtendedMap.from_dict(eq8_ext.to_dict(), eq8_ext.base)
        np.testing.assert_array_equal(loaded.domain.vertices,
                                      eq8_ext.domain.vertices)
        assert loaded.domain.chord_tol == eq8_ext.domain.chord_tol
        audit = audit_extension(loaded, rng=np.random.default_rng(3))
        assert audit.all_ok
        assert audit.to_dict() == audit_extension(
            eq8_ext, rng=np.random.default_rng(3)).to_dict()

    def test_loaded_extension_audit_catches_corrupted_values(self, eq8_ext):
        # raise the boundary values the north-west zone takes its maximum
        # over and lower those the south-east zone takes its minimum over
        data = json.loads(dumps_json(eq8_ext.to_dict()))
        tables = data["engine"]["tables"]
        tables["nw"]["fs"] = [v + 1.0 for v in tables["nw"]["fs"]]
        tables["se"]["fs"] = [v - 1.0 for v in tables["se"]["fs"]]
        loaded = ExtendedMap.from_dict(data, eq8_ext.base)
        audit = audit_extension(loaded, rng=np.random.default_rng(3))
        assert not audit.nice_ok
        assert audit.range_inflation == pytest.approx(1.0)

    @pytest.mark.parametrize("side", range(4))
    def test_rectangle_must_be_the_domain_bounding_box(self, eq8_ext, side):
        # extend only builds the bounding box; a stored rectangle grown
        # on any side is refused, not evaluated
        data = json.loads(dumps_json(eq8_ext.to_dict()))
        data["rect"][side] += 0.5 if side % 2 else -0.5
        with pytest.raises(ValueError, match="bounding box"):
            ExtendedMap.from_dict(data, eq8_ext.base)

    def test_loaded_rectangle_has_no_domain(self, eq7_ext):
        loaded = ExtendedMap.from_dict(eq7_ext.to_dict(), eq7_ext.base)
        assert loaded.domain is None and loaded.engine is None

    def test_seeded_round_trips_are_bitwise(self):
        # the loaded engine rebuilds its walls and pieces from the stored
        # tables and sectors; both must match the built ones exactly
        rng = np.random.default_rng(20261018)
        cases = [_random_convex_case(rng) for _ in range(12)]
        cases += [_notched_square_case(rng, k) for k in range(24)]
        cases += _shape_cases()
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            d = json.loads(dumps_json(ext.to_dict()))
            loaded = ExtendedMap.from_dict(d, spec)
            assert json.loads(dumps_json(loaded.to_dict())) == d, k
            x0, x1, y0, y1 = ext.rect.as_tuple()
            X, Y = np.meshgrid(np.linspace(x0, x1, 151),
                               np.linspace(y0, y1, 151), indexing="ij")
            v = domain.vertices
            t = np.linspace(0.0, 1.0, 41)[:, None, None]
            edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
            x = np.concatenate([X.ravel(), edge[:, 0]])
            y = np.concatenate([Y.ravel(), edge[:, 1]])
            np.testing.assert_array_equal(loaded.eval(x, y), ext.eval(x, y),
                                          err_msg=str(k))
            seen.add((spec.signature, len(ext.engine.sectors) > 0))
        # convex and notched cases of both signatures took part
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}

    def test_schema_version_present(self, eq8_ext):
        assert "schema_version" in eq8_ext.to_dict()


def _zone_probe_points(engine, rng):
    """Canonical-frame points around an engine: a seeded grid over its
    rectangle, the wall knots and the boundary vertices, and points one
    ulp either side of each wall, at its knots and between them."""
    r = engine.rect
    gx = rng.uniform(r.x0, r.x1, 400)
    gy = rng.uniform(r.y0, r.y1, 400)
    X, Y = np.meshgrid(np.linspace(r.x0, r.x1, 61), np.linspace(r.y0, r.y1, 61))
    xs = [gx, X.ravel(), engine.omega[:, 0]]
    ys = [gy, Y.ravel(), engine.omega[:, 1]]
    for kx, ky in ((engine.wall_left_x, engine.wall_left_y),
                   (engine.wall_right_x, engine.wall_right_y)):
        mid_y = 0.5 * (ky[:-1] + ky[1:])
        wall_y = np.concatenate([ky, mid_y])
        wall_x = np.concatenate([kx, np.interp(mid_y, ky, kx)])
        for x in (wall_x, np.nextafter(wall_x, -np.inf),
                  np.nextafter(wall_x, np.inf)):
            xs.append(x)
            ys.append(wall_y)
        for y in (np.nextafter(ky, -np.inf), np.nextafter(ky, np.inf)):
            xs.append(kx)
            ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _knot_probe_points(engine):
    """Canonical-frame points at the exact height of every wall knot:
    at each knot's own abscissa (every one of tied knots) and at both
    walls' abscissae there, each also one ulp either side; and points on
    the ends of every sector's x span and one ulp either side, at every
    knot height and across the rectangle."""
    r = engine.rect
    ky = np.concatenate([engine.wall_left_y, engine.wall_right_y])
    kx = np.concatenate([engine.wall_left_x, engine.wall_right_x])
    x = np.concatenate([kx, *engine._walls(ky)])
    y = np.tile(ky, 3)
    xs = [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    ys = [y, y, y]
    heights = np.concatenate([ky, np.linspace(r.y0, r.y1, 41)])
    for end in np.ravel(engine._sector_spans):
        for e in (np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)):
            xs.append(np.full(heights.shape, e))
            ys.append(heights)
    return np.concatenate(xs), np.concatenate(ys)


def _one_point_boxes(engine, x, y, msg):
    """Assert that box_is_base on the one-point box at each point is the
    oracle's answer, classify's base zone outside every sector's x span;
    return classify's base-zone answers and box_is_base's."""
    got = np.array([engine.box_is_base(a, a, b, b)
                    for a, b in zip(x.tolist(), y.tolist())])
    np.testing.assert_array_equal(got, engine_base_oracle(engine, x, y),
                                  err_msg=msg)
    return engine.classify(x, y) == _Z_BASE, got


class TestOnePointZoneTest:
    """_Engine.box_is_base on a one-point box answers classify's
    base-zone question for that point; in a sector's x range it answers
    False and leaves the point to eval."""

    def test_matches_classify(self):
        rng = np.random.default_rng(20261019)
        cases = [_random_convex_case(rng) for _ in range(8)]
        cases += [_notched_square_case(rng, k) for k in range(16)]
        cases += [_flat_bottom_case(k) for k in range(len(_FLAT_BOTTOM_CASES))]
        cases += _shape_cases()
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                x, y = _zone_probe_points(engine, rng)
                want, got = _one_point_boxes(engine, x, y, str(k))
                assert want.any() and (~want).any()
                # eval sends a batch that classify puts wholly in the base
                # zone to F in one call; the points box_is_base accepts
                # make such a batch
                bx, by = x[got], y[got]
                assert not engine.classify(bx, by).any()
                np.testing.assert_array_equal(engine.eval(bx, by),
                                              engine.func(bx, by))
            # the map asks its engine in the engine's frame (every fourth
            # probe point, as each costs a call)
            x, y = (y, x) if ext.swapped else (x, y)
            x, y = x[::4], y[::4]
            np.testing.assert_array_equal(
                [ext.box_is_base(a, a, b, b)
                 for a, b in zip(x.tolist(), y.tolist())],
                base_oracle(ext, x, y), err_msg=str(k))
            seen.add((spec.signature, len(ext.engine.sectors) > 0))
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}

    def test_at_wall_knots_and_sector_span_ends(self):
        # the wall rows must pick classify's row where y is a knot, tied
        # knots included (a flat bottom ties the right wall's first
        # knots), and leave every point of a span's closed ends to eval
        rng = np.random.default_rng(20261020)
        cases = [_flat_bottom_case(k) for k in range(len(_FLAT_BOTTOM_CASES))]
        cases += [_notched_square_case(rng, k) for k in range(12)]
        tied = spans = both = 0
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                x, y = _knot_probe_points(engine)
                want, got = _one_point_boxes(engine, x, y, str(k))
                both += got.any() and (want & ~got).any()
            tied += any(np.any(np.diff(w) == 0) for w in
                        (engine.wall_left_y, engine.wall_right_y))
            spans += len(engine._sector_spans) > 0
        assert tied >= len(_FLAT_BOTTOM_CASES) and spans and both

    def test_extended_map_swaps_and_checks_the_rectangle(self, eq8_ext, rng):
        # where a one-point box holds, eval is F itself, bit for bit; a
        # point off the rectangle, which eval clamps, is never base
        r = eq8_ext.rect
        x = rng.uniform(r.x0, r.x1, 3000)
        y = rng.uniform(r.y0, r.y1, 3000)
        base = np.array([eq8_ext.box_is_base(a, a, b, b)
                         for a, b in zip(x.tolist(), y.tolist())])
        assert 0.2 < base.mean() < 1.0
        np.testing.assert_array_equal(base, base_oracle(eq8_ext, x, y))
        np.testing.assert_array_equal(eq8_ext.eval(x[base], y[base]),
                                      eq8_ext.base(x[base], y[base]))
        assert not base[~np.asarray(eq8_ext.domain.contains(x, y) >= 0)].any()
        pad = 1e-12 * r.diam
        for a, b in ((r.x0 - pad, 0.5), (0.5, r.y1 + pad)):
            assert not eq8_ext.box_is_base(a, a, b, b)
            assert not base_oracle(eq8_ext, a, b)

    def test_rectangle_extension_is_base_on_its_box(self, eq7_ext):
        for a, b in ((0.0, 1.0), (0.3, 0.6)):
            assert eq7_ext.box_is_base(a, a, b, b) and base_oracle(eq7_ext, a, b)
        for a, b in ((np.nextafter(1.0, 2.0), 0.5), (0.5, np.nan)):
            assert not eq7_ext.box_is_base(a, a, b, b)
            assert not base_oracle(eq7_ext, a, b)


def _seeded_boxes(rect, rng, n):
    """n boxes in and around ``rect``: a seeded centre in it, half-widths
    from 1e-7 to 1/2 of its diameter, every fourth box flat in x or y
    (a segment or a point), and each clipped to the rectangle except
    where a side lands 1e-12 of the diameter outside it."""
    cx, cy = rng.uniform(rect.x0, rect.x1, n), rng.uniform(rect.y0, rect.y1, n)
    hx, hy = rect.diam * 10.0 ** rng.uniform(-7, np.log10(0.5), (2, n))
    flat = rng.integers(0, 4, n)
    hx[flat == 1] = 0.0
    hy[flat == 2] = 0.0
    pad = np.where(rng.random(n) < 0.1, 1e-12 * rect.diam, 0.0)
    return np.column_stack([
        np.maximum(cx - hx, rect.x0 - pad), np.minimum(cx + hx, rect.x1),
        np.maximum(cy - hy, rect.y0), np.minimum(cy + hy, rect.y1 + pad),
    ]).tolist()


class TestBoxIsBase:
    """ExtendedMap.box_is_base holds only on boxes where the base oracle
    holds everywhere: checked at the box's corners, at both ends of the
    box's side across it at every wall knot inside it, and at 100
    seeded points; and it fails whenever a corner is not base."""

    def test_oracle_on_seeded_boxes(self):
        rng = np.random.default_rng(20261021)
        cases = [_random_convex_case(rng) for _ in range(6)]
        cases += [_notched_square_case(rng, k) for k in range(8)]
        cases += [_flat_bottom_case(k) for k in range(len(_FLAT_BOTTOM_CASES))]
        cases += _shape_cases()
        held = failed = knotted = corner_base_failed = 0
        kinds = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            # the engine's wall knots, which are heights in its frame:
            # abscissae in the caller's frame when it is swapped
            knots = ext.engine._walls.knots.tolist()
            inner = rng.random((100, 2))
            boxes = _seeded_boxes(ext.rect, rng, 300)
            # boxes around base points, most of which hold
            px = rng.uniform(ext.rect.x0, ext.rect.x1, 400)
            py = rng.uniform(ext.rect.y0, ext.rect.y1, 400)
            base = base_oracle(ext, px, py)
            base_pts = list(zip(px[base].tolist(), py[base].tolist()))[:100]
            for (a, b), h in zip(base_pts, 10.0 ** rng.uniform(-6, -1, 100)):
                h *= ext.rect.diam
                boxes.append([a - h, a + h, b - h, b + h])
            for x0, x1, y0, y1 in boxes:
                got = ext.box_is_base(x0, x1, y0, y1)
                corners = base_oracle(ext, [x0, x0, x1, x1],
                                      [y0, y1, y0, y1]).all()
                if not corners:
                    assert not got, (k, x0, x1, y0, y1)
                    failed += 1
                    continue
                if not got:
                    corner_base_failed += 1
                    continue
                held += 1
                if ext.swapped:
                    across = [(q, b) for q in knots if x0 <= q <= x1
                              for b in (y0, y1)]
                else:
                    across = [(a, q) for q in knots if y0 <= q <= y1
                              for a in (x0, x1)]
                knotted += bool(across)
                pts = np.concatenate([
                    np.reshape(across, (-1, 2)),
                    np.column_stack([x0 + inner[:, 0] * (x1 - x0),
                                     y0 + inner[:, 1] * (y1 - y0)])])
                ok = base_oracle(ext, pts[:, 0], pts[:, 1])
                assert ok.all(), (k, x0, x1, y0, y1, pts[~ok][0])
            kinds.add((ext.swapped, len(ext.engine.sectors) > 0))
        assert kinds == {(s, n) for s in (False, True) for n in (False, True)}
        assert held > 500 and failed > 500 and knotted > 20
        # a box can fail with four base corners: one over a sector span
        assert corner_base_failed

    def test_walks_every_row_the_box_selects(self):
        # a wall table with knots at y = 0, 1, 2, 3, 4 whose left wall
        # is x = 0 but bulges to x = 0.8 at y = 2: a box over all five
        # heights fails there, in rows that neither of its ends selects.
        # (A real wall is monotone on either side of its extreme, so
        # that its ends nearly always decide; the rows decide to the
        # last bit.)
        engine = extend(*make_eq8(1.0, 0.3)).engine
        assert not engine._sector_spans
        engine._walls = _Interp(
            (np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
             np.array([0.0, 0.0, 0.8, 0.0, 0.0])),
            (np.array([0.0, 4.0]), np.array([10.0, 10.0])))
        assert engine.box_is_base(0.5, 0.5, 0.0, 0.0)
        assert engine.box_is_base(0.5, 0.5, 4.0, 4.0)
        assert not engine.box_is_base(0.5, 0.5, 2.0, 2.0)
        assert not engine.box_is_base(0.5, 1.0, 0.0, 4.0)
        assert engine.box_is_base(0.8, 1.0, 0.0, 4.0)
        assert engine.box_is_base(0.5, 1.0, 2.5, 4.0)
        assert not engine.box_is_base(0.5, 1.0, 1.5, 4.0)

    def test_engine_frame_and_rectangle(self, eq7_ext, eq8_ext):
        # a swapped map asks its engine about the transposed box; the
        # rectangle extension holds on every box inside its rectangle
        assert eq8_ext.swapped
        r = eq8_ext.rect
        rng = np.random.default_rng(4)
        for x0, x1, y0, y1 in _seeded_boxes(r, rng, 200):
            inside = r.x0 <= x0 and x1 <= r.x1 and r.y0 <= y0 and y1 <= r.y1
            assert eq8_ext.box_is_base(x0, x1, y0, y1) == (
                inside and eq8_ext.engine.box_is_base(y0, y1, x0, x1))
            assert eq7_ext.box_is_base(x0, x1, y0, y1) == (
                x0 >= 0.0 and x1 <= 1.0 and y0 >= 0.0 and y1 <= 1.0)
        assert eq7_ext.box_is_base(0.0, 1.0, 0.0, 1.0)
        assert not eq7_ext.box_is_base(0.2, 0.1, 0.0, 1.0)
        assert not eq7_ext.box_is_base(0.0, 1.0, np.nan, 1.0)


def _even_odd(x, y, poly):
    """Even-odd ray casting over every point and every edge."""
    inside = np.zeros(x.shape, dtype=bool)
    x0s, y0s = poly[:, 0], poly[:, 1]
    x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
    for ex0, ey0, ex1, ey1 in zip(x0s, y0s, x1s, y1s):
        cond = (ey0 > y) != (ey1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = ex0 + (y - ey0) * (ex1 - ex0) / (ey1 - ey0)
        inside ^= cond & (x < xi)
    return inside


class TestSectorZones:
    def test_matches_full_array_sector_test(self):
        # a point of the base zone goes to sector k when sector k's
        # polygon holds it and the domain does not; the even-odd test
        # here runs on every base point, not only on the sector's hits
        from monomap.extension import _Z_BASE, _Z_SECTOR

        rng = np.random.default_rng(20261020)
        cases = [_random_convex_case(rng) for _ in range(8)]
        cases += [_notched_square_case(rng, k) for k in range(16)]
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                x, y = _zone_probe_points(engine, rng)
                got = engine.classify(x, y)
                want = got.copy()
                base = (got == _Z_BASE) | (got >= _Z_SECTOR)
                xb, yb = x[base], y[base]
                sub = np.full(xb.shape, _Z_BASE)
                for j, s in enumerate(engine.sectors):
                    hit = s.contains(xb, yb) & (sub == _Z_BASE)
                    sub[hit & ~_even_odd(xb, yb, engine.omega)] = (
                        _Z_SECTOR + j)
                want[base] = sub
                np.testing.assert_array_equal(got, want, err_msg=str(k))
                seen.add((spec.signature, bool(engine.sectors),
                          bool((got >= _Z_SECTOR).any())))
        assert seen == {(INC_DEC, False, False), (DEC_INC, False, False),
                        (INC_DEC, True, True), (DEC_INC, True, True)}


# ---------------------------------------------------------------------------
# A frozen copy of the engine's evaluation before its tables were
# tabulated (a knot search and the interpolation arithmetic on every
# call), reading only the engine's stored state: its chain tables,
# sectors, flats, extremes and domain.
# ---------------------------------------------------------------------------


def _ref_interp(knot_q, knot_v, q):
    """Piecewise-linear interpolation on weakly increasing knots (ties
    collapse to the earlier knot)."""
    n = len(knot_q)
    i = np.searchsorted(knot_q, q, side="left")
    np.maximum(i, 1, out=i)
    np.minimum(i, n - 1, out=i)
    d = knot_q[i] - knot_q[i - 1]
    lam = np.where(d > 0, (q - knot_q[i - 1]) / np.where(d > 0, d, 1), 0.0)
    _ref_clamp(lam)
    return knot_v[i - 1] + lam * (knot_v[i] - knot_v[i - 1])


def _ref_clamp(lam):
    np.maximum(0.0, lam, out=lam)
    np.minimum(1.0, lam, out=lam)


def _ref_walls(engine):
    """The (y knots, x values) of the left and right walls."""
    t_sw, t_nw, t_se, t_ne = engine.t_sw, engine.t_nw, engine.t_se, engine.t_ne
    wall_x = np.concatenate([t_sw.xs[::-1], t_nw.xs[1:]])
    wall_y = np.concatenate([t_sw.ys[::-1], t_nw.ys[1:]])
    k = int(np.searchsorted(wall_y, wall_y[0], side="right")) - 1
    return ((wall_y[k:], wall_x[k:]),
            (np.concatenate([t_se.ys, t_ne.ys[1:]]),
             np.concatenate([t_se.xs, t_ne.xs[1:]])))


def _ref_arcs(s, x):
    return (_ref_interp(s.arc1[::-1, 0], s.arc1[::-1, 1], x),
            _ref_interp(s.arc2[:, 0], s.arc2[:, 1], x))


def _ref_sector_contains(s, x, y):
    inx = (x >= s.apex[0]) & (x <= s.chord_x)
    y1, y2 = _ref_arcs(s, np.clip(x, s.apex[0], s.chord_x))
    return inx & (y >= y1) & (y <= y2)


def _ref_sector_eval(s, x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if s.mode == "linear":
        y1, y2 = _ref_arcs(s, x)
        g1 = np.asarray(s.func(x, y1), dtype=float)
        g2 = np.asarray(s.func(x, y2), dtype=float)
        d = y2 - y1
        lam = np.where(d > 0, (y - y1) / np.where(d > 0, d, 1), 0.0)
        lam = np.clip(lam, 0.0, 1.0)
        return (1 - lam) * g1 + lam * g2
    yq = np.clip(y, s.y_lo, s.y_hi)
    xq = _ref_interp(s.polygon[:, 1], s.polygon[:, 0], yq)
    return np.asarray(s.func(xq, yq), dtype=float)


def _ref_eval_src(x, y, srcs, valfuncs):
    out = np.empty(x.shape)
    for s in np.unique(srcs):
        m = srcs == s
        out[m] = valfuncs[int(s)](x[m], y[m])
    return out


def _ref_range(fs, lo, hi, want_max):
    """Min or max of fs over inclusive [lo, hi] from a sparse table read
    level by level; empty ranges give +inf (min) or -inf (max)."""
    pick = np.maximum if want_max else np.minimum
    table = [fs]
    while (1 << len(table)) <= len(fs):
        half = 1 << (len(table) - 1)
        table.append(pick(table[-1][:-half], table[-1][half:]))
    out = np.full(lo.shape, -np.inf if want_max else np.inf)
    ok = lo <= hi
    if not np.any(ok):
        return out
    length = hi[ok] - lo[ok] + 1
    k = np.int64(np.floor(np.log2(length)))
    a = np.empty(length.shape)
    b = np.empty(length.shape)
    for level in np.unique(k):
        m = k == level
        t = table[int(level)]
        a[m] = t[lo[ok][m]]
        b[m] = t[hi[ok][m] - (1 << int(level)) + 1]
    out[ok] = pick(a, b)
    return out


def _ref_cross(t, coord, q, first):
    n = len(coord)
    if first:
        i = np.searchsorted(coord, q, side="left")
        np.minimum(i, n - 1, out=i)
        j = np.maximum(i - 1, 0)
        denom = coord[i] - coord[j]
        lam = np.where(denom > 0,
                       (q - coord[j]) / np.where(denom > 0, denom, 1), 1.0)
        _ref_clamp(lam)
        lam = np.where(i == 0, 0.0, lam)
        base = np.where(i == 0, 0, j)
        nxt = np.minimum(base + 1, n - 1)
        return base, i, (t.xs[base] + lam * (t.xs[nxt] - t.xs[base]),
                         t.ys[base] + lam * (t.ys[nxt] - t.ys[base]))
    i = np.searchsorted(coord, q, side="right") - 1
    np.maximum(i, 0, out=i)
    nxt = np.minimum(i + 1, n - 1)
    denom = coord[nxt] - coord[i]
    lam = np.where(denom > 0, (q - coord[i]) / np.where(denom > 0, denom, 1),
                   0.0)
    _ref_clamp(lam)
    lam = np.where(i == n - 1, 0.0, lam)
    return i, i, (t.xs[i] + lam * (t.xs[nxt] - t.xs[i]),
                  t.ys[i] + lam * (t.ys[nxt] - t.ys[i]))


def _ref_window(t, valfuncs, first_y, q_first, q_last, want_max):
    ea, ia, (xa, ya) = _ref_cross(t, t.ys if first_y else t.xs, q_first, True)
    eb, ib, (xb, yb) = _ref_cross(t, t.xs if first_y else t.ys, q_last, False)
    last = len(t.edge_srcs) - 1
    fa = _ref_eval_src(xa, ya, t.edge_srcs[np.minimum(ea, last)], valfuncs)
    fb = _ref_eval_src(xb, yb, t.edge_srcs[np.minimum(eb, last)], valfuncs)
    inner = _ref_range(t.fs, ia, ib, want_max)
    pick = np.maximum if want_max else np.minimum
    return pick(pick(fa, fb), inner)


def _ref_eval_sw(engine, x, y):
    f = engine.func
    t = engine.t_sw
    total = np.zeros(x.shape)
    for e, yt, yb in engine.sw_flats:
        active = x <= e
        if not np.any(active):
            continue
        yc = np.clip(y[active], yb, yt)
        total[active] += (np.asarray(f(np.full(yc.shape, e), yc), dtype=float)
                          - float(f(np.array([e]), np.array([yt]))[0]))
    return np.asarray(f(x, _ref_interp(t.xs, t.ys, x)), dtype=float) + total


def _ref_eval_ne(engine, x, y):
    f = engine.func
    t = engine.t_ne
    total = np.zeros(x.shape)
    for h, xl, xr in engine.ne_flats:
        active = y > h
        if not np.any(active):
            continue
        xc = np.clip(x[active], xl, xr)
        total[active] += (np.asarray(f(xc, np.full(xc.shape, h)), dtype=float)
                          - float(f(np.array([xl]), np.array([h]))[0]))
    return np.asarray(f(_ref_interp(t.ys, t.xs, y), y), dtype=float) + total


def _ref_classify(engine, x, y):
    from monomap.extension import _Z_BASE, _Z_NEBAND, _Z_NW, _Z_SE, \
        _Z_SECTOR, _Z_SWBAND

    (ly, lx), (ry, rx) = _ref_walls(engine)
    code = np.full(x.shape, _Z_BASE, dtype=int)
    left_of = x < _ref_interp(ly, lx, y)
    right_of = x > _ref_interp(ry, rx, y)
    code[left_of & (y >= engine.L[1])] = _Z_NW
    code[left_of & (y < engine.L[1])] = _Z_SWBAND
    code[right_of & (y <= engine.R[1])] = _Z_SE
    code[right_of & (y > engine.R[1])] = _Z_NEBAND
    if engine.sectors:
        base = code == _Z_BASE
        if np.any(base):
            xb, yb = x[base], y[base]
            sub = code[base]
            omega = EdgeTable(engine.omega)
            for k, s in enumerate(engine.sectors):
                hit = np.flatnonzero(_ref_sector_contains(s, xb, yb)
                                     & (sub == _Z_BASE))
                hit = hit[~omega.even_odd(xb[hit], yb[hit])]
                sub[hit] = _Z_SECTOR + k
            code[base] = sub
    return code


def _ref_eval(engine, x, y):
    from monomap.extension import _Z_BASE, _Z_NEBAND, _Z_NW, _Z_SE, \
        _Z_SECTOR, _Z_SWBAND

    valfuncs = [engine.func] + [
        (lambda a, b, s=s: _ref_sector_eval(s, a, b)) for s in engine.sectors]
    out = np.empty(x.shape)
    code = _ref_classify(engine, x, y)
    for zone in np.flatnonzero(np.bincount(code)).tolist():
        m = code == zone
        xm, ym = x[m], y[m]
        if zone == _Z_BASE:
            out[m] = engine.func(xm, ym)
        elif zone == _Z_SWBAND:
            out[m] = _ref_eval_sw(engine, xm, ym)
        elif zone == _Z_SE:
            out[m] = _ref_window(engine.t_se, valfuncs, True, ym, xm, False)
        elif zone == _Z_NW:
            out[m] = _ref_window(engine.t_nw, valfuncs, False, xm, ym, True)
        elif zone == _Z_NEBAND:
            out[m] = _ref_eval_ne(engine, xm, ym)
        else:
            out[m] = valfuncs[1 + zone - _Z_SECTOR](xm, ym)
    return out


def _assert_bitwise(got, want, msg=""):
    assert got.dtype == want.dtype and got.shape == want.shape, msg
    assert got.tobytes() == want.tobytes(), msg


class TestEvalMatchesFrozenReference:
    """The tabulated engine gives the zone codes and values of the frozen
    per-call evaluation above, bit for bit, on seeded convex and notched
    engines of both signatures, built and loaded."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(20261021)
        cases = [_random_convex_case(rng) for _ in range(6)]
        cases += [_notched_square_case(rng, k) for k in range(8)]
        cases += _shape_cases()
        for spec, domain in cases:
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            yield spec, ext, loaded

    @staticmethod
    def _points(engine, rng):
        """A 100^2 grid over the rectangle, the probes of the zone tests
        (wall knots and one ulp either side), the sectors' apex and chord
        abscissae and one ulp either side, and 41 points per edge of the
        domain's boundary."""
        r = engine.rect
        X, Y = np.meshgrid(np.linspace(r.x0, r.x1, 100),
                           np.linspace(r.y0, r.y1, 100), indexing="ij")
        px, py = _zone_probe_points(engine, rng)
        xs, ys = [X.ravel(), px], [Y.ravel(), py]
        heights = np.linspace(r.y0, r.y1, 101)
        for s in engine.sectors:
            for x in (s.apex[0], s.chord_x):
                for side in (-np.inf, None, np.inf):
                    xs.append(np.full(heights.shape, x if side is None
                                      else np.nextafter(x, side)))
                    ys.append(heights)
        v = engine.omega
        t = np.linspace(0.0, 1.0, 41)[:, None, None]
        edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
        xs.append(edge[:, 0])
        ys.append(edge[:, 1])
        return np.concatenate(xs), np.concatenate(ys)

    def test_interpolation_classify_and_eval(self):
        from monomap.extension import _Z_NEBAND, _Z_SWBAND

        rng = np.random.default_rng(7)
        seen, zones = set(), set()
        for k, (spec, ext, loaded) in enumerate(self._cases()):
            for engine in (ext.engine, loaded.engine):
                x, y = self._points(engine, rng)
                msg = f"case {k}"
                (ly, lx), (ry, rx) = _ref_walls(engine)
                xl, xr = engine._walls(y)
                _assert_bitwise(xl, _ref_interp(ly, lx, y), msg)
                _assert_bitwise(xr, _ref_interp(ry, rx, y), msg)
                t = engine.t_sw
                _assert_bitwise(engine._rules[_Z_SWBAND].table(x)[0],
                                _ref_interp(t.xs, t.ys, x), msg)
                t = engine.t_ne
                _assert_bitwise(engine._rules[_Z_NEBAND].table(y)[0],
                                _ref_interp(t.ys, t.xs, y), msg)
                for s in engine.sectors:
                    for got, want in zip(s._arcs(x), _ref_arcs(s, x)):
                        _assert_bitwise(got, want, msg)
                    _assert_bitwise(
                        s._far_x(y)[0],
                        _ref_interp(s.polygon[:, 1], s.polygon[:, 0], y), msg)
                code = engine.classify(x, y)
                _assert_bitwise(code, _ref_classify(engine, x, y), msg)
                _assert_bitwise(engine.eval(x, y), _ref_eval(engine, x, y),
                                msg)
                seen.add((spec.signature, bool(engine.sectors)))
                zones.update(np.unique(code).tolist())
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}
        # every wall zone and sector zones took part
        assert set(range(5)) < zones and max(zones) >= 100

    def test_batches(self):
        # the small-batch and all-base paths, through ExtendedMap.eval in
        # the caller's frame
        rng = np.random.default_rng(8)
        for k, (spec, ext, loaded) in enumerate(self._cases()):
            # inside the rectangle, which ExtendedMap.eval clamps to
            x, y = self._points(ext.engine, rng)
            r = ext.engine.rect
            x, y = np.clip(x, r.x0, r.x1), np.clip(y, r.y0, r.y1)
            for n in (0, 1, 2, 4, 31, 10_000):
                for _ in range(3 if n < 10_000 else 1):
                    i = rng.integers(0, len(x), n)
                    want = _ref_eval(ext.engine, x[i], y[i])
                    for e in (ext, loaded):
                        a, b = (y[i], x[i]) if e.swapped else (x[i], y[i])
                        _assert_bitwise(e.eval(a, b), want, f"case {k}, n={n}")


# ---------------------------------------------------------------------------
# A frozen copy of the ray bands' flats and pieces as two mirrored
# constructions built them: the SW flats (x, top, bottom) and slabs
# between them, then the NE flats (height, left, right) and theirs.
# ---------------------------------------------------------------------------


def _ref_flats(engine):
    g = 1e-9 * engine.rect.diam
    xs, ys = engine.t_sw.xs, engine.t_sw.ys
    sw = [(float(xs[i]), float(ys[i]), float(ys[j]))
          for i, j in _flat_runs(xs, ys, g)]
    xs, ys = engine.t_ne.xs, engine.t_ne.ys
    ne = [(float(ys[i]), float(xs[j]), float(xs[i]))
          for i, j in _flat_runs(ys, xs, g)]
    return sw, ne


def _ref_trim_runs(part, axis, lo, hi, g):
    while len(part) >= 2 and abs(part[0, axis] - lo) <= g and abs(
        part[1, axis] - lo
    ) <= g:
        part = part[1:]
    while len(part) >= 2 and abs(part[-1, axis] - hi) <= g and abs(
        part[-2, axis] - hi
    ) <= g:
        part = part[:-1]
    return part


def _ref_band_pieces(engine):
    """(rule, polygon, meta) of the SW band's pieces, then the NE's."""
    r = engine.rect
    X1, Y0 = r.x1, r.y0
    L, B, R, T = engine.L, engine.B, engine.R, engine.T
    g = 1e-9 * r.diam
    sw_flats, ne_flats = _ref_flats(engine)
    pieces = []

    def add(rule, poly, **meta):
        poly = np.asarray(poly, dtype=float)
        if len(poly) >= 3 and abs(_signed_area(poly)) > g * g:
            pieces.append((rule, poly, meta))

    edges = [L[0]] + [e for e, _, _ in sw_flats] + [B[0]]
    tops = [yt for _, yt, _ in sw_flats]
    chain = np.column_stack([engine.t_sw.xs, engine.t_sw.ys])
    for j in range(len(edges) - 1):
        a, b = edges[j], edges[j + 1]
        if b - a <= g:
            continue
        floor = tops[j] if j < len(sw_flats) else Y0
        part = chain[(chain[:, 0] >= a - g) & (chain[:, 0] <= b + g)]
        part = _ref_trim_runs(part, axis=0, lo=a, hi=b, g=g)
        poly = np.vstack([[(a, floor), (b, floor)], part[::-1]])
        add(RULE_RAY_YPLUS, poly, zone="south_ray", slab=j)
        if floor > Y0 + g:
            add(RULE_GRAFT, _rect_poly(a, b, Y0, floor), zone="south_graft")

    hs = [R[1]] + [h for h, _, _ in ne_flats] + [T[1]]
    walls = [xr for _, _, xr in ne_flats]
    chain = np.column_stack([engine.t_ne.xs, engine.t_ne.ys])
    for j in range(len(hs) - 1):
        a, b = hs[j], hs[j + 1]
        if b - a <= g:
            continue
        wall = walls[j] if j < len(ne_flats) else X1
        part = chain[(chain[:, 1] >= a - g) & (chain[:, 1] <= b + g)]
        part = _ref_trim_runs(part, axis=1, lo=a, hi=b, g=g)
        poly = np.vstack([part, [(wall, b), (wall, a)]])
        add(RULE_RAY_XMINUS, poly, zone="east_ray", slab=j)
        if X1 - wall > g:
            add(RULE_GRAFT, _rect_poly(wall, X1, a, b), zone="east_graft")
    return pieces


# a domain whose ray chains have several flats with sloped runs between
# them: 2 SW and 1 NE flats in the engine's frame (dec_inc), 1 SW and 3
# NE in the swapped one (inc_dec)
_STAIRS = [(0, 5), (0, 4), (1, 3), (1, 2), (2, 1), (3, 0), (5, 0), (7, 2),
           (7, 3), (6, 4), (6, 5), (5, 6), (5, 7), (3, 7)]


def _stairs_cases():
    domain = DomainSpec.polygon(_STAIRS)
    for func, sig in ((_DEC_INC_MAP, DEC_INC), (_INC_DEC_MAP, INC_DEC)):
        yield MapSpec(func, sig, Box(*domain.bbox)), domain


_BAND_ZONES = {"south_ray", "south_graft", "east_ray", "east_graft"}


class TestBandsMatchFrozenReference:
    """The engine's flats and band pieces are those of the frozen mirrored
    construction above, bit for bit, built and loaded."""

    def test_stairs_audit_with_several_flats(self):
        counts = []
        for k, (spec, domain) in enumerate(_stairs_cases()):
            assert domain.classify() == DomainKind.SEMI_CONVEX
            ext = extend(spec, domain)
            assert audit_extension(ext, rng=np.random.default_rng(k)).all_ok
            counts.append((len(ext.engine.sw_flats),
                           len(ext.engine.ne_flats)))
        assert counts == [(2, 1), (1, 3)]

    def test_flats_and_pieces(self):
        rng = np.random.default_rng(20261021)
        cases = [_random_convex_case(rng) for _ in range(6)]
        cases += [_notched_square_case(rng, k) for k in range(8)]
        cases += list(_shape_cases()) + list(_stairs_cases())
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                sw, ne = _ref_flats(engine)
                assert engine.sw_flats == sw and engine.ne_flats == ne, k
                zones = [p.meta["zone"] for p in engine.pieces]
                got = [p for p in engine.pieces
                       if p.meta["zone"] in _BAND_ZONES]
                want = _ref_band_pieces(engine)
                assert len(got) == len(want), k
                for p, (rule, poly, meta) in zip(got, want):
                    assert (p.rule, p.meta) == (rule, meta), k
                    _assert_bitwise(np.asarray(p.polygon), poly, f"case {k}")
                # the SW band's pieces come before the windowed pieces,
                # the NE band's after them
                south = [i for i, z in enumerate(zones)
                         if z.startswith("south_")]
                east = [i for i, z in enumerate(zones)
                        if z.startswith("east_")]
                middle = [zones.index(z) for z in ("southeast", "northwest")
                          if z in zones]
                assert max(south, default=-1) < min(middle + east, default=1e9)
                assert max(middle, default=-1) < min(east, default=1e9)
                seen.add((spec.signature, len(sw) > 1, len(ne) > 1))
        assert {(DEC_INC, True, False), (INC_DEC, False, True)} <= seen


def test_engine_is_freed_by_refcounting():
    # no zone rule refers back to its engine, so a dropped extension
    # frees its tables at once, not at the next cycle collection
    spec, domain = _notched_square_case(np.random.default_rng(3), 0)
    ext = extend(spec, domain)
    gc.disable()
    try:
        ref = weakref.ref(ext.engine)
        del ext
        assert ref() is None
    finally:
        gc.enable()


class TestNegativeControls:
    def test_oscillating_boundary_values_rejected(self):
        # not actually monotone: boundary values oscillate along an arc
        func = lambda x, y: np.sin(9.0 * x) + 0.0 * y
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        d = DomainSpec.polygon([(0, 0), (2, 0), (2, 1.4), (1, 2), (0, 2)])
        with pytest.raises(
            (NonMonotoneInducedEdge, SectorOrderViolation, UnsupportedDomain)
        ):
            ext = extend(spec, d)
            audit = audit_extension(ext, rng=np.random.default_rng(4))
            assert not audit.all_ok
            raise UnsupportedDomain("caught by audit instead of builder")

    def test_wrong_signature_fails_audit(self):
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        audit = audit_extension(ext, rng=np.random.default_rng(5))
        assert not audit.all_ok
        assert audit.n_monotone_violations > 0
        # the worst violation is the fall in y, declared increasing, from
        # the grid point (0, 0): F(0, h) - F(0, 0) = -1/100 for h = 1/99
        x, y, worst = audit.to_dict()["witnesses"]["monotone"]
        h = 1.0 / 99
        assert (x, y) == (0.0, 0.0)
        assert worst == pytest.approx(func(x, y + h) - func(x, y), rel=1e-12)
        assert worst < 0

    def test_monotone_witness_is_a_real_violation(self):
        # declared decreasing in both: only x is violated, worst along y = 1
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        sig = MonotoneSignature(Direction.DECREASING, Direction.DECREASING)
        spec = MapSpec(func, sig, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        audit = audit_extension(ext, rng=np.random.default_rng(5))
        assert not audit.monotone_ok
        x, y, worst = audit.to_dict()["witnesses"]["monotone"]
        h = 1.0 / 99
        assert y > 0
        assert func(x + h, y) - func(x, y) > 0
        assert worst == pytest.approx(-(func(x + h, y) - func(x, y)), rel=1e-12)

    def test_monotone_tie_names_the_x_step(self):
        # declared inc_dec, this map falls by exactly 1 a grid step along
        # y everywhere and along x from x = 50: as the signature audit
        # does, check C3 names the x step, from (50, 0)
        func = lambda x, y: y - np.maximum(x - 50.0, 0.0)  # noqa: E731
        spec = MapSpec(func, INC_DEC, Box(0.0, 99.0, 0.0, 99.0))
        audit = audit_extension(extend_rectangle(spec, spec.box),
                                rng=np.random.default_rng(5))
        assert audit.n_monotone_violations == 49 * 100 + 100 * 99
        assert audit.to_dict()["witnesses"]["monotone"] == [50.0, 0.0, -1.0]
        assert check_monotonicity(spec, spec.box).witness[2] == "x"
