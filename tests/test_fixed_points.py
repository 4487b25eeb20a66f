import math

import numpy as np
import pytest

from monomap import fixed_points
from monomap.errors import ContinuumOfFixedPoints, DegenerateCase, ParamConstraint
from monomap.fixed_points import (
    _PARTS,
    _corner_ranges,
    _narrow,
    _nodes,
    find_artificial,
    find_equilibria,
)
from monomap.examples import (
    closed_form_eq7,
    closed_form_eq8_line_family,
    eq8_b3,
    eq8_line_x,
    make_eq7,
    make_eq8,
)
from monomap.extension import extend, extend_rectangle
from monomap.geometry import DomainSpec
from monomap.map_model import (Box, DEC_INC, INC_DEC, Direction, MapSpec,
                               MonotoneSignature, compile_expression)


class TestFindEquilibria:
    def test_transcendental_root(self):
        roots = find_equilibria(lambda x, y: np.cos(x), (0.0, 1.0))
        assert len(roots) == 1
        x, res = roots[0]
        exact = 0.7390851332151607
        assert abs(x - exact) <= 4 * np.spacing(exact)
        assert abs(res) < 1e-15

    def test_multiple_roots(self):
        roots = find_equilibria(
            lambda x, y: (x - 0.2) * (x - 0.5) * (x - 0.9) + x, (0.0, 1.0)
        )
        assert len(roots) == 3
        for (x, _), exact in zip(roots, (0.2, 0.5, 0.9)):
            assert abs(x - exact) <= 4 * np.spacing(exact)

    @pytest.mark.parametrize("F, a, b", [
        (lambda x, y: np.cos(x), 0.0, 1.0),
        # an exact float root: the bracket closes on it
        (lambda x, y: 2 * x - 0.5, 0.1, 0.9),
        # a root near 0 in a bracket spanning hundreds of binades
        (lambda x, y: 2 * x - 1e-300, -1.0, 1.0),
    ])
    def test_narrowing_ends_at_adjacent_floats(self, F, a, b):
        lo, hi = np.array([a]), np.array([b])
        glo, ghi = F(lo, lo) - lo, F(hi, hi) - hi
        lo, hi, glo, ghi = _narrow(F, lo, hi, glo, ghi)
        assert np.sign(glo[0]) * np.sign(ghi[0]) <= 0
        assert hi[0] == np.nextafter(lo[0], np.inf) or (
            lo[0] == hi[0] and glo[0] == ghi[0] == 0.0)

    def test_brackets_narrow_together(self):
        calls = []

        def F(x, y):
            calls.append(x.size)
            return x + np.sin(10 * x)

        lo, hi = np.array([0.2, 0.55, 0.9]), np.array([0.4, 0.7, 1.0])
        lo, hi, _, _ = _narrow(F, lo, hi, np.sin(10 * lo), np.sin(10 * hi))
        assert np.all(hi == np.nextafter(lo, np.inf))
        assert np.all(np.abs(lo - np.pi * np.array([1, 2, 3]) / 10) < 1e-15)
        # one call per pass, each on the inner nodes of every open bracket
        assert calls[0] == 3 * (_PARTS - 1)
        assert len(calls) <= 12

    def test_no_roots(self):
        assert find_equilibria(lambda x, y: x + 1.0, (0.0, 1.0)) == []

    def test_continuum_detected(self):
        with pytest.raises(ContinuumOfFixedPoints):
            find_equilibria(lambda x, y: x, (0.0, 1.0))


class TestClosedFormEq7:
    def test_equilibrium_satisfies_quadratic(self):
        for p, q, r in [(1.0, 1.0, 5.0), (2.0, 3.0, 0.5), (1.1, 3.0, 2.0)]:
            x = closed_form_eq7(p, q, r)["equilibrium"]
            assert (1 + r) * x**2 + (1 - q) * x - p == pytest.approx(0.0, abs=1e-12)
            assert x > 0

    def test_regimes(self):
        assert closed_form_eq7(1.0, 1.0, 5.0)["regime"] == "i"
        assert closed_form_eq7(2.0, 3.0, 0.5)["regime"] == "ii"
        assert closed_form_eq7(1.1, 3.0, 2.0)["regime"] == "iii"
        assert closed_form_eq7(0.5, 2.0, 4.0)["regime"] is None

    def test_artificial_pair_closed_form(self):
        pairs = closed_form_eq7(0.5, 2.0, 4.0)["artificial_pairs"]
        assert len(pairs) == 1
        (x, y) = pairs[0]
        assert x == pytest.approx((3 - math.sqrt(3)) / 6, abs=1e-12)
        assert y == pytest.approx((3 + math.sqrt(3)) / 6, abs=1e-12)

    def test_no_artificial_in_stable_regimes(self):
        assert closed_form_eq7(1.0, 1.0, 5.0)["artificial_pairs"] == []


class TestArtificialSearch:
    def test_eq7_unstable_regime_finds_the_pair(self):
        spec, domain = make_eq7(0.5, 2.0, 4.0)
        x0, x1, y0, y1 = domain.bbox
        ext = extend_rectangle(spec, Box(x0, x1, y0, y1))
        rep = find_artificial(ext)
        assert rep.has_artificial
        (x, y), res, _ = rep.artificial[0]
        assert x == pytest.approx((3 - math.sqrt(3)) / 6, abs=1e-9)
        assert y == pytest.approx((3 + math.sqrt(3)) / 6, abs=1e-9)
        assert abs(res) < 5e-9

    def test_numeric_agrees_with_closed_form(self):
        spec, domain = make_eq7(0.5, 2.0, 4.0)
        x0, x1, y0, y1 = domain.bbox
        ext = extend_rectangle(spec, Box(x0, x1, y0, y1))
        rep = find_artificial(ext)
        exact = closed_form_eq7(0.5, 2.0, 4.0)["artificial_pairs"][0]
        got = rep.artificial[0][0]
        assert got == pytest.approx(exact, abs=1e-9)

    def test_eq8_has_none(self, eq8_ext):
        rep = find_artificial(eq8_ext)
        assert not rep.has_artificial
        assert [x for x, _ in rep.equilibria] == pytest.approx([0.7], abs=1e-9)

    def test_xfy_pinned_corner_pair(self, xfy_ext):
        rep = find_artificial(xfy_ext)
        pairs = [p for p, _, _ in rep.artificial]
        assert (0.01, 3.0) in [
            (pytest.approx(px, abs=1e-9), pytest.approx(py, abs=1e-9))
            for px, py in pairs
        ] or any(
            abs(px - 0.01) < 1e-9 and abs(py - 3.0) < 1e-9 for px, py in pairs
        )

    def test_report_serializes(self, eq8_ext):
        import json

        doc = find_artificial(eq8_ext).to_dict()
        assert doc["schema_version"] >= 1
        json.dumps(doc)


def reference_cells(ext, n=1024):
    """Brute-force reference, independent of the search: the cells of an
    n x n grid of the box where both clamped residual components change
    sign and the residual vector winds around the cell, plus the grid
    nodes where the residual vanishes, as (x0, x1, y0, y1) boxes.

    Sign changes alone flag many root-free cells where the two zero
    curves run close without crossing; a nonzero winding number is what
    a root inside the cell leaves on its corners.
    """
    a, b = ext.rect.x0, ext.rect.x1
    xs = np.linspace(a, b, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h1 = np.clip(ext.eval(X.ravel(), Y.ravel()), a, b).reshape(X.shape) - X
    h2 = np.clip(ext.eval(Y.ravel(), X.ravel()), a, b).reshape(X.shape) - Y

    def changes(h):
        c = np.stack([h[:-1, :-1], h[1:, :-1], h[1:, 1:], h[:-1, 1:]])
        return (c.min(axis=0) < 0) & (c.max(axis=0) > 0)

    ang = np.arctan2(h2, h1)
    ring = [ang[:-1, :-1], ang[1:, :-1], ang[1:, 1:], ang[:-1, 1:], ang[:-1, :-1]]
    turn = sum((q - p + np.pi) % (2 * np.pi) - np.pi
               for p, q in zip(ring, ring[1:]))
    wind = np.rint(turn / (2 * np.pi)) != 0
    ii, jj = np.nonzero(changes(h1) & changes(h2) & wind)
    cells = [(xs[i], xs[i + 1], xs[j], xs[j + 1]) for i, j in zip(ii, jj)]
    zero = np.maximum(np.abs(h1), np.abs(h2)) < 1e-9 * (b - a)
    cells += [(xs[i], xs[i], xs[j], xs[j]) for i, j in zip(*np.nonzero(zero))]
    return cells


def unexplained(ext, rep):
    """Reference cells off the diagonal band that meet no box the search
    kept (as an artificial pair or unresolved), mirrored to y >= x."""
    band = rep.search["diagonal_band"]
    boxes = [box for _, _, box in rep.artificial + rep.unresolved]
    out = []
    for x0, x1, y0, y1 in reference_cells(ext):
        if y1 < x0:
            x0, x1, y0, y1 = y0, y1, x0, x1
        if y0 - x1 <= band:
            continue
        if not any(x0 <= bx1 and bx0 <= x1 and y0 <= by1 and by0 <= y1
                   for bx0, bx1, by0, by1 in boxes):
            out.append((x0, x1, y0, y1))
    return out


def eq7_ext(p, q, r):
    spec, domain = make_eq7(p, q, r)
    return extend_rectangle(spec, Box(*domain.bbox))


class TestBruteForceReference:
    def test_eq8_explained(self, eq8_ext):
        assert unexplained(eq8_ext, find_artificial(eq8_ext)) == []

    def test_eq7_unstable_explained(self):
        ext = eq7_ext(0.5, 2.0, 4.0)
        rep = find_artificial(ext)
        assert len(rep.artificial) == 1
        assert unexplained(ext, rep) == []

    def test_xfy_corner_pair_explained(self, xfy_ext):
        assert unexplained(xfy_ext, find_artificial(xfy_ext)) == []

    @pytest.mark.parametrize("case", [("eq7", 2.05, 3.0, 3.0),
                                      ("eq8", 2.0, 0.499)])
    def test_near_tangent_cases_explained(self, case):
        make = make_eq7 if case[0] == "eq7" else make_eq8
        ext = extend(*make(*case[1:]))
        rep = find_artificial(ext)
        assert not rep.artificial and not rep.unresolved
        assert unexplained(ext, rep) == []

    def test_suppressed_pair_is_caught(self):
        ext = eq7_ext(0.5, 2.0, 4.0)
        rep = find_artificial(ext)
        rep.artificial = []  # pretend the search dropped the pair's box
        assert unexplained(ext, rep)


class TestFoundRegressions:
    """Stable cases the earlier Newton sweep and dense oracle reported as
    artificial pairs or left inconsistent; the algebra rules out
    artificial fixed points in all of them."""

    @pytest.mark.parametrize("p, h", [(1.2, 0.499), (1.5, 0.499),
                                      (2.0, 0.499), (3.0, 0.499),
                                      (3.0, 0.495)])
    def test_eq8_near_half_has_no_pair(self, p, h):
        rep = find_artificial(extend(*make_eq8(p, h)))
        assert rep.artificial == []
        assert rep.unresolved == []
        assert [x for x, _ in rep.equilibria] == pytest.approx([p - h], abs=1e-9)

    @pytest.mark.parametrize("p, q, r", [
        (p, 3.0, 3.0) for p in (2.01, 2.02, 2.03, 2.04, 2.05)
    ] + [(p, 2.0, 5.0) for p in (1.01, 1.02, 1.03, 1.04, 1.05)])
    def test_eq7_above_threshold_has_no_pair(self, p, q, r):
        rep = find_artificial(eq7_ext(p, q, r))
        assert closed_form_eq7(p, q, r)["regime"] == "iii"
        assert rep.artificial == []
        assert rep.unresolved == []


def eq7_triples(rng, n):
    """n eq7 triples cycling through the four regimes: q <= 1, r <= 1,
    above the threshold t = (r-1)(q-1)^2/4 and below it (one pair); half
    of the last two lie within 1% of t."""
    out = []
    for k in range(n):
        regime = k % 4
        if regime == 0:
            q = rng.uniform(0.2, 1.0)
            p = q * rng.uniform(0.05, 1.0)
            r = rng.uniform(0.1, 10.0)
        elif regime == 1:
            q = rng.uniform(1.0, 10.0)
            p = q * rng.uniform(0.05, 1.0)
            r = rng.uniform(0.05, 1.0)
        else:
            q = rng.uniform(1.5, 6.0)
            r = rng.uniform(1.05, min(1 + 4 * q / (q - 1) ** 2, 40.0))
            t = (r - 1) * (q - 1) ** 2 / 4
            near = rng.uniform() < 0.5
            if regime == 2:
                f = rng.uniform(1.005, 1.01) if near else rng.uniform(1.01, 3.0)
            else:
                f = rng.uniform(0.99, 0.995) if near else rng.uniform(0.05, 0.99)
            p = min(f * t, q)
        out.append((float(p), float(q), float(r)))
    return out


class TestAgreement:
    def test_eq7_matches_closed_form(self):
        rng = np.random.default_rng(2026)
        for p, q, r in eq7_triples(rng, 200):
            rep = find_artificial(eq7_ext(p, q, r))
            want = closed_form_eq7(p, q, r)["artificial_pairs"]
            got = [pair for pair, _, _ in rep.artificial]
            assert rep.unresolved == [], (p, q, r)
            assert len(got) == len(want), (p, q, r)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9), (p, q, r)

    def test_eq8_has_no_pair(self):
        rng = np.random.default_rng(2027)
        for k in range(50):
            h = float(rng.uniform(0.05, 0.49) if k % 2 else
                      rng.uniform(0.49, 0.499))
            p = float(rng.uniform(max(0.5, h + 0.05), 3.0))
            rep = find_artificial(extend(*make_eq8(p, h)))
            assert rep.artificial == [] and rep.unresolved == [], (p, h)


NOTCHED = [(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)]


class TestCornerRanges:
    """The four corner values bound F(x, y) and F(y, x) on the whole cell."""

    @pytest.mark.parametrize("case", ["eq7", "eq8", "inc_dec_notched",
                                      "dec_inc_notched"])
    def test_ranges_hold_sampled_values(self, case, rng):
        if case == "eq7":
            ext = eq7_ext(0.5, 2.0, 4.0)
        elif case == "eq8":
            ext = extend(*make_eq8(1.0, 0.3))
        else:
            sig = INC_DEC if case == "inc_dec_notched" else DEC_INC
            f = ((lambda x, y: (1 + x) / (1 + x + y)) if sig == INC_DEC
                 else (lambda x, y: (1 + y) / (1 + x + y)))
            # the dec_inc frame needs the notch mirrored across the diagonal
            pts = NOTCHED if sig == INC_DEC else [(y, x) for x, y in NOTCHED][::-1]
            ext = extend(MapSpec(f, sig, Box(0.0, 2.0, 0.0, 2.0)),
                         DomainSpec.polygon(pts))
        a, b = ext.rect.x0, ext.rect.x1
        corners = np.sort(rng.uniform(a, b, (2, 2, 400)), axis=1)
        x0, x1 = corners[0]
        y0, y1 = corners[1]
        least, most = _corner_ranges(ext, np.concatenate([x0, y0]),
                                     np.concatenate([x1, y1]))
        (flo, glo), (fhi, ghi) = np.split(least, 2), np.split(most, 2)
        t = rng.uniform(0.0, 1.0, (2, 30, 400))
        x = x0 + t[0] * (x1 - x0)
        y = y0 + t[1] * (y1 - y0)
        f = np.clip(ext.eval(x.ravel(), y.ravel()), a, b).reshape(x.shape)
        g = np.clip(ext.eval(y.ravel(), x.ravel()), a, b).reshape(x.shape)
        tol = 1e-12 * (b - a)
        assert np.all(flo - tol <= f) and np.all(f <= fhi + tol)
        assert np.all(glo - tol <= g) and np.all(g <= ghi + tol)


class TestSearchOutcomes:
    def test_pair_far_from_the_origin(self):
        """On a box whose corners are large next to its width the finest
        cells are about one ulp wide; the eq7(0.5, 2, 4) pair shifted by
        10^4 is still found, to 1e-9."""
        c = 1e4
        spec = MapSpec(
            lambda x, y: c + (0.5 + 2 * (x - c)) / (1 + (x - c) + 4 * (y - c)),
            INC_DEC, Box(c, c + 2, c, c + 2))
        rep = find_artificial(extend_rectangle(spec, spec.box))
        want = closed_form_eq7(0.5, 2.0, 4.0)["artificial_pairs"][0]
        assert [pair for pair, _, _ in rep.artificial] == [
            pytest.approx((c + want[0], c + want[1]), abs=1e-9)
        ]

    def test_curve_of_roots_is_never_absent(self):
        """F(x, y) = g(y) with g(y) = (1 - y)/(1 + 3y) an involution: every
        point of the curve y = g(x) solves the system.  The search runs
        into its cell budget and keeps the curve, as boxes."""
        spec = MapSpec(lambda x, y: (1 - y) / (1 + 3 * y) + 0 * x, INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0))
        rep = find_artificial(extend_rectangle(spec, spec.box))
        assert rep.search["stop"] == "cell_budget"
        assert rep.unresolved
        # the boxes cover the curve off the diagonal band
        xs = np.linspace(0.0, 1.0 / 3.0 - 1e-3, 50)
        boxes = [box for _, _, box in rep.artificial + rep.unresolved]
        for x in xs:
            y = (1 - x) / (1 + 3 * x)
            assert any(b[0] <= x <= b[1] and b[2] <= y <= b[3]
                       for b in boxes), x

    def test_record(self, eq8_ext):
        search = find_artificial(eq8_ext).to_dict()["search"]
        assert search["stop"] == "exhausted"
        assert search["unresolved"] == []
        # 4 root corners plus 10 points per split cell, whose 3 or 4
        # children the cells count
        splits, rest = divmod(search["evaluations"] - 4, 10)
        assert rest == 0
        assert 3 * splits <= search["cells"] - 1 <= 4 * splits
        assert search["diagonal_band"] == pytest.approx(1e-6 * 6.3)


# the level rule of the pair search before cells carried their corner
# values, frozen: every level evaluates the four corners of every cell
_FROZEN_CHILDREN = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])[:, None, :]


def frozen_rule(ext, seen):
    """The frozen (test, split) of the four-corners-per-cell search on
    integer cells (i, j); ``seen(depth, i, j, values)`` receives each
    level's (least F(x, y), least F(y, x), most F(x, y), most F(y, x))."""
    a, b = float(ext.rect.x0), float(ext.rect.x1)
    sep_min = 1e-6 * (b - a)
    eps = 8 * np.spacing(max(abs(a), abs(b)))

    def test(cells, depth):
        k = cells.shape[1]
        ij = np.stack([cells, cells + 1])
        lo, hi = _nodes(ij, 1 << depth, a, b).reshape(2, -1)
        least, most = _corner_ranges(ext, lo, hi)
        seen(depth, *cells, np.concatenate([least.reshape(2, k),
                                            most.reshape(2, k)]))
        keep = (least - hi <= eps) & (most - lo >= -eps)
        return (keep[:k] & keep[k:]
                & (hi[k:] - lo[:k] > sep_min)), None

    def split(cells):
        kids = (2 * cells[:, :, None] + _FROZEN_CHILDREN).reshape(2, -1)
        return np.compress(kids[1] + 1 > kids[0], kids, axis=1)

    return test, split


class _CountingExt:
    """An extension that counts the points passed to ``eval``; calls of
    the map itself (the equilibrium sweep) are not counted."""

    def __init__(self, ext):
        self.ext, self.points = ext, 0

    def __getattr__(self, name):
        return getattr(self.ext, name)

    def __call__(self, x, y):
        return self.ext.eval(x, y)

    def eval(self, x, y):
        self.points += np.size(x)
        return self.ext.eval(x, y)


def traced_search(ext, monkeypatch, frozen):
    """The report of `find_artificial`, with its level rule or the frozen
    one, the values of every tested cell by level as {depth: (i, j,
    values)} sorted by cell, the cells split and the points evaluated."""
    levels, split_cells = {}, []
    refine = fixed_points.refine

    def seen(depth, i, j, values):
        levels.setdefault(depth, []).append(
            (np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64),
             values))

    def spy(cells, test, split, leaf, budget):
        if frozen:
            test, split = frozen_rule(ext, seen)
            cells = np.zeros((2, 1), dtype=np.int64)
        else:
            def test(cells, depth, test=test):
                seen(depth, cells[0], cells[1], cells[2:6])
                return test(cells, depth)

        def counted(cells):
            split_cells.append(cells.shape[1])
            return split(cells)

        return refine(cells, test, counted, leaf, budget)

    counting = _CountingExt(ext)
    with monkeypatch.context() as m:
        m.setattr(fixed_points, "refine", spy)
        rep = find_artificial(counting)
    by_level = {}
    for depth, [(i, j, values)] in levels.items():
        order = np.lexsort((j, i))
        by_level[depth] = (i[order], j[order], values[:, order])
    return rep, by_level, sum(split_cells), counting.points


def _rect_ext(func, sig, box=(0.0, 2.0, 0.0, 2.0)):
    spec = MapSpec(func, sig, Box(*box))
    return extend_rectangle(spec, spec.box)


INC_INC = MonotoneSignature(Direction.INCREASING, Direction.INCREASING)
DEC_DEC = MonotoneSignature(Direction.DECREASING, Direction.DECREASING)
DEC_INC_EXPR = compile_expression("(a + b*y)/(1 + y + c*x)",
                                  {"a": 0.6, "b": 1.5, "c": 0.8})
NOTCHED_MAP = MapSpec(lambda x, y: (1 + x) / (1 + x + y), INC_DEC,
                      Box(0.0, 2.0, 0.0, 2.0))

PARENT_VALUE_CASES = {
    # an artificial pair, kept down to the min_width stop
    "eq7_pair": lambda: eq7_ext(0.5, 2.0, 4.0),
    # a level would exceed the cell budget near the pitchfork
    "eq7_cell_budget": lambda: extend(*make_eq7(0.3128125, 6.0, 1.05)),
    "eq8_pentagon": lambda: extend(*make_eq8(1.0, 0.3)),
    "eq8_near_half": lambda: extend(*make_eq8(3.0, 0.499)),
    # the engine with a sector, on the diagonal mirror of an inc_dec map
    "notched_sector": lambda: extend(NOTCHED_MAP, DomainSpec.polygon(NOTCHED)),
    # a compiled dec_inc expression, which the engine runs in its own
    # frame, on the notched polygon mirrored across the diagonal
    "dec_inc_expression": lambda: extend(
        MapSpec(DEC_INC_EXPR, DEC_INC, Box(0.0, 2.0, 0.0, 2.0)),
        DomainSpec.polygon([(y, x) for x, y in NOTCHED][::-1])),
    # same-sign signatures, which only a rectangle extension carries
    "inc_inc_rectangle": lambda: _rect_ext(
        lambda x, y: 0.2 + 0.3 * x + 0.4 * y * y, INC_INC),
    "dec_dec_rectangle": lambda: _rect_ext(
        lambda x, y: 2.0 / (1.0 + x + 2.0 * y), DEC_DEC),
}


class TestParentValues:
    """Cells carry their corner values, so a split evaluates ten points
    per cell and the children take the rest from their parent.  Against
    the frozen rule that evaluates every cell's four corners: the same
    report, evaluations aside, and the same values, bit for bit, of every
    cell of every level."""

    @pytest.fixture(scope="class", params=sorted(PARENT_VALUE_CASES))
    def case(self, request):
        return request.param, PARENT_VALUE_CASES[request.param]()

    def test_same_report_and_cell_values(self, case, monkeypatch):
        name, ext = case
        rep, levels, splits, points = traced_search(ext, monkeypatch, False)
        old, old_levels, _, _ = traced_search(ext, monkeypatch, True)
        new_doc, old_doc = rep.to_dict(), old.to_dict()
        del new_doc["search"]["evaluations"], old_doc["search"]["evaluations"]
        assert new_doc == old_doc
        assert sorted(levels) == sorted(old_levels)
        for depth, (i, j, values) in levels.items():
            want_i, want_j, want = old_levels[depth]
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            assert values.tobytes() == want.tobytes(), (name, depth)
        # the points evaluated: 4 root corners, 10 per split cell and 2
        # per kept box
        boxes = len(rep.artificial) + len(rep.unresolved)
        assert rep.search["evaluations"] == points == (
            4 + 10 * splits + 2 * boxes)
        want = {"eq7_pair": "min_width",
                "eq7_cell_budget": "cell_budget"}.get(name, "exhausted")
        assert rep.search["stop"] == want and rep.search["depth"] > 8

    @pytest.mark.parametrize("sig", [INC_DEC, DEC_INC, INC_INC, DEC_DEC])
    def test_pattern_reads_each_child_corner(self, sig):
        """Each child's column names the table row of the value at its
        own least and greatest corner, for every signature."""
        pattern = fixed_points._split_pattern(sig.as_tuple())
        sx, sy = sig.as_tuple()
        # the table for one parent with cell (i, j) = (0, 0): each value
        # row holds a code of the node it is the value at, 100 p + 10 q
        # (+ 1 for F(y, x)); nodes and lines hold p or q
        inner = fixed_points._INNER
        codes = [100 * p + 10 * q for p, q in inner]
        codes += [100 * p + 10 * q + 1 for p, q in inner]
        corner = {-1: 2, 1: 0}
        lo = (corner[sx], corner[sy])
        hi = (2 - lo[0], 2 - lo[1])
        codes += [100 * lo[0] + 10 * lo[1], 100 * lo[0] + 10 * lo[1] + 1,
                  100 * hi[0] + 10 * hi[1], 100 * hi[0] + 10 * hi[1] + 1]
        table = np.array(codes + [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
                         dtype=float)
        kids = table[pattern]
        for c, (a, b) in enumerate(fixed_points._KIDS):
            # F(x, y) is least at (x0 or x1 by sx, y0 or y1 by sy); F(y, x)
            # at the node (y0 or y1 by sx, x0 or x1 by sy)
            lx, ly = int(sx < 0), int(sy < 0)
            assert kids[:, c].tolist() == [
                a, b,
                100 * (a + lx) + 10 * (b + ly),
                100 * (b + lx) + 10 * (a + ly) + 1,
                100 * (a + 1 - lx) + 10 * (b + 1 - ly),
                100 * (b + 1 - lx) + 10 * (a + 1 - ly) + 1,
                a + 1, b + 1, a, b]


class TestEq8LineFamily:
    def test_b3_frozen_value(self):
        assert eq8_b3(0.7, 0.3) == pytest.approx(0.05882058, abs=1e-8)

    def test_sign_constant_along_the_family(self):
        doc = closed_form_eq8_line_family(1.0, 0.3, m_probe=10.0)
        assert doc["x_star"] == pytest.approx(0.7)
        assert doc["sign_constant"]
        assert all(r != 0 for r in doc["residual_samples"])

    @pytest.mark.parametrize("p, h", [(1.0, 0.3), (2.0, 0.45), (3.0, 0.495),
                                      (1.0, 0.1)])
    def test_pinned_x_solves_the_second_equation(self, p, h):
        doc = closed_form_eq8_line_family(p, h, m_probe=10.0)
        F = make_eq8(p, h)[0].func
        for m in doc["m0"] + np.geomspace(1e-3, 1e3, 32):
            x = eq8_line_x(p, h, m)
            y = m * x + doc["x_star"]
            assert x > 0
            assert abs(F(y, x) - y) <= 1e-12 * max(1.0, y)

    def test_degenerate_height_rejected(self):
        with pytest.raises(DegenerateCase):
            closed_form_eq8_line_family(1.0, 0.5, m_probe=10.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ParamConstraint):
            closed_form_eq8_line_family(0.2, 0.4, m_probe=10.0)
