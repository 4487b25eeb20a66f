import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap import report
from monomap.report import (
    dumps_json,
    render_certificate_md,
    render_orbit_svg,
    render_phase_svg,
    render_pieces_svg,
    write_chains_csv,
    write_json,
    write_orbits_csv,
)
from monomap.examples import make_eq8
from monomap.embedding import (MAX_CORNER, MIN_CORNER, CornerChain,
                               EmbeddedSystem, run_corner_chains)
from monomap.geometry import DomainSpec
from monomap.map_model import Box
from monomap.stability import certify, iterate_orbit

# ---------------------------------------------------------------------------
# Oracles: the straightforward writers the fast ones must match byte for
# byte.
# ---------------------------------------------------------------------------

EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1 / 3, 123456789.0, 2.5e-300]


def oracle_dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
                      default=report._json_default) + "\n"


def oracle_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def oracle_orbits_csv(path, traces, steps) -> None:
    oracle_csv(path, ["step"] + [f"orbit{i}" for i in range(traces.shape[1])],
               ([str(k)] + [repr(v) for v in row.tolist()]
                for k, row in zip(steps, traces)))


def oracle_chain_row(c, k) -> list:
    """The CSV fields of iteration k of chain c: its id, k, the state
    and the norm of the step into it."""
    return ([c.start, str(k)] + [repr(v) for v in c.states[k].tolist()]
            + ["" if k == 0 else repr(float(c.step_norms[k - 1]))])


def oracle_checkpoints(n_iter) -> list:
    """0, n_iter and every power of two in between, ascending."""
    return [k for k in range(n_iter + 1)
            if k in (0, n_iter) or k & (k - 1) == 0]


def oracle_chains_csv(path, lo, hi, keep=None) -> None:
    """Every row of both chains, or the rows of the iterations
    ``keep(n_iter)`` lists."""
    dim = lo.states.shape[1]
    oracle_csv(path,
               ["chain", "iteration"] + [f"s{i}" for i in range(dim)]
               + ["step_norm"],
               (oracle_chain_row(c, k) for c in (lo, hi)
                for k in (range(c.n_iter + 1) if keep is None
                          else keep(c.n_iter))))


def oracle_points(px, py) -> str:
    """The SVG points attribute as a per-point f-string writes it."""
    return " ".join(f"{a:.6g},{b:.6g}" for a, b in zip(px, py))


def oracle_polyline(cv, px, py, stroke, width, opacity) -> None:
    cv.parts.append(
        f'<polyline points="{oracle_points(px, py)}" fill="none" '
        f'stroke="{stroke}" stroke-width="{width}" '
        f'stroke-opacity="{opacity}"/>'
    )


def pixel(v):
    """The pixel index floor(v) of a coordinate; inf and NaN stand for
    themselves (NaN equals no pixel)."""
    return math.floor(v) if math.isfinite(v) else v


def oracle_cell_rule(px, py):
    """The phase plot's points: each but those in the pixel cell of both
    of their neighbours."""
    cells = [(pixel(a), pixel(b)) for a, b in zip(px, py)]

    def same(i, j):
        return cells[i][0] == cells[j][0] and cells[i][1] == cells[j][1]

    keep = [i for i in range(len(cells))
            if not (0 < i < len(cells) - 1 and same(i, i - 1)
                    and same(i, i + 1))]
    return [px[i] for i in keep], [py[i] for i in keep]


def oracle_m4(px, py):
    """The orbit plot's points: in each run of points in one pixel
    column, the first, the last, and the first with the least and with
    the greatest py among those that are not NaN; and every NaN py."""
    columns = []
    for i in range(len(px)):
        if i and pixel(px[i]) == pixel(px[i - 1]):
            columns[-1].append(i)
        else:
            columns.append([i])
    keep = set()
    for col in columns:
        keep |= {col[0], col[-1]}
        ys = [py[i] for i in col if py[i] == py[i]]
        for want in (min(ys), max(ys)) if ys else ():
            keep.add(next(i for i in col if py[i] == want))
        keep |= {i for i in col if py[i] != py[i]}
    keep = sorted(keep)
    return [px[i] for i in keep], [py[i] for i in keep]


def oracle_phase_svg(domain, traces, fixed_points=(), rect=None,
                     previous=None) -> str:
    """The phase plot with each orbit mapped and formatted on its own."""
    if previous is None:
        traces, previous = traces[1:], traces[:-1]
    x0, x1, y0, y1 = rect.as_tuple() if rect is not None else domain.bbox
    cv = report._Canvas(x0, x1, y0, y1)
    if rect is not None:
        cv.polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                   fill="#f5f5f5", stroke="#999999")
    cv.polygon(domain.vertices, fill="#dbeafe", stroke="#1f4e9c", width=1.5)
    for j in range(traces.shape[1]):
        px = [cv.pt(a, b)[0] for a, b in zip(traces[:, j], previous[:, j])]
        py = [cv.pt(a, b)[1] for a, b in zip(traces[:, j], previous[:, j])]
        oracle_polyline(cv, *oracle_cell_rule(px, py), "#b04040", 0.7, 0.5)
    for x_star in fixed_points:
        cv.circle(x_star, x_star, 4, "#006400")
    return cv.render()


def oracle_orbit_svg(values) -> str:
    """The orbit plot with its own pixel mapping: step k and value v
    each scaled to the 560-pixel plot area inside a 40-pixel margin."""
    n = len(values)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-30:
        lo, hi = lo - 0.5, hi + 0.5
    cv = report._Canvas(0, n - 1, lo, hi, fill=True)
    sx, sy = 560 / max(n - 1, 1e-30), 560 / max(hi - lo, 1e-30)
    px = [40 + k * sx for k in range(n)]
    py = [600 - (float(v) - lo) * sy for v in values]
    oracle_polyline(cv, *oracle_m4(px, py), "#1f4e9c", 1.2, 1.0)
    cv.text(0, hi, f"n={n - 1} final={values[-1]:.9g}", size=12)
    return cv.render()


def edge_matrix(rng, n, m):
    """An (n, m) matrix of seeded values with the edge floats mixed in."""
    a = rng.normal(0.0, 1.0, (n, m)) * 10.0 ** rng.integers(-8, 8, (n, m))
    mask = rng.random((n, m)) < 0.3
    a[mask] = rng.choice(EDGE_FLOATS, int(mask.sum()))
    return a


class TestJson:
    def test_keys_are_sorted_and_stable(self):
        a = dumps_json({"b": 1, "a": [2.5, 3]})
        b = dumps_json({"a": [2.5, 3], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
        assert a.endswith("\n")

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"x": 1.5})
        assert json.loads(path.read_text()) == {"x": 1.5}

    def test_numpy_values_serialize(self, tmp_path):
        doc = {"v": np.float64(0.25), "n": np.int64(3),
               "arr": np.array([1.0, 2.0])}
        text = dumps_json(doc)
        assert json.loads(text) == {"v": 0.25, "n": 3, "arr": [1.0, 2.0]}


class TestCsv:
    def test_chains_csv(self, tmp_path, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, _ = run_corner_chains(sys)
        path = tmp_path / "chains.csv"
        write_chains_csv(path, lo, hi)
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 2
        assert lines[0].count(",") >= 2

    def test_orbits_csv(self, tmp_path):
        traces = np.linspace(0, 1, 40).reshape(10, 4)
        path = tmp_path / "orbits.csv"
        write_orbits_csv(path, traces, range(10))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 rows


class TestSvg:
    def test_pieces_svg(self, eq8_ext):
        svg = render_pieces_svg(eq8_ext)
        assert svg.startswith("<svg") or "<svg" in svg
        assert "</svg>" in svg

    def test_phase_svg(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        svg = render_phase_svg(d)
        assert "<svg" in svg and "</svg>" in svg

    def test_orbit_svg(self):
        svg = render_orbit_svg(np.linspace(0.2, 0.7, 30))
        assert "<svg" in svg

    def test_svg_is_deterministic(self, eq8_ext):
        assert render_pieces_svg(eq8_ext) == render_pieces_svg(eq8_ext)


class TestCertificateMarkdown:
    def test_contains_verdict_and_stages(self, eq8_problem):
        spec, domain = eq8_problem
        cert = certify(spec, domain)
        md = render_certificate_md(cert)
        assert "GloballyStable" in md
        assert "invariance" in md.lower()


# ---------------------------------------------------------------------------
# The fast writers against the oracles.
# ---------------------------------------------------------------------------


def edge_document():
    """A JSON document with every kind of value the encoder must handle."""
    rng = np.random.default_rng(7)
    return {
        "floats": EDGE_FLOATS,
        "finite": [v for v in EDGE_FLOATS if np.isfinite(v)],
        "scalars": {"neg_zero": -0.0, "nan": float("nan"),
                    "inf": float("inf"), "tiny": 5e-324, "big": 1e16,
                    "small": 1e-5, "int": -12, "huge_int": 2**70},
        "flags": [True, False, None, 0, 1, 1.0],
        "text": ["plain", "π ≤ ∞", "naïve café", "tab\tnew\nline",
                 'quote " backslash \\', " \x00\x7f", "😀", ""],
        "π-key": {"ünïcode": "ключ"},
        "empty": {"dict": {}, "list": [], "tuple": (), "str": ""},
        "nested": [[[]], [{}], [[1.5, [2.5, {"k": [()]}]]], [[0.5, -0.0]]],
        "tuples": (1.0, 2.0, (3, "x", (None,))),
        "mixed": [1.0, 2, 3.5, True],
        "numpy": {
            "f64": np.float64(0.1), "f32": np.float32(0.1),
            "i64": np.int64(-3), "i32": np.int32(7), "u8": np.uint8(255),
            "b": np.bool_(True), "b0": np.bool_(False),
            "f64_nan": np.float64("nan"), "f32_inf": np.float32("-inf"),
        },
        "arrays": {
            "vec": rng.normal(size=5), "mat": rng.normal(size=(3, 2)),
            "ints": np.arange(4), "bools": np.array([True, False]),
            "empty": np.zeros(0), "zero_d": np.array(2.5),
            "edges": np.array(EDGE_FLOATS),
        },
    }


class TestJsonOracle:
    def test_edge_document(self):
        doc = edge_document()
        assert dumps_json(doc) == oracle_dumps_json(doc)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, float("nan"), float("inf"), 1e16, None, True, "é", [],
        {}, (), [[]], np.float64(-0.0), np.arange(3.0), np.int64(5)])
    def test_top_level_values(self, value):
        assert dumps_json(value) == oracle_dumps_json(value)

    def test_non_str_keys_fall_back_to_json(self):
        doc = {"outer": {"a": {1: [0.5, -0.0], 3: {"z": 1}},
                         "b": {2.5: "x", 0.5: {"deep": [float("nan")]}},
                         "c": [{False: 1, 2: (3.0,)}]}}
        assert dumps_json(doc) == oracle_dumps_json(doc)

    def test_unsortable_keys_raise_as_json_does(self):
        doc = {"a": {"k": 1, 2: 3}}
        with pytest.raises(TypeError):
            oracle_dumps_json(doc)
        with pytest.raises(TypeError):
            dumps_json(doc)

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps_json({"a": [object()]})

    def test_circular_document_raises_recursion_error(self):
        # no writer passes one; json would raise ValueError instead
        doc = {"a": []}
        doc["a"].append(doc)
        with pytest.raises(ValueError, match="Circular reference"):
            oracle_dumps_json(doc)
        with pytest.raises(RecursionError):
            dumps_json(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.floats().map(np.float64) | st.integers(-9, 9).map(np.int64)
        | st.text(),
        lambda children: st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(st.floats(), min_size=1),
        max_leaves=30))
    def test_json_trees(self, tree):
        assert dumps_json(tree) == oracle_dumps_json(tree)


class TestCsvOracle:
    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 5])
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (9, 1), (37, 4)])
    @pytest.mark.parametrize("keep_every", [1, 100])
    def test_orbits_csv(self, tmp_path, monkeypatch, block, shape,
                        keep_every):
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        traces = edge_matrix(np.random.default_rng(11), *shape)
        # the last row is an early stop between two kept steps
        steps = [k * keep_every for k in range(len(traces))]
        if len(steps) > 1:
            steps[-1] -= keep_every // 2
        write_orbits_csv(tmp_path / "fast.csv", traces, steps)
        oracle_orbits_csv(tmp_path / "want.csv", traces, steps)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 12, 5, 1])
    @pytest.mark.parametrize("case", ["one_value", "signed_zeros", "cycles"])
    def test_orbits_csv_of_repeated_values(self, tmp_path, monkeypatch,
                                           block, case):
        """The writer formats each distinct bit pattern of a block once;
        runs of a value, 0.0 beside -0.0, and runs that cross blocks."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        if case == "one_value":
            traces = np.full((40, 1), 0.1)
            traces[:3, 0] = [2.0, 1 / 3, 0.1]
        elif case == "signed_zeros":
            # 0.0 and -0.0 alternate in a column and face each other
            # across columns
            col = np.where(np.arange(23) % 2, -0.0, 0.0)
            traces = np.stack([col, -col, np.zeros(23), col], axis=1)
        else:
            # three columns settled on cycles of periods 1, 2 and 3
            k = np.arange(31)
            traces = np.stack([np.full(31, 0.7),
                               np.where(k % 2, 0.25, -0.0),
                               np.array([1e-5, 1 / 3, -2.5])[k % 3]], axis=1)
        steps = list(range(len(traces)))
        write_orbits_csv(tmp_path / "fast.csv", traces, steps)
        oracle_orbits_csv(tmp_path / "want.csv", traces, steps)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 12, 1])
    @pytest.mark.parametrize("period", [1, 2, 3, 4, 6])
    def test_orbits_csv_of_a_settled_orbit(self, tmp_path, monkeypatch,
                                          block, period):
        """A simulate-shaped file: one orbit of 10,000 steps, a transient
        of 100 steps, then a cycle of a period a near_degenerate orbit
        settles on."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        rng = np.random.default_rng(period)
        cycle = edge_matrix(rng, period, 1)[:, 0]
        col = np.concatenate([edge_matrix(rng, 100, 1)[:, 0],
                              np.resize(cycle, 10_001 - 100)])
        traces = col[:, None]
        steps = range(len(traces))
        write_orbits_csv(tmp_path / "fast.csv", traces, steps)
        oracle_orbits_csv(tmp_path / "want.csv", traces, steps)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 12, 1])
    def test_orbits_csv_of_an_ensemble(self, tmp_path, monkeypatch, block):
        """A certify-shaped file: 100 orbits of all-distinct values kept
        every 100th step, the last row an early stop."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        traces = np.random.default_rng(7).normal(size=(102, 100))
        assert len(np.unique(traces)) == traces.size
        steps = [100 * k for k in range(101)] + [10_037]
        write_orbits_csv(tmp_path / "fast.csv", traces, steps)
        oracle_orbits_csv(tmp_path / "want.csv", traces, steps)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 12, 1])
    def test_orbits_csv_of_no_orbits(self, tmp_path, monkeypatch, block):
        """An (n, 0) trace: each row is its step alone, no comma."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        traces = np.empty((5, 0))
        steps = [0, 1, 2, 4, 8]
        write_orbits_csv(tmp_path / "fast.csv", traces, steps)
        oracle_orbits_csv(tmp_path / "want.csv", traces, steps)
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got == b"step\r\n0\r\n1\r\n2\r\n4\r\n8\r\n"

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 7])
    def test_chains_csv_of_a_real_chain(self, tmp_path, monkeypatch,
                                        eq8_ext, block):
        """The orbit writer's block size leaves chains.csv as it is."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        lo, hi, _ = run_corner_chains(EmbeddedSystem(eq8_ext))
        assert lo.n_iter > 4 and hi.n_iter > 4
        write_chains_csv(tmp_path / "fast.csv", lo, hi)
        oracle_chains_csv(tmp_path / "want.csv", lo, hi,
                          keep=oracle_checkpoints)
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


def sym4_chain(start, rng, n, signed_zero=False):
    """A chain whose rows follow (x, y, u, v) -> (f, u, g, x): columns s1
    and s3 of each row are bit copies of s2 and s0 of the row before."""
    f = edge_matrix(rng, n, 2)
    if signed_zero:
        f[::2, 0], f[1::2, 0] = -0.0, 0.0
    states = np.empty((n, 4))
    states[0] = edge_matrix(rng, 1, 4)[0]
    for k in range(1, n):
        x, _, u, _ = states[k - 1]
        states[k] = (f[k, 0], u, f[k, 1], x)
    norms = np.max(np.abs(np.diff(states, axis=0)), axis=1)
    return CornerChain(start, states, norms)


def write_both_chains(tmp_path, lo, hi):
    """chains.csv of lo and hi from the writer, checked against the oracle
    at the checkpoint rows; its lines."""
    write_chains_csv(tmp_path / "fast.csv", lo, hi)
    oracle_chains_csv(tmp_path / "want.csv", lo, hi,
                      keep=oracle_checkpoints)
    got = (tmp_path / "fast.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got.decode().splitlines()


class TestChainsCsvCheckpoints:
    @pytest.mark.parametrize("n_iter", [1, 2, 3, 4, 5, 64, 65])
    def test_checkpoint_rows(self, tmp_path, n_iter):
        rng = np.random.default_rng(n_iter)
        lo = sym4_chain(MIN_CORNER, rng, n_iter + 1, True)
        hi = CornerChain(MAX_CORNER, edge_matrix(rng, n_iter + 1, 4),
                         np.abs(edge_matrix(rng, n_iter, 1)[:, 0]))
        lines = write_both_chains(tmp_path, lo, hi)
        want = oracle_checkpoints(n_iter)
        assert [int(line.split(",")[1]) for line in lines[1:]] == want * 2
        if n_iter == 1:  # two rows a chain, so each shows a step
            assert len(lines) == 1 + 2 + 2

    def test_chain_of_no_steps(self, tmp_path):
        rng = np.random.default_rng(4)
        lo = CornerChain(MIN_CORNER, edge_matrix(rng, 1, 4), np.empty(0))
        lines = write_both_chains(tmp_path, lo,
                                  sym4_chain(MAX_CORNER, rng, 9))
        assert [line.split(",")[1] for line in lines[1:]] == [
            "0", "0", "1", "2", "4", "8"]


class TestChainsCsvShift:
    """Chains of the Sym4 shape, whose columns s1 and s3 repeat s2 and s0
    of the row before."""

    @pytest.mark.parametrize("block", [report._CSV_BLOCK, 6])
    def test_falls_back_where_the_shift_is_not_a_bit_copy(
            self, tmp_path, monkeypatch, block):
        """-0.0 == 0.0, so a writer that took a column's repr from the
        row before by value would write "0.0" where the state holds -0.0;
        each is written as its own repr."""
        monkeypatch.setattr(report, "_CSV_BLOCK", block)
        rng = np.random.default_rng(5)
        lo = sym4_chain(MIN_CORNER, rng, 30)
        lo.states[7, 2] = 0.0
        lo.states[8, 1] = -0.0
        lo.states[15, 0] = -0.0
        lo.states[16, 3] = 0.0
        hi = CornerChain(MAX_CORNER, edge_matrix(rng, 12, 4),
                         np.abs(rng.normal(size=11)))
        lines = write_both_chains(tmp_path, lo, hi)
        assert lines[5].split(",")[:2] == ["MinCorner", "8"]
        assert lines[5].split(",")[3] == "-0.0"  # row 8, column s1
        assert lines[6].split(",")[:2] == ["MinCorner", "16"]
        assert lines[6].split(",")[5] == "0.0"  # row 16, column s3


class TestSvgOracle:
    def test_points_attr_matches_the_fstring(self):
        xs = EDGE_FLOATS + list(np.random.default_rng(2).normal(size=50)
                                * 1e3)
        ys = xs[::-1]
        assert report._points_attr(xs, ys) == " ".join(
            f"{a:.6g},{b:.6g}" for a, b in zip(xs, ys))

    @pytest.mark.parametrize("shape", [(0, 2), (1, 3), (25, 1), (60, 5)])
    def test_phase_svg(self, shape):
        domain = DomainSpec.rectangle(0.0, 2.0, -1.0, 1.5)
        traces = edge_matrix(np.random.default_rng(13), *shape)
        rect = Box(-0.5, 2.5, -1.5, 2.0)
        assert (render_phase_svg(domain, traces, [0.25, -0.0], rect)
                == oracle_phase_svg(domain, traces, [0.25, -0.0], rect))
        assert (render_phase_svg(domain, traces)
                == oracle_phase_svg(domain, traces))

    @pytest.mark.parametrize("shape", [(0, 2), (1, 3), (25, 1), (60, 5)])
    def test_phase_svg_of_kept_steps(self, shape):
        # each row of traces beside its own x_{k-1}, as certify keeps them
        domain = DomainSpec.rectangle(0.0, 2.0, -1.0, 1.5)
        rng = np.random.default_rng(19)
        traces, previous = edge_matrix(rng, *shape), edge_matrix(rng, *shape)
        rect = Box(-0.5, 2.5, -1.5, 2.0)
        assert (render_phase_svg(domain, traces, [0.25], rect, previous)
                == oracle_phase_svg(domain, traces, [0.25], rect, previous))

    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_orbit_svg(self, n):
        values = np.random.default_rng(17).normal(size=n) * 1e-3
        values[:: 7] = -0.0
        values[3:: 11] = 5e-324
        assert render_orbit_svg(values) == oracle_orbit_svg(values)

    @pytest.mark.parametrize("edges", [(), (-0.0, 5e-324), (float("nan"),),
                                       (float("inf"), -0.0),
                                       (-float("inf"), float("nan"))],
                             ids=["finite", "zeros", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [3, 40, 6000])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_orbit_svg_decimates(self, n, edges):
        # a slow walk, with runs of repeats, decimated many points a
        # column; the edge floats make NaN pixels or collapse the scale
        rng = np.random.default_rng(n)
        values = np.cumsum(rng.normal(size=n)) * 0.05
        values[rng.random(n) < 0.2] = 0.25
        for v in edges:
            values[rng.integers(0, n, max(1, n // 50))] = v
        assert render_orbit_svg(values) == oracle_orbit_svg(values)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1), (400, 4), (3000, 2)])
    def test_phase_svg_drops_repeated_cells(self, shape):
        # slow walks that stay in a pixel cell for a few steps, runs of
        # repeats, and edge floats
        rng = np.random.default_rng(shape[0])
        walk = 0.5 + np.cumsum(rng.normal(size=shape), axis=0) * 5e-4
        walk[rng.random(shape) < 0.2] = 0.75
        walk[rng.random(shape) < 0.02] = rng.choice(EDGE_FLOATS)
        domain = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        for args in ((), ([0.5], Box(-0.5, 1.5, -0.5, 1.5), walk[::-1])):
            assert (render_phase_svg(domain, walk, *args)
                    == oracle_phase_svg(domain, walk, *args))


def polylines(svg):
    """The points of each polyline of an SVG image, as strings."""
    return [points.split(" ") if points else []
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


class TestOrbitPlotResolution:
    """The orbit plot keeps, of each pixel column of the full polyline,
    its first, last, least and greatest point, in their order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_each_column_keeps_its_m4_points(self, seed):
        rng = np.random.default_rng(seed)
        p, h = rng.uniform(0.9, 1.0), rng.uniform(0.45, 0.48)
        spec, domain = make_eq8(p, h)
        x0, x_m1 = (p - h) * rng.uniform(0.6, 1.4, 2)
        steps = int(rng.integers(2000, 12000))
        orbit = iterate_orbit(spec, x0, x_m1, steps, domain=domain)
        values = orbit.values
        n = len(values)
        kept = polylines(render_orbit_svg(values))[0]
        lo, hi = float(values.min()), float(values.max())
        cv = report._Canvas(0, n - 1, lo, hi, fill=True)
        px, py = cv.pt(np.arange(n, dtype=float), values)
        full = report._points_attr(px.tolist(), py.tolist()).split(" ")
        # the kept points are full points, in their order (each step has
        # its own x string)
        at = {point: k for k, point in enumerate(full)}
        index = [at[point] for point in kept]
        assert index == sorted(set(index))
        column = np.floor(px)
        for c in np.unique(column):
            ks = np.flatnonzero(column == c)
            want = {ks[0], ks[-1], ks[np.argmin(py[ks])],
                    ks[np.argmax(py[ks])]}
            assert want <= set(index), (c, want)
        assert len(kept) <= 4 * len(np.unique(column))

    def test_long_orbit_spans_the_plot_height(self):
        """A 10,000-step orbit fills the plot area in y as it does in x
        (one scale for both axes drew it as a flat line)."""
        spec, domain = make_eq8(1.0, 0.45)
        values = iterate_orbit(spec, 2.0, 0.5, 10_000, domain=domain).values
        points = polylines(render_orbit_svg(values))[0]
        px, py = np.array([p.split(",") for p in points], dtype=float).T
        assert px.min() == 40 and px.max() == 600
        assert py.min() == pytest.approx(40) and py.max() == 600
