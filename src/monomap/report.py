"""Deterministic report rendering: JSON, CSV, Markdown, and SVG.

Every writer here is a pure function of its inputs — no timestamps, no
environment-dependent metadata — so identical inputs produce identical
bytes, and reports can be diffed in CI.

The writers cost about one float format per value they hold: chain
rows and SVG points are built by C-level iteration (``map`` of a bound
``str.format`` or ``%``) over columns taken from numpy with ``tolist``,
and JSON by a small encoder that writes ``json``'s indented layout.
The orbit writer streams: it formats and writes ``_CSV_BLOCK`` values
at a time, because orbit files run to megabytes, and a whole file of
strings would raise the peak memory of every run that writes one.  It
formats each distinct value of a block once, since an orbit that has
settled into a cycle repeats a few values for thousands of steps, and
builds each row with one f-string over those strings.  The
chain writer keeps a few dozen checkpoint rows of each chain, and JSON
documents and SVG images are built in memory.
"""

from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

_PIECE_COLORS = {
    "base_map": "#9ecae1",
    "ray_const_y_plus": "#a1d99b",
    "ray_const_x_minus": "#fdae6b",
    "min_of_two": "#bcbddc",
    "max_of_two": "#fdd0a2",
    "graft": "#c7e9c0",
    "linear_sector": "#f4a6b8",
}


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
                      default=_json_default)


def _float_json(v: float) -> str:
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _encode(o, nl: str) -> str:
    """``o`` as ``_json_dumps`` writes it when ``nl`` is the newline and
    indent of its own line.  The type checks run the most frequent type
    first; only the checks for True and False must precede int's."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        try:
            # a leaf list of finite floats; repr of a finite float has no "n"
            body = sep.join(map(float.__repr__, o))
            if "n" in body:
                raise TypeError
        except TypeError:
            body = sep.join([_encode(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        try:
            keys = sorted(o)
            names = list(map(encode_basestring_ascii, keys))
        except TypeError:
            # a key that is not a str: json converts and sorts such keys
            # its own way
            return _json_dumps(o).replace("\n", nl)
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join([
            name + ": " + _encode(o[k], inner)
            for name, k in zip(names, keys)]) + nl + "}")
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, float):
        return _float_json(o)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if o is None:
        return "null"
    return _encode(_json_default(o), nl)


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, indent 2, ASCII, newline end.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True, default=_json_default)``, whose indented form
    runs on ``json``'s pure-Python encoder; ``_encode`` writes the same
    layout with one ``float.__repr__`` per value of a list of floats."""
    try:
        text = _encode(obj, "\n")
    except RecursionError:
        # a circular or very deep document: json raises its own error
        text = _json_dumps(obj)
    return text + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


# values formatted per write by the orbit writer
_CSV_BLOCK = 8192


def _write_csv(path, header: list, blocks) -> None:
    """Write the header, then each block, an iterable of lines each
    ended by \\r\\n as ``csv.writer`` ends them (no field needs
    quoting), one write a block."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lines in blocks:
            fh.write("".join(lines))


def _reprs(block: np.ndarray) -> np.ndarray:
    """The ``repr`` strings of a 2-d float block, an object array of its
    shape, one ``repr`` per distinct bit pattern (so 0.0 and -0.0 stay
    apart): an orbit that has settled into a cycle holds few distinct
    values."""
    bits, where = np.unique(block.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[where.reshape(block.shape)]


def _orbit_lines(steps: Sequence[int], block: np.ndarray) -> list:
    """The rows of a block of orbit traces, one f-string a row: the step,
    then the row's fields joined by commas.  A single orbit's one field
    goes in without the call to ``join``, and a row of no orbits is its
    step alone."""
    m = block.shape[1]
    if m == 0:
        return [f"{k}\r\n" for k in steps]
    text = _reprs(block)
    if m == 1:
        return [f"{k},{v}\r\n" for k, v in zip(steps, text[:, 0].tolist())]
    return [f"{k},{','.join(row)}\r\n" for k, row in zip(steps, text.tolist())]


def write_orbits_csv(path, traces: np.ndarray, steps: Sequence[int]) -> None:
    """Orbit traces: one row per kept step, labelled with that step, and
    one column per orbit."""
    traces = np.asarray(traces, dtype=float)
    n, m = traces.shape
    # the first rows of blocks of at most _CSV_BLOCK values
    rows = range(0, n, max(1, _CSV_BLOCK // max(1, m)))
    _write_csv(path, ["step"] + [f"orbit{i}" for i in range(m)],
               (_orbit_lines(steps[a:a + rows.step],
                             traces[a:a + rows.step]) for a in rows))


def _checkpoints(n_iter: int) -> list:
    """The iterations of a chain of ``n_iter`` steps that ``chains.csv``
    writes: 0, 1, 2, 4, ..., each power of two up to ``n_iter``, and
    ``n_iter``, each once."""
    steps = [0] + [1 << j for j in range(n_iter.bit_length())]
    return steps if steps[-1] == n_iter else steps + [n_iter]


def write_chains_csv(path, lo_chain, hi_chain) -> None:
    """Both corner chains in one file, at their checkpoint iterations
    (``_checkpoints``): a row holds the chain id, the iteration k,
    the state after k steps and ``step_norm``, the norm of step k (the
    step into the row; empty at k = 0).  Every value is its ``repr``."""
    dim = lo_chain.states.shape[1]
    line = ("{},{}" + ",{!r}" * dim + ",{}\r\n").format

    def lines(chain):
        ks = np.array(_checkpoints(chain.n_iter), dtype=np.intp)
        norms = map(repr, chain.step_norms[ks[1:] - 1].tolist())
        return map(line, itertools.repeat(chain.start), ks.tolist(),
                   *chain.states[ks].T.tolist(), itertools.chain([""], norms))

    _write_csv(path,
               ["chain", "iteration"] + [f"s{i}" for i in range(dim)]
               + ["step_norm"],
               (lines(lo_chain), lines(hi_chain)))


# ---------------------------------------------------------------------------
# SVG (hand-rolled; no raster dependencies, no timestamps).
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _points_attr(px: list, py: list) -> str:
    """The SVG points attribute of the pixel coordinates px, py, each
    formatted as ``_fmt`` formats it (``%.6g`` writes the same bytes,
    -0, nan and inf included)."""
    return " ".join(map("%.6g,%.6g".__mod__, zip(px, py)))


def _m4(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The mask of the points M4 keeps of a polyline through the pixel
    coordinates px, py (Jugel et al., PVLDB 7(10), 2014).  A column is a
    run of consecutive points with one floor(px); of each it keeps the
    first and the last point and the first with the least and with the
    greatest py, NaN aside.  A point with a NaN coordinate has no pixel
    and is kept.  The kept line covers the pixels the full one covers."""
    n = len(px)
    col = np.floor(px)
    first = np.ones(n, dtype=bool)
    first[1:] = col[1:] != col[:-1]
    last = np.ones(n, dtype=bool)
    last[:-1] = first[1:]
    keep = first | last | np.isnan(py)
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    for extreme in (np.fmin, np.fmax):
        hits = np.flatnonzero(py == extreme.reduceat(py, starts)[group])
        firsts = np.ones(len(hits), dtype=bool)
        firsts[1:] = group[hits[1:]] != group[hits[:-1]]
        keep[hits[firsts]] = True
    return keep


def _cell_changes(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The mask of the points of each row of px, py (one polyline a row)
    kept in the phase plot: all but those in the pixel cell (floor(px),
    floor(py)) of both of their neighbours, so the kept line runs
    through the same cells."""
    cx, cy = np.floor(px), np.floor(py)
    same = (cx[:, 1:] == cx[:, :-1]) & (cy[:, 1:] == cy[:, :-1])
    keep = np.ones(px.shape, dtype=bool)
    keep[:, 1:-1] = ~(same[:, :-1] & same[:, 1:])
    return keep


class _Canvas:
    """Maps data coordinates into a fixed-size SVG viewport (y up), with
    one scale for both axes, or with ``fill`` each axis scaled to span
    the plot area."""

    def __init__(self, x0, x1, y0, y1, size=640, margin=40, fill=False):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.size = size
        self.margin = margin
        width = size - 2 * margin
        if fill:
            self.sx = width / max(x1 - x0, 1e-30)
            self.sy = width / max(y1 - y0, 1e-30)
        else:
            self.sx = self.sy = width / max(x1 - x0, y1 - y0, 1e-30)
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]

    def pt(self, x, y):
        px = self.margin + (x - self.x0) * self.sx
        py = self.size - self.margin - (y - self.y0) * self.sy
        return px, py

    def _points(self, pts) -> str:
        """The SVG points attribute of an (n, 2) point list: ``pt`` on
        arrays, formatted as ``_fmt`` formats."""
        px, py = self.pt(*np.asarray(pts, dtype=float).T)
        return _points_attr(px.tolist(), py.tolist())

    def polygon(self, pts, fill, stroke="#333333", width=1.0, opacity=0.8):
        self.parts.append(
            f'<polygon points="{self._points(pts)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{width}" '
            f'fill-opacity="{opacity}"/>'
        )

    def polyline(self, px, py, stroke, width=1.0, opacity=1.0):
        """A polyline through the pixel coordinates px, py: iterables of
        floats, ``pt`` of the data points."""
        self.parts.append(
            f'<polyline points="{_points_attr(px, py)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width}" '
            f'stroke-opacity="{opacity}"/>'
        )

    def circle(self, x, y, r, fill):
        px, py = self.pt(x, y)
        self.parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}" fill="{fill}"/>'
        )

    def text(self, x, y, s, size=12, fill="#000000"):
        px, py = self.pt(x, y)
        self.parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="{size}" '
            f'font-family="monospace" fill="{fill}">{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_pieces_svg(ext) -> str:
    """The piece tiling of the extension rectangle, colored by rule."""
    r = ext.rect
    cv = _Canvas(r.x0, r.x1, r.y0, r.y1)
    for p in ext.pieces:
        color = _PIECE_COLORS.get(p.rule, "#dddddd")
        cv.polygon(np.asarray(p.polygon, dtype=float), fill=color)
    cv.polygon(
        [(r.x0, r.y0), (r.x1, r.y0), (r.x1, r.y1), (r.x0, r.y1)],
        fill="none",
        stroke="#000000",
        width=1.5,
        opacity=0.0,
    )
    legend = sorted({p.rule for p in ext.pieces})
    span = r.y1 - r.y0
    for i, rule in enumerate(legend):
        y = r.y1 - 0.04 * span * (i + 1)
        cv.circle(r.x0 + 0.02 * (r.x1 - r.x0), y, 5,
                  _PIECE_COLORS.get(rule, "#dddddd"))
        cv.text(r.x0 + 0.05 * (r.x1 - r.x0), y, rule, size=11)
    return cv.render()


def render_phase_svg(
    domain,
    traces: Optional[np.ndarray] = None,
    fixed_points: Sequence[float] = (),
    rect=None,
    previous: Optional[np.ndarray] = None,
) -> str:
    """The domain with orbit traces (x_k vs x_{k-1}) and fixed points:
    ``traces`` holds x_k, a row per kept step and a column per orbit, and
    ``previous`` the x_{k-1} beside it, by default the row before.  A
    point in the pixel cell of both of its neighbours is not drawn."""
    x0, x1, y0, y1 = rect.as_tuple() if rect is not None else domain.bbox
    cv = _Canvas(x0, x1, y0, y1)
    if rect is not None:
        cv.polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
                   fill="#f5f5f5", stroke="#999999")
    cv.polygon(domain.vertices, fill="#dbeafe", stroke="#1f4e9c", width=1.5)
    if traces is not None:
        t = np.asarray(traces, dtype=float)
        if previous is None:
            t, previous = t[1:], t[:-1]
        # every orbit through pt and the cell rule in one call each
        px, py = cv.pt(t.T, np.asarray(previous, dtype=float).T)
        keep = _cell_changes(px, py)
        xs, ys = px[keep].tolist(), py[keep].tolist()
        a = 0
        for b in np.cumsum(keep.sum(axis=1)).tolist():
            cv.polyline(xs[a:b], ys[a:b], stroke="#b04040", width=0.7,
                        opacity=0.5)
            a = b
    for x_star in fixed_points:
        cv.circle(x_star, x_star, 4, "#006400")
    return cv.render()


def render_orbit_svg(values: np.ndarray) -> str:
    """A single orbit as value vs step, scaled to the plot area on each
    axis and drawn at pixel resolution: the points M4 keeps of it."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-30:
        lo, hi = lo - 0.5, hi + 0.5
    cv = _Canvas(0, n - 1, lo, hi, fill=True)
    px, py = cv.pt(np.arange(n, dtype=float), values)
    keep = _m4(px, py)
    cv.polyline(px[keep].tolist(), py[keep].tolist(), stroke="#1f4e9c",
                width=1.2)
    cv.text(0, hi, f"n={n - 1} final={values[-1]:.9g}", size=12)
    return cv.render()


# ---------------------------------------------------------------------------
# Markdown certificate.
# ---------------------------------------------------------------------------


def render_certificate_md(cert) -> str:
    d = cert.to_dict()
    lines = [
        "# Global stability certificate",
        "",
        f"- **Map:** {d['map']['name']} with parameters "
        f"`{json.dumps(d['map']['params'], sort_keys=True)}`",
        f"- **Domain:** {d['domain']['name']} "
        f"(bbox {d['domain']['bbox']}, {d['domain']['n_vertices']} vertices)",
        f"- **Verdict:** **{d['verdict']}**"
        + (
            f" at x* = {d['verdict_detail']['x_star']!r}"
            if "x_star" in d["verdict_detail"]
            else ""
        ),
        "",
        "## Pipeline stages",
        "",
        "| stage | status | detail |",
        "|---|---|---|",
    ]
    for s in d["stages"]:
        extra = {k: v for k, v in s.items() if k not in ("stage", "status")}
        lines.append(
            f"| {s['stage']} | {s['status']} | "
            f"`{json.dumps(extra, sort_keys=True, default=str)}` |"
        )
    lines.append("")
    if d["invariance"] is not None:
        inv = d["invariance"]
        se = inv["search"]
        lines += [
            "## Invariance",
            "",
            f"- method: {inv['method']}",
            f"- verified: {inv['verified']} by {se['cells']} cells, "
            f"{se['evaluations']} evaluations, depth {se['depth']} "
            f"(stop: {se['stop']}), tol {se['tol']:.3e}",
            f"- unproved boxes: {se['unproved']}",
        ] + [f"- limit: {text}" for text in inv["limits"]]
        if "witness" in inv:
            lines.append(f"- witness: {inv['witness']}")
        lines.append("")
    if d["extension_audit"] is not None:
        a = d["extension_audit"]
        lines += [
            "## Extension audit",
            "",
            f"- continuity: {a['continuity_ok']} (max jump {a['max_jump']:.3e})",
            f"- agreement on the domain: {a['agreement_ok']} "
            f"(max disagreement {a['max_disagreement']:.3e})",
            f"- monotonicity: {a['monotone_ok']} "
            f"({a['n_monotone_violations']} violations)",
            f"- range inflation: {a['range_inflation']:.3e} "
            f"(nice: {a['nice_ok']})",
            "",
        ]
    if d["artificial_search"] is not None:
        art = d["artificial_search"]
        se = art["search"]
        lines += [
            "## Artificial fixed points",
            "",
            f"- equilibria: {[e['x'] for e in art['equilibria']]}",
            f"- artificial pairs: "
            f"{[(a_['x'], a_['y']) for a_ in art['artificial']]}",
            f"- monotone-enclosure search: {se['cells']} cells, "
            f"{se['evaluations']} evaluations, depth {se['depth']} "
            f"(stop: {se['stop']}), diagonal band {se['diagonal_band']:.3e}",
            f"- unresolved boxes: {[u['box'] for u in se['unresolved']]}",
        ] + [f"- limit: {text}" for text in art["limits"]] + [""]
    if d["corner_chain_limits"] is not None:
        cc = d["corner_chain_limits"]
        lines += [
            "## Corner chains",
            "",
            f"- variant: {cc['variant']}",
            f"- stop: {cc['stop']}, order-interval width {cc['gap']:.3e}",
            f"- min-corner chain: {cc['min_chain']['n_iter']} iterations, "
            f"limit {cc['min_chain']['limit']}",
            f"- max-corner chain: {cc['max_chain']['n_iter']} iterations, "
            f"limit {cc['max_chain']['limit']}",
            "",
        ]
    if d["orbit_ensemble"] is not None:
        oe = d["orbit_ensemble"]
        lines += [
            "## Orbit ensemble (corroboration only)",
            "",
            f"- {oe['n_orbits']} random orbits, up to {oe['steps']} steps",
            f"- domain exits: {oe['n_domain_exits']}",
            f"- max deviation of final values from x*: "
            f"{oe['max_final_deviation']:.3e}",
            "",
        ]
    lines += [
        "## Tolerances",
        "",
        f"`{json.dumps(d['tolerances'], sort_keys=True)}`",
        "",
    ]
    return "\n".join(lines)
