"""Deterministic report rendering: JSON, CSV, Markdown, and SVG.

Every writer here is a pure function of its inputs — no timestamps, no
environment-dependent metadata — so identical inputs produce identical
bytes, and reports can be diffed in CI.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional, Sequence

import numpy as np

SCHEMA_VERSION = 1

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


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, ASCII, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
                      default=_json_default) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def _write_csv(path, header: list, rows) -> None:
    """Write the header and the rows, each a list of strings, as
    ``csv.writer`` writes fields that need no quoting: joined by commas,
    every line ended by \\r\\n."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n"
                      for row in itertools.chain([header], rows))


def write_orbits_csv(path, traces: np.ndarray, keep_every: int = 100) -> None:
    """Orbit ensemble traces: one row per recorded step, one column per orbit."""
    traces = np.asarray(traces, dtype=float)
    _write_csv(path,
               ["step"] + [f"orbit{i}" for i in range(traces.shape[1])],
               ([str(k * keep_every), *map(repr, row.tolist())]
                for k, row in enumerate(traces)))


def write_chains_csv(path, lo_chain, hi_chain) -> None:
    """Both corner chains in one file: chain id, iteration, state, step norm."""
    dim = lo_chain.states.shape[1]

    def rows(chain):
        norms = itertools.chain([""], map(repr, chain.step_norms.tolist()))
        for k, (row, norm) in enumerate(zip(chain.states, norms)):
            yield [chain.start, str(k), *map(repr, row.tolist()), norm]

    _write_csv(path,
               ["chain", "iteration"] + [f"s{i}" for i in range(dim)]
               + ["step_norm"],
               itertools.chain(rows(lo_chain), rows(hi_chain)))


# ---------------------------------------------------------------------------
# SVG (hand-rolled; no raster dependencies, no timestamps).
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    """Maps data coordinates into a fixed-size SVG viewport (y up)."""

    def __init__(self, x0, x1, y0, y1, size=640, margin=40):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.size = size
        self.margin = margin
        span = max(x1 - x0, y1 - y0, 1e-30)
        self.scale = (size - 2 * margin) / span
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]

    def pt(self, x, y):
        px = self.margin + (x - self.x0) * self.scale
        py = self.size - self.margin - (y - self.y0) * self.scale
        return px, py

    def _points(self, pts) -> str:
        """The SVG points attribute of an (n, 2) point list: ``pt`` on
        arrays, formatted as ``_fmt`` formats."""
        px, py = self.pt(*np.asarray(pts, dtype=float).T)
        return " ".join(f"{a:.6g},{b:.6g}"
                        for a, b in zip(px.tolist(), py.tolist()))

    def polygon(self, pts, fill, stroke="#333333", width=1.0, opacity=0.8):
        self.parts.append(
            f'<polygon points="{self._points(pts)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{width}" '
            f'fill-opacity="{opacity}"/>'
        )

    def polyline(self, pts, stroke, width=1.0, opacity=1.0):
        self.parts.append(
            f'<polyline points="{self._points(pts)}" fill="none" '
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
) -> str:
    """The domain with orbit traces (x_k vs x_{k-1}) and fixed points."""
    if rect is not None:
        x0, x1, y0, y1 = rect.as_tuple()
    else:
        x0, x1, y0, y1 = domain.bbox
    cv = _Canvas(x0, x1, y0, y1)
    if rect is not None:
        cv.polygon(
            [(x0, y0), (x1, y0), (x1, y1), (x0, y1)],
            fill="#f5f5f5", stroke="#999999",
        )
    cv.polygon(domain.vertices, fill="#dbeafe", stroke="#1f4e9c", width=1.5)
    if traces is not None:
        traces = np.asarray(traces, dtype=float)
        for j in range(traces.shape[1]):
            cv.polyline(np.column_stack([traces[1:, j], traces[:-1, j]]),
                        stroke="#b04040", width=0.7, opacity=0.5)
    for x_star in fixed_points:
        cv.circle(x_star, x_star, 4, "#006400")
    return cv.render()


def render_orbit_svg(values: np.ndarray) -> str:
    """A single orbit as value vs step."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-30:
        lo, hi = lo - 0.5, hi + 0.5
    cv = _Canvas(0, n - 1, lo, hi)
    cv.polyline(np.column_stack([np.arange(n), values]), stroke="#1f4e9c",
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
