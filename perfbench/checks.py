"""Independent checks of the artifacts the CLI writes.

Each check reads an operation's output directory and returns a list of
problems (empty when the output is right).  The expected values come from
closed forms or from properties the method must have, computed here and
not by calling into ``monomap``; the one exception is the domains check,
which loads ``extension.json`` through the documented
``ExtendedMap.from_dict`` with this file's own copy of the map.

The ``corrupt_*`` functions damage an artifact in the way each check is
meant to catch; ``selftest.py`` shows every check rejects them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


# Sym4 order: state s precedes t when SIGNS * (t - s) >= 0 componentwise
SYM4_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


# ---------------------------------------------------------------------------
# Geometry and closed forms.
# ---------------------------------------------------------------------------


def _edge_distance(x, y, verts):
    """Distance from each point to the polygon boundary."""
    a = verts
    b = np.roll(verts, -1, axis=0)
    best = np.full(x.shape, np.inf)
    for (ax, ay), (bx, by) in zip(a, b):
        dx, dy = bx - ax, by - ay
        t = np.clip(((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy), 0, 1)
        best = np.minimum(best, np.hypot(x - (ax + t * dx), y - (ay + t * dy)))
    return best


def point_in_polygon(x, y, verts, margin=0.0, tol=0.0):
    """Even-odd test.  With ``margin`` a point must also be that far from
    the boundary; with ``tol`` a point that close to it counts as inside."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    verts = np.asarray(verts, dtype=float)
    inside = np.zeros(x.shape, dtype=bool)
    for (ax, ay), (bx, by) in zip(verts, np.roll(verts, -1, axis=0)):
        if ay != by:  # a horizontal edge is never crossed
            xi = ax + (y - ay) * (bx - ax) / (by - ay)
            inside ^= ((ay > y) != (by > y)) & (x < xi)
    if margin == 0.0 and tol == 0.0:
        return inside
    dist = _edge_distance(x, y, verts)
    ok = inside & (dist >= margin)
    return ok | (dist <= tol) if tol > 0 else ok


def pentagon_vertices(p: float, h: float) -> np.ndarray:
    """The invariant pentagon of eq8, from the paper's formulas."""
    xs = p - h
    c = xs * (xs + p + 1) / h
    return np.array([(c, 0.0), (c, c), (xs, c), (0.0, xs), (0.0, 0.0)])


def eq7_threshold(q: float, r: float) -> float:
    """p above this (with q > 1, r > 1) rules out artificial pairs."""
    return 0.25 * (r - 1) * (q - 1) ** 2


def rational_map(sig: str, a: float, b: float, c: float):
    """This file's own copy of the maps in workloads.RATIONAL_EXPR."""
    if sig == "inc_dec":
        return lambda x, y: (a + b * x) / (1 + x + c * y)
    return lambda x, y: (a + b * y) / (1 + y + c * x)


def positive_root(a: float, b: float, c: float) -> float:
    """Larger root of a x^2 + b x + c = 0 (a > 0, c < 0), without
    cancellation."""
    d = math.sqrt(b * b - 4 * a * c)
    return (-b + d) / (2 * a) if b <= 0 else (2 * c) / (-b - d)


def eq7_pair(p: float, q: float, r: float):
    """The artificial pair (x, y), x < y: (r-1)x^2 - (r-1)(q-1)x + p = 0
    with y = q - 1 - x."""
    a, b = r - 1.0, -(r - 1.0) * (q - 1.0)
    d = math.sqrt(b * b - 4 * a * p)
    x_small = (2 * p) / (-b + d)
    return x_small, (q - 1.0) - x_small


def eq7_stable(p: float, q: float, r: float) -> bool:
    return q <= 1 or r <= 1 or p > eq7_threshold(q, r)


# ---------------------------------------------------------------------------
# Artifact readers.
# ---------------------------------------------------------------------------


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_chains(out: Path, span: float) -> list:
    """Rows of each corner chain are monotone in the Sym4 order (rising
    from the least corner, falling from the greatest) and the last row of
    the min chain precedes the last row of the max chain."""
    header, rows = _csv_rows(out / "chains.csv")
    cols = [i for i, h in enumerate(header) if h[:1] == "s" and h[1:].isdigit()]
    if len(cols) != 4:
        return [f"chains.csv has {len(cols)} state columns, not 4"]
    chains = {}
    for row in rows:
        chains.setdefault(row[0], []).append([float(row[i]) for i in cols])
    if set(chains) != {"MinCorner", "MaxCorner"}:
        return [f"chains.csv holds chains {sorted(chains)}"]
    tol = 1e-9 * span
    problems = []
    for name, direction in (("MinCorner", 1.0), ("MaxCorner", -1.0)):
        s = np.asarray(chains[name])
        slack = direction * SYM4_SIGNS * np.diff(s, axis=0)
        if len(s) < 2 or slack.min() < -tol:
            k = int(np.argmin(slack.min(axis=1))) if len(s) > 1 else 0
            problems.append(f"{name} chain is not monotone at row {k + 1}")
    lo, hi = chains["MinCorner"][-1], chains["MaxCorner"][-1]
    if np.min(SYM4_SIGNS * (np.asarray(hi) - np.asarray(lo))) < -tol:
        problems.append("last min-chain row does not precede last max-chain row")
    return problems


def check_eq8_certify(out: Path, e: dict) -> list:
    cert = _json(out / "certificate.json")
    if cert["verdict"] != "GloballyStable":
        return [f"eq8({e['p']}, {e['h']}) verdict {cert['verdict']}"]
    problems = []
    x_star = cert["verdict_detail"]["x_star"]
    if not abs(x_star - (e["p"] - e["h"])) <= 1e-9:
        problems.append(f"x* = {x_star!r}, closed form {e['p'] - e['h']!r}")
    span = pentagon_vertices(e["p"], e["h"])[1, 0]
    return problems + check_chains(out, span)


def check_eq7_certify(out: Path, e: dict) -> list:
    p, q, r = e["p"], e["q"], e["r"]
    cert = _json(out / "certificate.json")
    if eq7_stable(p, q, r):
        if cert["verdict"] != "GloballyStable":
            return [f"stable eq7{(p, q, r)} verdict {cert['verdict']}"]
        x_star = cert["verdict_detail"]["x_star"]
        want = positive_root(1 + r, 1 - q, -p)
        problems = []
        if not abs(x_star - want) <= 1e-9:
            problems.append(f"x* = {x_star!r}, closed form {want!r}")
        return problems + check_chains(out, q)
    if cert["verdict"] != "Inconclusive":
        return [f"unstable eq7{(p, q, r)} verdict {cert['verdict']}"]
    found = (cert.get("artificial_search") or {}).get("artificial", [])
    x, y = eq7_pair(p, q, r)
    if len(found) != 1:
        return [f"eq7{(p, q, r)} lists {len(found)} artificial pairs, want 1"]
    got = (found[0]["x"], found[0]["y"])
    if max(abs(got[0] - x), abs(got[1] - y)) > 1e-6:
        return [f"artificial pair {got}, closed form {(x, y)}"]
    return []


def check_simulate(out: Path, e: dict) -> list:
    """Every (x_n, x_{n-1}) lies in the pentagon and the orbit ends
    within 1e-6 of x* = p - h."""
    header, rows = _csv_rows(out / "orbits.csv")
    vals = np.array([float(r[1]) for r in rows])
    if len(vals) != e["steps"] + 1 or vals[0] != e["x0"]:
        return [f"orbits.csv has {len(vals)} values, not {e['steps'] + 1} "
                f"starting at x0"]
    verts = pentagon_vertices(e["p"], e["h"])
    cur = vals
    prev = np.concatenate([[e["x_m1"]], vals[:-1]])
    inside = point_in_polygon(cur, prev, verts, tol=1e-9 * verts[1, 0])
    problems = []
    if not inside.all():
        k = int(np.argmin(inside))
        problems.append(f"orbit point {k} ({float(cur[k])!r}, {float(prev[k])!r}) is "
                        "outside the pentagon")
    if not abs(vals[-1] - (e["p"] - e["h"])) <= 1e-6:
        problems.append(f"orbit ends at {vals[-1]!r}, x* = {e['p'] - e['h']!r}")
    return problems


def _sampled_range(F, verts, n_edge=20000, n_grid=150):
    """Range of F over the polygon: every edge densely plus a grid."""
    t = np.linspace(0.0, 1.0, n_edge)
    ends = np.roll(verts, -1, axis=0)
    ex = (verts[:, None, 0] + t * (ends[:, None, 0] - verts[:, None, 0])).ravel()
    ey = (verts[:, None, 1] + t * (ends[:, None, 1] - verts[:, None, 1])).ravel()
    gx, gy = np.meshgrid(np.linspace(verts[:, 0].min(), verts[:, 0].max(), n_grid),
                         np.linspace(verts[:, 1].min(), verts[:, 1].max(), n_grid))
    keep = point_in_polygon(gx.ravel(), gy.ravel(), verts)
    v = F(np.concatenate([ex, gx.ravel()[keep]]),
          np.concatenate([ey, gy.ravel()[keep]]))
    return float(v.min()), float(v.max())


def check_extend(out: Path, e: dict, n: int = 97) -> list:
    """Reload the extension with this file's own F and check it on a grid
    offset from the audit's: equal to F strictly inside the polygon,
    monotone in the declared signature, and inside F's range on it."""
    from monomap.extension import ExtendedMap
    from monomap.map_model import DEC_INC, INC_DEC, Box, MapSpec

    if not _json(out / "extension_audit.json")["all_ok"]:
        return ["the program's own audit failed"]
    F = rational_map(e["signature"], e["a"], e["b"], e["c"])
    inc_dec = e["signature"] == "inc_dec"
    data = _json(out / "extension.json")
    rect = Box(*data["rect"])
    ext = ExtendedMap.from_dict(
        data, MapSpec(F, INC_DEC if inc_dec else DEC_INC, rect))
    verts = np.asarray(e["vertices"], dtype=float)

    frac = (np.arange(n) + 0.5) / n  # cell centres of an n x n grid
    gx = rect.x0 + frac * (rect.x1 - rect.x0)
    gy = rect.y0 + frac * (rect.y1 - rect.y0)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    V = np.asarray(ext.eval(X.ravel(), Y.ravel()), dtype=float)
    base = F(X.ravel(), Y.ravel())
    lo, hi = _sampled_range(F, verts)
    spread = max(hi - lo, 1e-12)

    problems = []
    diam = math.hypot(rect.x1 - rect.x0, rect.y1 - rect.y0)
    strict = point_in_polygon(X.ravel(), Y.ravel(), verts, margin=1e-6 * diam)
    if not strict.any():
        problems.append("no grid point lies strictly inside the polygon")
    elif np.any(V[strict] != base[strict]):
        k = int(np.argmax(np.abs(V - base) * strict))
        problems.append(f"extension differs from F inside at "
                        f"({float(X.ravel()[k])!r}, {float(Y.ravel()[k])!r})")
    V = V.reshape(n, n)
    sx, sy = (1.0, -1.0) if inc_dec else (-1.0, 1.0)
    worst = min((sx * np.diff(V, axis=0)).min(), (sy * np.diff(V, axis=1)).min())
    if worst < -1e-9 * spread:
        problems.append(f"extension breaks monotonicity by {-worst:.3e}")
    over = max(lo - V.min(), V.max() - hi)
    if over > 1e-6 * spread:
        problems.append(f"extension leaves F's range by {over:.3e}")
    return problems


def check(op, out: Path) -> list:
    """Problems with one operation's artifacts (empty when right)."""
    if op.command == "simulate":
        return check_simulate(out, op.expect)
    if op.command == "extend":
        return check_extend(out, op.expect)
    if op.expect["family"] == "eq8":
        return check_eq8_certify(out, op.expect)
    return check_eq7_certify(out, op.expect)


# ---------------------------------------------------------------------------
# Corruptions for the self-test.
# ---------------------------------------------------------------------------


def _rewrite_json(path: Path, edit) -> None:
    doc = _json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


def corrupt_x_star(out: Path) -> None:
    def edit(doc):
        doc["verdict_detail"]["x_star"] += 1e-6
    _rewrite_json(out / "certificate.json", edit)


def corrupt_artificial_pair(out: Path) -> None:
    def edit(doc):
        doc["artificial_search"]["artificial"][0]["x"] += 1e-5
    _rewrite_json(out / "certificate.json", edit)


def corrupt_swap_chain_rows(out: Path) -> None:
    lines = (out / "chains.csv").read_text().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]  # rows 1 and 2 of the min chain
    (out / "chains.csv").write_text("".join(lines))


def corrupt_orbit_point(out: Path) -> None:
    lines = (out / "orbits.csv").read_text().splitlines(keepends=True)
    step, value = lines[6].rstrip("\n").split(",")
    lines[6] = f"{step},{float(value) * 50 + 50!r}\n"
    (out / "orbits.csv").write_text("".join(lines))


def corrupt_extension_value(out: Path) -> None:
    """Raise the boundary values the north-west zone takes its maximum
    over, and lower those the south-east zone takes its minimum over."""
    def edit(doc):
        tables = doc["engine"]["tables"]
        tables["nw"]["fs"] = [v + 1.0 for v in tables["nw"]["fs"]]
        tables["se"]["fs"] = [v - 1.0 for v in tables["se"]["fs"]]
    _rewrite_json(out / "extension.json", edit)
