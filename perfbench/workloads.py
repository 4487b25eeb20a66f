"""Seeded operation lists for the four benchmark workloads.

An operation is one ``monomap`` CLI call: a subcommand, a config text, the
``--seed`` it gets and the facts its output is checked against.  The same
workload seed always gives the same list.  Each list is sized from the run
length, not from measured speed, so every run of a workload attempts the
same operations and the exact counts (``map_points``) repeat.

The parameter regions these inputs avoid, and why, are listed in README.md
("Regions the sweeps leave out").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from checks import eq7_threshold, pentagon_vertices, point_in_polygon

# index of each workload in the seed sequence, so two workloads never
# share a random stream for the same --seed
WORKLOADS = ("near_degenerate", "pentagon_sweep", "square_sweep", "domains")

# nominal operations per second of run length, measured on the 2-core
# reference machine; a round is sized to about 60% of the run length, so
# that on that machine a run ends after one round even when the host runs
# slow
_OPS_PER_SECOND = {
    "near_degenerate": 1 / 13,  # blocks of 3 certifies and 7 orbits
    "pentagon_sweep": 1.67,
    "square_sweep": 6.67,
    "domains": 27.5,
}
_ROUND_SHARE = 0.6


@dataclass
class Op:
    """One CLI call plus what its artifacts must show."""

    command: str
    config: str
    seed: int
    expect: dict = field(default_factory=dict)


def _cfg(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n"


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _n_ops(workload: str, seconds: int, minimum: int) -> int:
    return max(minimum, round(_ROUND_SHARE * seconds * _OPS_PER_SECOND[workload]))


# ---------------------------------------------------------------------------
# eq8 pentagon: F(x, y) = (p + 2px)/(1 + x + y) - h, x* = p - h.
# ---------------------------------------------------------------------------


def eq8_certify(p: float, h: float, seed: int) -> Op:
    return Op(
        "certify",
        _cfg({"map": {"family": "eq8", "p": repr(p), "h": repr(h)}}),
        seed,
        {"family": "eq8", "p": p, "h": h},
    )


def eq8_simulate(p: float, h: float, start, steps: int) -> Op:
    x0, x_m1 = (float(v) for v in start)
    return Op(
        "simulate",
        _cfg({
            "map": {"family": "eq8", "p": repr(p), "h": repr(h)},
            "run": {"x0": repr(x0), "x_m1": repr(x_m1), "steps": steps},
        }),
        0,
        {"family": "eq8", "p": p, "h": h, "x0": x0, "x_m1": x_m1,
         "steps": steps},
    )


def _start_in_pentagon(rng, p, h):
    """A start (x0, x_{-1}) drawn uniformly inside the pentagon, away
    from its edges by 1% of its size."""
    verts = pentagon_vertices(p, h)
    c = verts[1, 0]
    while True:
        x, y = rng.uniform(0.01 * c, 0.99 * c, 2)
        if point_in_polygon(np.array([x]), np.array([y]), verts,
                            margin=0.01 * c)[0]:
            return x, y


# near_degenerate: blocks of one certify at each of these heights plus
# N_ORBITS single orbits; p is drawn from a narrow band so the chain
# length, which grows like 1/(1 - 2h), varies little from seed to seed
NEAR_DEGENERATE_H = (0.49, 0.4925, 0.495)
NEAR_DEGENERATE_P = (0.9, 1.0)
NEAR_DEGENERATE_SIM_H = (0.45, 0.48)
ORBIT_STEPS = 10_000
N_ORBITS = 7


def near_degenerate(seed: int, seconds: int) -> tuple[Op, list[Op]]:
    rng = _rng("near_degenerate", seed)
    ops = []
    for _ in range(_n_ops("near_degenerate", seconds, 1)):
        ops += [
            eq8_certify(float(rng.uniform(*NEAR_DEGENERATE_P)), h,
                        int(rng.integers(0, 2**31)))
            for h in NEAR_DEGENERATE_H
        ]
        for _ in range(N_ORBITS):
            p = float(rng.uniform(*NEAR_DEGENERATE_P))
            h = float(rng.uniform(*NEAR_DEGENERATE_SIM_H))
            ops.append(eq8_simulate(p, h, _start_in_pentagon(rng, p, h),
                                    ORBIT_STEPS))
    warm = eq8_simulate(1.0, 0.3, (0.5, 0.5), 1000)
    return warm, ops


# pentagon_sweep: well-conditioned eq8 problems; h <= 0.45 keeps the
# corner chains short, so the fixed-point sweep and its oracle dominate
PENTAGON_P = (0.5, 3.0)
PENTAGON_H = (0.05, 0.45)


def pentagon_sweep(seed: int, seconds: int) -> tuple[Op, list[Op]]:
    rng = _rng("pentagon_sweep", seed)
    ops = []
    for _ in range(_n_ops("pentagon_sweep", seconds, 4)):
        p = float(rng.uniform(*PENTAGON_P))
        h = float(rng.uniform(PENTAGON_H[0], min(PENTAGON_H[1], 0.9 * p)))
        ops.append(eq8_certify(p, h, int(rng.integers(0, 2**31))))
    return eq8_certify(1.0, 0.3, 0), ops


# ---------------------------------------------------------------------------
# eq7 square: F(x, y) = (p + qx)/(1 + x + ry) on [0, q]^2.
# ---------------------------------------------------------------------------


# square_sweep keeps p at least this factor away from the threshold on
# either side; closer in, the sweep's Newton seeds stall (see README.md)
THRESHOLD_MARGIN = 2.0


def eq7_certify(p: float, q: float, r: float, seed: int) -> Op:
    return Op(
        "certify",
        _cfg({"map": {"family": "eq7", "p": repr(p), "q": repr(q),
                      "r": repr(r)}}),
        seed,
        {"family": "eq7", "p": p, "q": q, "r": r},
    )


def _eq7_triple(rng, regime: int):
    """A triple from one of the four regimes: 0 q <= 1, 1 r <= 1,
    2 p above the threshold, 3 p below it (an artificial pair)."""
    while True:
        if regime == 0:
            q = rng.uniform(0.3, 1.0)
            r = rng.uniform(0.2, 5.0)
            p = q * rng.uniform(0.1, 1.0)
        elif regime == 1:
            q = rng.uniform(1.0, 10.0)
            r = rng.uniform(0.1, 1.0)
            p = q * rng.uniform(0.1, 1.0)
        else:
            q = rng.uniform(1.5, 10.0)
            r = rng.uniform(1.5, 20.0)
            t = eq7_threshold(q, r)
            if regime == 2:
                lo, hi = THRESHOLD_MARGIN * t, q
            else:
                lo, hi = 0.05 * t, min(q, t / THRESHOLD_MARGIN)
            if not lo < hi:
                continue
            p = rng.uniform(lo, hi)
        return float(p), float(q), float(r)


def square_sweep(seed: int, seconds: int) -> tuple[Op, list[Op]]:
    rng = _rng("square_sweep", seed)
    ops = [
        eq7_certify(*_eq7_triple(rng, k % 4), int(rng.integers(0, 2**31)))
        for k in range(_n_ops("square_sweep", seconds, 8))
    ]
    return eq7_certify(1.0, 1.0, 1.0, 0), ops


# ---------------------------------------------------------------------------
# domains: extensions of random rational maps on random polygons.
# ---------------------------------------------------------------------------

RATIONAL_EXPR = {
    "inc_dec": "(a + b*x) / (1 + x + c*y)",
    "dec_inc": "(a + b*y) / (1 + y + c*x)",
}


def _ellipse_polygon(rng) -> np.ndarray:
    """5-12 vertices on a random rotated ellipse (always convex)."""
    n = int(rng.integers(5, 13))
    while True:
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        if np.min(np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))) >= 0.1:
            break
    rx, ry = rng.uniform(0.5, 2.0, 2)
    rot = rng.uniform(0.0, np.pi)
    cx, cy = rng.uniform(2.5, 4.0, 2)
    ex, ey = rx * np.cos(ang), ry * np.sin(ang)
    return np.column_stack([
        cx + ex * np.cos(rot) - ey * np.sin(rot),
        cy + ex * np.sin(rot) + ey * np.cos(rot),
    ])


def _notched_polygon(rng, sig: str) -> np.ndarray:
    """A rectangle with a V notch cut into its top edge (ccw).  For a
    dec_inc map the polygon is mirrored in the diagonal, which moves the
    notch to the right edge."""
    x0, y0 = rng.uniform(0.5, 2.0, 2)
    w, hgt = rng.uniform(1.0, 3.0, 2)
    left = x0 + w * rng.uniform(0.1, 0.4)
    right = x0 + w * rng.uniform(0.6, 0.9)
    tip = (left + (right - left) * rng.uniform(0.2, 0.8),
           y0 + hgt * rng.uniform(0.3, 0.8))
    pts = np.array([
        (x0, y0), (x0 + w, y0), (x0 + w, y0 + hgt), (right, y0 + hgt),
        tip, (left, y0 + hgt), (x0, y0 + hgt),
    ])
    if sig == "dec_inc":
        pts = pts[::-1, ::-1].copy()
    return pts


def domain_op(rng, k: int) -> Op:
    """The k-th extend operation: signatures alternate, and polygon kinds
    alternate every second operation."""
    sig = ("inc_dec", "dec_inc")[k % 2]
    # b >= a keeps the numerator dominant, so the map is monotone in the
    # declared directions on the whole positive quadrant
    b = float(rng.uniform(0.2, 2.0))
    a = float(b * rng.uniform(0.1, 1.0))
    c = float(rng.uniform(0.2, 2.0))
    if (k // 2) % 2 == 0:
        vertices = _ellipse_polygon(rng)
    else:
        vertices = _notched_polygon(rng, sig)
    return Op(
        "extend",
        _cfg({
            "map": {"family": "expression", "expr": RATIONAL_EXPR[sig],
                    "signature": sig, "a": repr(a), "b": repr(b),
                    "c": repr(c)},
            "domain": {"kind": "polygon", "vertices": ";".join(
                f"{x!r},{y!r}" for x, y in vertices.tolist())},
        }),
        int(rng.integers(0, 2**31)),
        {"signature": sig, "a": a, "b": b, "c": c,
         "vertices": vertices.tolist()},
    )


def domains(seed: int, seconds: int) -> tuple[Op, list[Op]]:
    rng = _rng("domains", seed)
    ops = [domain_op(rng, k) for k in range(_n_ops("domains", seconds, 8))]
    return domain_op(np.random.default_rng(0), 0), ops


GENERATORS = {
    "near_degenerate": near_degenerate,
    "pentagon_sweep": pentagon_sweep,
    "square_sweep": square_sweep,
    "domains": domains,
}
