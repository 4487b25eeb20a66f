"""The symmetric monotone embedding of the planar dynamics.

A mixed-monotone planar map F (increasing in x, decreasing in y) embeds
into the order-preserving map

    G((x, y), (u, v)) = ((F(x, y), u), (F(u, v), x))  on [a, b]^4

(``Sym4``, the name ``certificate.json`` records).  G preserves the
componentwise order with signs (1, -1, -1, 1) and has explicit least and
greatest elements, so the iterates of the two extreme corners form
monotone chains that converge to fixed points of G and bracket every
orbit in between.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ChainMonotonicityBroken, EmbeddingUnavailable
from .extension import ExtendedMap, clamp_to
from .map_model import INC_DEC

SYM4 = "Sym4"

# componentwise order sign pattern: state s precedes state t exactly when
# sign * s <= sign * t holds in every coordinate
_ORDER_SIGNS = np.array([1, -1, -1, 1], dtype=float)

MIN_CORNER = "MinCorner"
MAX_CORNER = "MaxCorner"

# why run_corner_chains stopped
CONVERGED = "converged"
STALLED = "stalled"
MAX_ITER = "max_iter"

# a box that holds no point: ``step_corners`` then evaluates the
# extension at every step
NO_BOX = (math.inf, -math.inf, math.inf, -math.inf)


@dataclass
class OrderAudit:
    """Result of sampling comparable state pairs through one step of G."""

    ok: bool
    n_pairs: int
    worst_margin: float
    witness_before: Optional[np.ndarray] = None
    witness_after: Optional[np.ndarray] = None


@dataclass
class CornerChain:
    """Iterates of G started at one of the two extreme corners."""

    start: str  # MIN_CORNER or MAX_CORNER
    states: np.ndarray  # (n_iter + 1, dim)
    step_norms: np.ndarray  # (n_iter,)

    @property
    def n_iter(self) -> int:
        return len(self.step_norms)

    @property
    def limit(self) -> np.ndarray:
        """The last state, the chain's approximation of its limit."""
        return self.states[-1]

    def to_dict(self):
        return {
            "start": self.start,
            "n_iter": self.n_iter,
            "limit": self.limit.tolist(),
            "final_step_norm": float(self.step_norms[-1]) if self.n_iter else 0.0,
        }


class EmbeddedSystem:
    """The symmetric embedding of an extended planar map."""

    def __init__(self, source: ExtendedMap):
        if source.base.signature != INC_DEC:
            raise EmbeddingUnavailable(
                "embedding requires a mixed monotone map that increases in "
                "x and decreases in y; swap the arguments of a map that "
                "decreases in x first"
            )
        r = source.rect
        tol = 1e-9 * max(r.diam, 1.0)
        if abs(r.x0 - r.y0) > tol or abs(r.x1 - r.y1) > tol:
            raise EmbeddingUnavailable(
                "embedding requires a square rectangle [a, b] x [a, b]"
            )
        self.source = source
        self.a = float(r.x0)
        self.b = float(r.x1)
        self.order_signs = _ORDER_SIGNS
        self.state_dim = self.order_signs.size
        lo, hi = self.a, self.b
        self.min_corner = np.where(self.order_signs > 0, lo, hi).astype(float)
        self.max_corner = np.where(self.order_signs > 0, hi, lo).astype(float)

    # -- order ------------------------------------------------------------

    def precedes(self, s, t, tol: float = 0.0) -> bool:
        """True when s comes before t in the system's componentwise order."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return bool(np.all(self.order_signs * (t - s) >= -tol))

    # -- stepping -----------------------------------------------------------

    def step(self, state):
        """Apply G once.  Accepts a single state (dim,) or a batch (n, dim)."""
        s = np.asarray(state, dtype=float)
        single = s.ndim == 1
        s = np.atleast_2d(s)
        if s.shape[1] != self.state_dim:
            raise ValueError(
                f"state dimension {s.shape[1]} does not match {SYM4}"
            )
        pad = 1e-9 * (self.b - self.a)
        s = clamp_to(s, self.a, self.b, pad,
                     "embedded state outside the rectangle bounds")
        n = s.shape[0]
        out = np.empty_like(s)
        x, y, u, v = s.T
        vals = self.source.eval(np.concatenate([x, u]), np.concatenate([y, v]))
        out[:, 0] = vals[:n]
        out[:, 1] = u
        out[:, 2] = vals[n:]
        out[:, 3] = x
        # a nice extension keeps values inside the original range up to a
        # small audit tolerance; clamp so chains stay inside the box
        out = clamp_to(out, self.a, self.b, copy=False)
        return out[0] if single else out

    def step_corners(self, s: list, box: tuple = NO_BOX) -> list:
        """``step`` of the two states s[:4] and s[4:], in [a, b], on
        Python floats.  ``box`` (x0, x1, y0, y1) is a box on which the
        source's ``box_is_base`` holds, or ``NO_BOX``.  Where all four
        evaluation points lie in it, F itself is evaluated: point by
        point on the floats (``MapSpec.one``) for a float-exact map,
        else at the four points in one numpy call.  Otherwise the
        extension is evaluated at the four in one call, as ``step``
        calls it.  Either way the values have the bits ``step`` gives,
        and they are clipped to [a, b] as ``step`` clips them."""
        x0, y0, u0, v0, x1, y1, u1, v1 = s
        bx0, bx1, by0, by1 = box
        ext = self.source
        if not (bx0 <= x0 <= bx1 and bx0 <= x1 <= bx1 and bx0 <= u0 <= bx1
                and bx0 <= u1 <= bx1 and by0 <= y0 <= by1
                and by0 <= y1 <= by1 and by0 <= v0 <= by1
                and by0 <= v1 <= by1):
            f0, f1, f2, f3 = ext.eval(np.array([x0, x1, u0, u1]),
                                      np.array([y0, y1, v0, v1])).tolist()
        elif ext.base.float_exact:
            one = ext.base.one
            f0, f1, f2, f3 = (one(x0, y0), one(x1, y1), one(u0, v0),
                              one(u1, v1))
        else:
            f0, f1, f2, f3 = ext.base(np.array([x0, x1, u0, u1]),
                                      np.array([y0, y1, v0, v1])).tolist()
        t = [f0, u0, f2, x0, f1, u1, f3, x1]
        a, b = self.a, self.b
        if not (a <= f0 <= b and a <= f1 <= b and a <= f2 <= b
                and a <= f3 <= b):
            t = np.clip(t, a, b).tolist()
        return t


def check_order_preserving(
    sys: EmbeddedSystem,
    n_pairs: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> OrderAudit:
    """Sample comparable state pairs and verify G keeps them comparable,
    up to 1e-9 of the box span."""
    if rng is None:
        rng = np.random.default_rng(0)
    d = sys.state_dim
    lo = rng.uniform(sys.a, sys.b, size=(n_pairs, d))
    bump = rng.uniform(0.0, sys.b - sys.a, size=(n_pairs, d))
    hi = np.clip(lo + sys.order_signs * bump, sys.a, sys.b)
    g_lo = sys.step(lo)
    g_hi = sys.step(hi)
    margins = np.min(sys.order_signs * (g_hi - g_lo), axis=1)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    ok = worst >= -1e-9 * (sys.b - sys.a)
    return OrderAudit(
        ok=ok,
        n_pairs=n_pairs,
        worst_margin=worst,
        witness_before=None if ok else lo[k],
        witness_after=None if ok else hi[k],
    )


def run_corner_chains(
    sys: EmbeddedSystem,
    max_iter: int = 100000,
    tol: Optional[float] = None,
) -> Tuple[CornerChain, CornerChain, str]:
    """Iterate G from the least and greatest corners of the box.

    The two chains are monotone and converge to fixed points a* and b*
    of G with a* preceding b*; every orbit of G lies in the order
    interval between their iterates.  Both corners advance together,
    their states kept as Python floats, one ``sys.step_corners`` call a
    step; it gives the bits ``sys.step`` gives on the (2, 4) array.
    The stop is CONVERGED once the interval's width max|s_hi - s_lo| is
    at most ``tol`` (default 1e-8 of the box span), STALLED once the
    width falls by less than 0.1% over 1,000 steps, or MAX_ITER.  Each
    step is checked to move its chain in the chain's direction.

    The order interval nests in the one before, so every later
    evaluation point (x, y) or (u, v) lies in the hull of the two
    states' x and u coordinates times the hull of their y and v
    coordinates, up to the slack a step may lose.  At step 0 and each
    power of two, until the source's ``box_is_base`` holds on that box,
    the box is tried; once it holds it is kept, and steps inside it
    evaluate F.  Every other step evaluates the extension.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
    # the chain rises from the least element and falls from the greatest
    s = sys.min_corner.tolist() + sys.max_corner.tolist()
    states = array("d", s)
    stop = MAX_ITER
    checkpoint = math.inf
    box = NO_BOX
    for k in range(max_iter):
        if box is NO_BOX and not k & (k - 1):
            x0, y0, u0, v0, x1, y1, u1, v1 = s
            hull = (min(x0, u0, x1, u1), max(x0, u0, x1, u1),
                    min(y0, v0, y1, v1), max(y0, v0, y1, v1))
            if sys.source.box_is_base(*hull):
                box = hull
        t = sys.step_corners(s, box)
        # the steps against the order signs (1, -1, -1, 1) of the rising
        # chain and their negatives for the falling one
        lo_slack = min(t[0] - s[0], s[1] - t[1], s[2] - t[2], t[3] - s[3])
        hi_slack = min(s[4] - t[4], t[5] - s[5], t[6] - s[6], s[7] - t[7])
        if lo_slack < -slack_tol or hi_slack < -slack_tol:
            start, slack = ((MIN_CORNER, lo_slack) if lo_slack < -slack_tol
                            else (MAX_CORNER, hi_slack))
            raise ChainMonotonicityBroken(
                f"{start} chain lost monotonicity at "
                f"iteration {k + 1} (slack {slack:.3e}); the "
                "extension or its declared monotonicity is inconsistent"
            )
        states.extend(t)
        s = t
        width = max(abs(t[4] - t[0]), abs(t[5] - t[1]), abs(t[6] - t[2]),
                    abs(t[7] - t[3]))
        if width <= tol:
            stop = CONVERGED
            break
        if (k + 1) % 1000 == 0:
            if width > 0.999 * checkpoint:
                stop = STALLED
                break
            checkpoint = width
    # (2, n_iter + 1, 4)
    states = np.frombuffer(states).reshape(-1, 2, 4).transpose(1, 0, 2).copy()
    norms = np.max(np.abs(np.diff(states, axis=1)), axis=2)
    lo, hi = (CornerChain(start, states[c], norms[c])
              for c, start in enumerate((MIN_CORNER, MAX_CORNER)))
    if not sys.precedes(lo.limit, hi.limit, tol=10 * slack_tol):
        raise ChainMonotonicityBroken(
            "the lower corner chain overtook the upper corner chain"
        )
    return lo, hi, stop
