"""The symmetric monotone embedding of the planar dynamics.

A mixed-monotone planar map F (increasing in x, decreasing in y) embeds
into the order-preserving map

    G((x, y), (u, v)) = ((F(x, y), u), (F(u, v), x))  on [a, b]^4

(``Sym4``, the name ``certificate.json`` records).  G preserves the
componentwise order with signs (1, -1, -1, 1) and has explicit least and
greatest elements, so the iterates of the two extreme corners form
monotone chains that converge to fixed points of G and bracket every
orbit in between.  G commutes with the swap (x, y, u, v) -> (u, v, x, y),
which maps the least corner to the greatest, so only the chain from the
least corner is stepped, with F at two points a step; the other chain is
its swap image.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ChainMonotonicityBroken, EmbeddingUnavailable
from .extension import NO_BOX, BaseBoxEval, ExtendedMap, clamp_to
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
                f"the {SYM4} embedding requires a map that increases in x "
                "and decreases in y; certify does not support a map that "
                "decreases in x and increases in y yet"
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

    def step_floats(self, s: list, near: BaseBoxEval) -> list:
        """``step`` of the one state s, in [a, b], on Python floats: the
        two evaluation points (x, y) and (u, v) go to ``near``, a
        ``BaseBoxEval`` of the source, in one call, with their hull, so
        that F itself is evaluated where they lie in its kept box and the
        extension elsewhere.  Either way the values have the bits
        ``step`` gives, and they are clipped to [a, b] as ``step`` clips
        them."""
        x, y, u, v = s
        f, g = near.eval(np.array([x, u]), np.array([y, v]),
                         (min(x, u), max(x, u), min(y, v), max(y, v))).tolist()
        t = [f, u, g, x]
        a, b = self.a, self.b
        if not (a <= f <= b and a <= g <= b):
            t = np.clip(t, a, b).tolist()
        return t


def check_order_preserving(
    sys: EmbeddedSystem,
    n_pairs: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> OrderAudit:
    """Sample comparable state pairs and verify G keeps them comparable,
    up to 1e-9 of the box span.  Both states of every pair go through
    one ``sys.step`` call."""
    if rng is None:
        rng = np.random.default_rng(0)
    d = sys.state_dim
    lo = rng.uniform(sys.a, sys.b, size=(n_pairs, d))
    bump = rng.uniform(0.0, sys.b - sys.a, size=(n_pairs, d))
    hi = np.clip(lo + sys.order_signs * bump, sys.a, sys.b)
    g_lo, g_hi = np.split(sys.step(np.concatenate([lo, hi])), 2)
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
    interval between their iterates.  G commutes with the swap
    sigma(x, y, u, v) = (u, v, x, y), which maps the least corner to
    the greatest, so the MaxCorner chain is the sigma image of the
    MinCorner chain, bit for bit.  Only the MinCorner chain is stepped,
    its state kept as Python floats, with F at two points a step; it
    gives the bits ``sys.step`` gives.  The MaxCorner chain's states are
    its columns swapped, with the same step norms.  The stop is
    CONVERGED once the interval's width
    max|s_hi - s_lo| is at most ``tol`` (default 1e-8 of the box span),
    STALLED once the width falls by less than 0.1% over 1,000 steps, or
    MAX_ITER.  Each step is checked to move each chain in its direction.

    The order interval nests in the one before, so every later
    evaluation point (x, y) or (u, v) lies in the hull of the state's x
    and u coordinates times the hull of its y and v coordinates, up to
    the slack a step may lose.  At step 0 and each power of two, until
    one is kept, that box is tried by a ``BaseBoxEval`` of the source.
    A state inside the kept box of a float-exact map is stepped inline,
    F's float twin (``MapSpec.func``) at its two points; every other
    step, and one where the floats divide by zero (numpy gives inf or
    NaN there), is ``sys.step_floats``, which evaluates F inside the
    kept box and the extension elsewhere.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
    a, b = sys.a, sys.b
    near = BaseBoxEval(sys.source)
    spec = sys.source.base
    twin = spec.func if spec.float_exact else None
    bx0, bx1, by0, by1 = NO_BOX
    # the chain rises from the least element
    s = sys.min_corner.tolist()
    states = array("d", s)
    stop = MAX_ITER
    checkpoint = math.inf
    for k in range(max_iter):
        x, y, u, v = s
        if not k & (k - 1) and near.prove(min(x, u), max(x, u),
                                           min(y, v), max(y, v)):
            bx0, bx1, by0, by1 = near.box
        if twin and (bx0 <= x <= bx1 and bx0 <= u <= bx1
                     and by0 <= y <= by1 and by0 <= v <= by1):
            try:
                f, g = twin(x, y), twin(u, v)
            except ZeroDivisionError:
                t = sys.step_floats(s, near)
            else:
                t = [f, u, g, x]
                if not (a <= f <= b and a <= g <= b):
                    t = np.clip(t, a, b).tolist()
        else:
            t = sys.step_floats(s, near)
        # the steps against the order signs (1, -1, -1, 1) of the rising
        # chain; the falling chain's are the same, in its column order
        # (min's argument order decides where a term is NaN).  Those of
        # y and v, which copy u and x one step late, repeat the previous
        # step's d2 and d0 bit for bit (0 at step 1), so they are left out.
        # Two steps that are both within the slack, and so not NaN, pass
        # either minimum; only the others need them
        d0, d2 = t[0] - x, u - t[2]
        if not (d0 >= -slack_tol and d2 >= -slack_tol):
            lo_slack = min(d0, d2)
            hi_slack = min(d2, d0)
            if lo_slack < -slack_tol or hi_slack < -slack_tol:
                start, slack = ((MIN_CORNER, lo_slack)
                                if lo_slack < -slack_tol
                                else (MAX_CORNER, hi_slack))
                raise ChainMonotonicityBroken(
                    f"{start} chain lost monotonicity at "
                    f"iteration {k + 1} (slack {slack:.3e}); the "
                    "extension or its declared monotonicity is inconsistent"
                )
        states.extend(t)
        s = t
        width = max(abs(t[2] - t[0]), abs(t[3] - t[1]))
        if width <= tol:
            stop = CONVERGED
            break
        if (k + 1) % 1000 == 0:
            if width > 0.999 * checkpoint:
                stop = STALLED
                break
            checkpoint = width
    states = np.frombuffer(states).reshape(-1, 4)
    norms = np.max(np.abs(np.diff(states, axis=0)), axis=1)
    lo = CornerChain(MIN_CORNER, states, norms)
    hi = CornerChain(MAX_CORNER, states[:, [2, 3, 0, 1]], norms)
    if not sys.precedes(lo.limit, hi.limit, tol=10 * slack_tol):
        raise ChainMonotonicityBroken(
            "the lower corner chain overtook the upper corner chain"
        )
    return lo, hi, stop
