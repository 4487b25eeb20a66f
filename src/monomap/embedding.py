"""Symmetric monotone embeddings of the planar dynamics.

A mixed-monotone planar map F (increasing in x, decreasing in y) embeds
into an order-preserving map G on a higher-dimensional box, in three
variants:

* ``Sym2``  G(x, y) = (F(x, y), F(y, x)) on [a, b]^2,
* ``Sym4``  G((x, y), (u, v)) = ((F(x, y), u), (F(u, v), x)) on [a, b]^4,
* ``Sym8``  G((X, Y), (U, V)) = (((F(X), F(V)), X), ((F(U), F(Y)), U))
  on [a, b]^8.

Each variant preserves a componentwise partial order (a sign pattern of
the coordinates) and has explicit least and greatest elements, so the
iterates of the two extreme corners form monotone chains that converge
to fixed points of G and bracket every orbit in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ChainMonotonicityBroken, EmbeddingUnavailable, NotMixedMonotone
from .extension import ExtendedMap, clamp_to
from .map_model import INC_DEC

SYM2 = "Sym2"
SYM4 = "Sym4"
SYM8 = "Sym8"

# componentwise order sign pattern per variant: state s precedes state t
# exactly when sign * s <= sign * t holds in every coordinate
_ORDER_SIGNS = {
    SYM2: np.array([1, -1], dtype=float),
    SYM4: np.array([1, -1, -1, 1], dtype=float),
    SYM8: np.array([1, -1, 1, -1, -1, 1, -1, 1], dtype=float),
}

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

    def to_dict(self):
        d = {
            "ok": self.ok,
            "n_pairs": self.n_pairs,
            "worst_margin": self.worst_margin,
        }
        if self.witness_before is not None:
            d["witness_before"] = self.witness_before.tolist()
            d["witness_after"] = self.witness_after.tolist()
        return d


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
    """One of the symmetric embeddings of an extended planar map."""

    def __init__(self, source: ExtendedMap, variant: str):
        if variant not in _ORDER_SIGNS:
            raise ValueError(f"unknown embedding variant {variant!r}")
        sig = source.base.signature
        if not sig.is_mixed:
            raise NotMixedMonotone(
                "embedding requires a map increasing in one argument and "
                "decreasing in the other"
            )
        if sig != INC_DEC:
            raise EmbeddingUnavailable(
                "embedding formulas assume the map increases in x and "
                "decreases in y; swap the arguments of the map first"
            )
        r = source.rect
        tol = 1e-9 * max(r.diam, 1.0)
        if abs(r.x0 - r.y0) > tol or abs(r.x1 - r.y1) > tol:
            raise EmbeddingUnavailable(
                "embedding requires a square rectangle [a, b] x [a, b]"
            )
        self.source = source
        self.variant = variant
        self.a = float(r.x0)
        self.b = float(r.x1)
        self.state_dim = {SYM2: 2, SYM4: 4, SYM8: 8}[variant]
        self.order_signs = _ORDER_SIGNS[variant]
        lo, hi = self.a, self.b
        self.min_corner = np.where(self.order_signs > 0, lo, hi).astype(float)
        self.max_corner = np.where(self.order_signs > 0, hi, lo).astype(float)

    # -- order ------------------------------------------------------------

    def precedes(self, s, t, tol: float = 0.0) -> bool:
        """True when s comes before t in the system's componentwise order."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return bool(np.all(self.order_signs * (t - s) >= -tol))

    def order_margin(self, s, t) -> float:
        """Smallest componentwise slack of s preceding t (negative if not)."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return float(np.min(self.order_signs * (t - s), axis=-1))

    # -- stepping -----------------------------------------------------------

    def _F(self, x, y):
        return self.source.eval(x, y)

    def step(self, state):
        """Apply G once.  Accepts a single state (dim,) or a batch (n, dim)."""
        s = np.asarray(state, dtype=float)
        single = s.ndim == 1
        s = np.atleast_2d(s)
        if s.shape[1] != self.state_dim:
            raise ValueError(
                f"state dimension {s.shape[1]} does not match {self.variant}"
            )
        pad = 1e-9 * (self.b - self.a)
        s = clamp_to(s, self.a, self.b, pad,
                     "embedded state outside the rectangle bounds")
        n = s.shape[0]
        out = np.empty_like(s)
        if self.variant == SYM2:
            x, y = s[:, 0], s[:, 1]
            vals = self._F(np.concatenate([x, y]), np.concatenate([y, x]))
            out[:, 0] = vals[:n]
            out[:, 1] = vals[n:]
        elif self.variant == SYM4:
            x, y, u, v = s.T
            vals = self._F(np.concatenate([x, u]), np.concatenate([y, v]))
            out[:, 0] = vals[:n]
            out[:, 1] = u
            out[:, 2] = vals[n:]
            out[:, 3] = x
        else:
            x1, x2, y1, y2, u1, u2, v1, v2 = s.T
            vals = self._F(
                np.concatenate([x1, v1, u1, y1]),
                np.concatenate([x2, v2, u2, y2]),
            )
            out[:, 0] = vals[:n]
            out[:, 1] = vals[n : 2 * n]
            out[:, 2] = x1
            out[:, 3] = x2
            out[:, 4] = vals[2 * n : 3 * n]
            out[:, 5] = vals[3 * n :]
            out[:, 6] = u1
            out[:, 7] = u2
        # a nice extension keeps values inside the original range up to a
        # small audit tolerance; clamp so chains stay inside the box
        out = clamp_to(out, self.a, self.b, copy=False)
        return out[0] if single else out

    # -- state <-> planar points -------------------------------------------

    def diagonal_state(self, x: float, y: float) -> np.ndarray:
        """The embedded state representing the planar point (x, y)."""
        if self.variant == SYM2:
            return np.array([x, y], dtype=float)
        if self.variant == SYM4:
            # (x, y, x, y) is invariant: it steps to the companion image
            # (F(x, y), x, F(x, y), x)
            return np.array([x, y, x, y], dtype=float)
        return np.array([x, y, x, y, x, y, x, y], dtype=float)

    def planar_pair(self, state) -> Tuple[float, float]:
        """Reduce a state to its representative planar (x, y) pair."""
        s = np.asarray(state, dtype=float)
        return float(s[0]), float(s[1])


def build_embedding(ext: ExtendedMap, variant: str = SYM4) -> EmbeddedSystem:
    """Construct the symmetric embedding of an extended map."""
    return EmbeddedSystem(ext, variant)


def check_order_preserving(
    sys: EmbeddedSystem,
    n_pairs: int = 1000,
    rng: Optional[np.random.Generator] = None,
    tol_mono: Optional[float] = None,
) -> OrderAudit:
    """Sample comparable state pairs and verify G keeps them comparable."""
    if rng is None:
        rng = np.random.default_rng(0)
    if tol_mono is None:
        tol_mono = 1e-9 * (sys.b - sys.a)
    d = sys.state_dim
    lo = rng.uniform(sys.a, sys.b, size=(n_pairs, d))
    bump = rng.uniform(0.0, sys.b - sys.a, size=(n_pairs, d))
    hi = np.clip(lo + sys.order_signs * bump, sys.a, sys.b)
    g_lo = sys.step(lo)
    g_hi = sys.step(hi)
    margins = np.min(sys.order_signs * (g_hi - g_lo), axis=1)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    ok = worst >= -tol_mono
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
    interval between their iterates.  Both corners advance as one
    batched step per iteration until that interval closes: the stop is
    CONVERGED once its width max|s_hi - s_lo| is at most ``tol``
    (default 1e-8 of the box span), STALLED once the width falls by
    less than 0.1% over 1,000 steps, or MAX_ITER.  Each step is checked
    to move its chain in the chain's direction.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    starts = (MIN_CORNER, MAX_CORNER)
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
    # the chain rises from the least element and falls from the greatest
    slopes = np.stack([sys.order_signs, -sys.order_signs])
    s = np.stack([sys.min_corner, sys.max_corner])
    states = [s]
    stop = MAX_ITER
    checkpoint = np.inf
    for k in range(max_iter):
        t = sys.step(s)
        slack = np.min(slopes * (t - s), axis=1)
        bad = np.flatnonzero(slack < -slack_tol)
        if bad.size:
            row = bad[0]
            raise ChainMonotonicityBroken(
                f"{starts[row]} chain lost monotonicity at "
                f"iteration {k + 1} (slack {float(slack[row]):.3e}); the "
                "extension or its declared monotonicity is inconsistent"
            )
        states.append(t)
        s = t
        width = float(np.max(np.abs(t[1] - t[0])))
        if width <= tol:
            stop = CONVERGED
            break
        if (k + 1) % 1000 == 0:
            if width > 0.999 * checkpoint:
                stop = STALLED
                break
            checkpoint = width
    states = np.stack(states, axis=1)  # (2, n_iter + 1, dim)
    norms = np.max(np.abs(np.diff(states, axis=1)), axis=2)
    lo, hi = (CornerChain(start, states[c], norms[c])
              for c, start in enumerate(starts))
    if not sys.precedes(lo.limit, hi.limit, tol=10 * slack_tol):
        raise ChainMonotonicityBroken(
            "the lower corner chain overtook the upper corner chain"
        )
    return lo, hi, stop


@dataclass
class SqueezeReport:
    """Which squeeze hypothesis held and the margins of its inequalities."""

    case: str  # "i", "ii", or "none"
    hypothesis_margins: dict = field(default_factory=dict)
    chain_margins: list = field(default_factory=list)
    holds: bool = False

    def to_dict(self):
        return {
            "case": self.case,
            "hypothesis_margins": self.hypothesis_margins,
            "chain_margins": self.chain_margins,
            "holds": self.holds,
        }


def squeeze_bounds(sys: EmbeddedSystem, X, Y, tol: float = 0.0) -> SqueezeReport:
    """Check the squeeze inequalities for a pair of planar points.

    With states X = (x, y) and Y = (u, v) of the 4-dimensional
    embedding, either hypothesis

    * (i)  x <= v <= y <= u with u <= F(u, v) and F(x, y) <= x, or
    * (ii) v <= x <= u <= y with F(u, v) <= u and x <= F(x, y),

    forces a chain of order inequalities that pins every orbit of F
    between iterates of G.  Report-only: returns the applicable case and
    all margins, classifying "none" when neither hypothesis holds.
    """
    if sys.variant != SYM4:
        raise EmbeddingUnavailable(
            "squeeze bounds are defined for the 4-dimensional embedding"
        )
    x, y = map(float, X)
    u, v = map(float, Y)
    Fxy = float(sys._F(x, y))
    Fuv = float(sys._F(u, v))
    h1 = {
        "v-x": v - x,
        "y-v": y - v,
        "u-y": u - y,
        "F(u,v)-u": Fuv - u,
        "x-F(x,y)": x - Fxy,
    }
    h2 = {
        "x-v": x - v,
        "u-x": u - x,
        "y-u": y - u,
        "u-F(u,v)": u - Fuv,
        "F(x,y)-x": Fxy - x,
    }
    XY = np.array([x, y, u, v], dtype=float)
    XX = np.array([x, y, x, y], dtype=float)
    YX = np.array([u, v, x, y], dtype=float)
    if all(m >= -tol for m in h1.values()):
        seq = [sys.step(XY), XY, XX, YX, sys.step(YX)]
        case, hyp = "i", h1
    elif all(m >= -tol for m in h2.values()):
        seq = [XY, sys.step(XY), sys.step(XX), sys.step(YX), YX]
        case, hyp = "ii", h2
    else:
        return SqueezeReport(
            case="none",
            hypothesis_margins={"i": h1, "ii": h2},
            chain_margins=[],
            holds=False,
        )
    margins = [sys.order_margin(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
    return SqueezeReport(
        case=case,
        hypothesis_margins=hyp,
        chain_margins=margins,
        holds=all(m >= -max(tol, 1e-12 * (sys.b - sys.a)) for m in margins),
    )
