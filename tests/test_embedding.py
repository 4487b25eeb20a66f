import math
from array import array

import numpy as np
import pytest
from conftest import base_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.embedding import (
    CONVERGED,
    NO_BOX,
    CornerChain,
    EmbeddedSystem,
    MAX_CORNER,
    MAX_ITER,
    MIN_CORNER,
    STALLED,
    SYM4,
    check_order_preserving,
    run_corner_chains,
)
from monomap.errors import ChainMonotonicityBroken, EmbeddingUnavailable
from monomap.examples import make_eq7, make_eq8
from monomap.extension import (BaseBoxEval, ExtendedMap, extend,
                               extend_rectangle)
from monomap.geometry import DomainSpec
from monomap.map_model import (Box, DEC_INC, Direction, INC_DEC, MapSpec,
                                MonotoneSignature, compile_expression)

SQRT_HALF = 0.7071067811865476

# certify's one embedding, passed to a test as ``embedding``; the test
# ids carry its name, as certificate.json does
ON_SYM4 = pytest.mark.parametrize("embedding", [EmbeddedSystem], ids=[SYM4])


class TestConstruction:
    @pytest.mark.parametrize("embedding,dim", [(EmbeddedSystem, 4)],
                             ids=[f"{SYM4}-4"])
    def test_state_dimensions(self, eq7_ext, embedding, dim):
        sys = embedding(eq7_ext)
        assert sys.state_dim == dim
        assert sys.min_corner.shape == (dim,)
        assert sys.precedes(sys.min_corner, sys.max_corner)

    def test_dec_inc_source_unavailable(self):
        # a (dec, inc) map, and an (inc, inc) map that is not mixed at all
        inc_inc = MonotoneSignature(Direction.INCREASING, Direction.INCREASING)
        for func, sig in (
            (lambda x, y: (1.0 + y) / (1.0 + x + y), DEC_INC),
            (lambda x, y: (x + y) / 2.0, inc_inc),
        ):
            spec = MapSpec(func, sig, Box(0.0, 1.0, 0.0, 1.0))
            ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
            with pytest.raises(EmbeddingUnavailable):
                EmbeddedSystem(ext)

    def test_non_square_rect_unavailable(self):
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 2.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 2.0))
        with pytest.raises(EmbeddingUnavailable):
            EmbeddedSystem(ext)


class TestStep:
    def test_diagonal_states_track_the_planar_map(self, eq7_ext):
        # the state (x, y, x, y) steps to (F(x, y), x, F(x, y), x): both
        # halves follow the companion map T(x, y) = (F(x, y), x)
        sys = EmbeddedSystem(eq7_ext)
        t = sys.step(np.array([0.3, 0.6, 0.3, 0.6]))
        fx = float(eq7_ext.base(0.3, 0.6))
        assert t == pytest.approx([fx, 0.3, fx, 0.3], abs=1e-12)

    def test_batched_step_matches_scalar(self, eq7_ext, rng):
        sys = EmbeddedSystem(eq7_ext)
        states = rng.uniform(0.0, 1.0, (50, 4))
        batch = sys.step(states)
        for i in range(50):
            assert batch[i] == pytest.approx(sys.step(states[i]), abs=1e-14)

    def test_step_stays_in_box(self, eq8_ext, rng):
        sys = EmbeddedSystem(eq8_ext)
        states = rng.uniform(sys.a, sys.b, (200, 4))
        out = sys.step(states)
        assert np.all(out >= sys.a) and np.all(out <= sys.b)


class TestOrderPreservation:
    @ON_SYM4
    def test_random_ordered_pairs_stay_ordered(self, eq7_ext, embedding):
        sys = embedding(eq7_ext)
        audit = check_order_preserving(
            sys, n_pairs=2000, rng=np.random.default_rng(7)
        )
        assert audit.ok
        assert audit.n_pairs == 2000

    def test_order_audit_catches_a_broken_map(self, eq7_ext):
        # declare the wrong ordering by lying about the signs
        sys = EmbeddedSystem(eq7_ext)
        sys.order_signs = np.ones(4)  # wrong mask on purpose
        audit = check_order_preserving(
            sys, n_pairs=2000, rng=np.random.default_rng(8)
        )
        assert not audit.ok
        assert audit.witness_before is not None

    def test_order_audit_of_a_map_that_breaks_the_order(self):
        # F(x, y) = y increases in y, against its declared inc_dec, so G
        # reverses some ordered pairs: the worst by almost the box span
        sys = EmbeddedSystem(_rising_in_y())
        audit = check_order_preserving(sys, rng=np.random.default_rng(0))
        assert not audit.ok
        assert audit.n_pairs == 1000
        assert audit.worst_margin == pytest.approx(-0.98, abs=5e-3)
        before, after = audit.witness_before, audit.witness_after
        assert sys.precedes(before, after)
        g = sys.step(np.array([before, after]))
        assert np.min(sys.order_signs * (g[1] - g[0])) == audit.worst_margin


def _rising_in_y():
    """F(x, y) = y on [0, 1]^2, declared increasing in x and decreasing
    in y: its embedding breaks the order."""
    spec = MapSpec(lambda x, y: y, INC_DEC, None)
    return extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))


class TestCornerChains:
    @ON_SYM4
    def test_chains_converge_to_the_equilibrium(self, eq7_ext, embedding):
        sys = embedding(eq7_ext)
        lo, hi, stop = run_corner_chains(sys)
        assert stop == CONVERGED
        assert np.allclose(lo.limit, SQRT_HALF, atol=1e-8)
        assert np.allclose(hi.limit, SQRT_HALF, atol=1e-8)

    @ON_SYM4
    def test_stops_once_the_order_interval_closes(self, eq8_ext, embedding):
        sys = embedding(eq8_ext)
        tol = 1e-9 * (sys.b - sys.a)
        lo, hi, stop = run_corner_chains(sys, tol=tol)
        assert stop == CONVERGED
        assert lo.n_iter == hi.n_iter
        widths = np.max(np.abs(hi.states - lo.states), axis=1)
        assert widths[-1] <= tol < np.min(widths[:-1])

    def test_chains_are_monotone_every_step(self, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, _ = run_corner_chains(sys)
        signs = sys.order_signs
        for chain, direction in ((lo, 1.0), (hi, -1.0)):
            diffs = np.diff(chain.states, axis=0)
            assert np.all(direction * signs * diffs >= -1e-10 * (sys.b - sys.a))

    def test_eq8_limit(self, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, _ = run_corner_chains(sys)
        assert np.allclose(lo.limit, 0.7, atol=1e-6)
        assert np.allclose(hi.limit, 0.7, atol=1e-6)

    def test_copied_coordinates_repeat_the_previous_slack(self):
        """The steps d1 = y - t[1] and d3 = t[3] - v of the coordinates
        that copy u and x one step late are the previous step's
        d2 = u - t[2] and d0 = t[0] - x bit for bit, and 0 at step 1:
        the chain's monotonicity check leaves them out."""
        spec, domain = make_eq8(1.0, 0.49)
        lo, _, _ = run_corner_chains(EmbeddedSystem(extend(spec, domain)))
        assert lo.n_iter > 100
        s, t = lo.states[:-1], lo.states[1:]
        d0, d1 = t[:, 0] - s[:, 0], s[:, 1] - t[:, 1]
        d2, d3 = s[:, 2] - t[:, 2], t[:, 3] - s[:, 3]
        assert d1[0] == 0.0 and d3[0] == 0.0
        assert d1[1:].tobytes() == d2[:-1].tobytes()
        assert d3[1:].tobytes() == d0[:-1].tobytes()

    def test_bracketing_of_interior_orbits(self, eq7_ext, rng):
        sys = EmbeddedSystem(eq7_ext)
        lo = sys.min_corner.copy()
        hi = sys.max_corner.copy()
        mids = rng.uniform(sys.a, sys.b, (20, 4))
        for _ in range(50):
            lo = sys.step(lo)
            hi = sys.step(hi)
            mids = sys.step(mids)
            for s in mids:
                assert sys.precedes(lo, s, tol=1e-9)
                assert sys.precedes(s, hi, tol=1e-9)

    def test_slow_convergence_guard(self):
        # near-identity contraction toward 0.5: the order interval
        # shrinks by about 1e-4 per 1,000 steps, so the checkpoint at
        # step 2,000 finds less than 0.1% progress since step 1,000
        func = lambda x, y: x + 1e-7 * (0.5 - x) - 1e-9 * y
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        sys = EmbeddedSystem(ext)
        lo, hi, stop = run_corner_chains(sys, max_iter=100000)
        assert stop == STALLED
        assert lo.n_iter == hi.n_iter == 2000

    def test_max_iter_below_one_rejected(self, eq7_ext):
        with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
            run_corner_chains(EmbeddedSystem(eq7_ext), max_iter=0)

    def test_chains_that_cross_are_caught(self):
        # F = y maps the least corner (0, 1, 1, 0) to (1, 1, 0, 0) in one
        # monotone step, and the greatest to (0, 0, 1, 1), its swap: the
        # lower chain ends above the upper one
        with pytest.raises(ChainMonotonicityBroken, match="^the lower "
                           "corner chain overtook the upper corner chain$"):
            run_corner_chains(EmbeddedSystem(_rising_in_y()), max_iter=1)

    def test_max_iter_stop(self, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, stop = run_corner_chains(sys, max_iter=5)
        assert stop == MAX_ITER
        assert lo.n_iter == hi.n_iter == 5


def _array_chains(sys, max_iter=100000, tol=None):
    """The reference for run_corner_chains: the same rules on arrays,
    with both corners stepped as one (2, dim) batch through sys.step
    every iteration."""
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
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
            raise ChainMonotonicityBroken(f"row {bad[0]} at {k + 1}")
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
    states = np.stack(states, axis=1)
    norms = np.max(np.abs(np.diff(states, axis=1)), axis=2)
    return states, norms, stop


# c (p + x^2)/(1 + x^2 + q sqrt(y)) e^(-r y): increasing in x and
# decreasing in y; near the corner (1, 0) its values exceed 1, so the
# chains on the unit square are clipped there, and they stall at an
# artificial pair
_POWER_EXPR = "c * (p + x ** 2) / (1 + x ** 2 + q * sqrt(y)) * exp(-r * y)"
# a convex octagon whose bounding box is the unit square
_OCTAGON = [(0.2, 0.0), (0.8, 0.0), (1.0, 0.3), (1.0, 0.7), (0.7, 1.0),
            (0.3, 1.0), (0.0, 0.8), (0.0, 0.2)]


_NOTCH = [(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)]


def _chain_case(name):
    """A fresh problem per case, so the point counter wraps its own F."""
    if name.startswith("eq8"):
        spec, domain = make_eq8(0.95, float(name[4:]))
    elif name == "eq7":
        spec, domain = make_eq7(2.05, 3.0, 3.0)
    elif name == "log":
        # F(1, 0) is inf, a value both paths clip to the box
        params = {"c": 0.1}
        spec = MapSpec(compile_expression("(1 + x) / (1 + x + y) - c * log(y)",
                                          params),
                       INC_DEC, Box(0.0, 1.0, 0.0, 1.0), params=params)
        domain = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
    elif name == "nan":
        # 0 log 0 is NaN at the points where y = 0
        spec = MapSpec(compile_expression("(1 + x) / (1 + x + y) + 0 * log(y)",
                                          {}),
                       INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        domain = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
    elif name == "notched":
        # the golden notched polygon: its notch becomes a sector
        spec = MapSpec(compile_expression("(1 + x)/(1 + x + y)", {}),
                       INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        domain = DomainSpec.polygon(_NOTCH)
    else:
        params = {"c": 2.0, "p": 0.3, "q": 0.5, "r": 0.4}
        spec = MapSpec(compile_expression(_POWER_EXPR, params), INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0), params=params)
        domain = (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
                  if name == "expression" else DomainSpec.polygon(_OCTAGON))
    return spec, extend(spec, domain)


def _chain_system(name):
    return EmbeddedSystem(_chain_case(name)[1])


_CHAIN_CASES = ["eq8 0.3", "eq8 0.49", "eq8 0.495", "eq7", "log",
                "expression", "expression octagon"]


class TestFloatChainsMatchArrayChains:
    """The float loop gives the bits of the array loop, which steps both
    corners, with F evaluated at half its points, and never steps
    through arrays."""

    @pytest.mark.parametrize("name", _CHAIN_CASES,
                             ids=[f"{n}-{SYM4}" for n in _CHAIN_CASES])
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_bitwise_equal(self, name, monkeypatch):
        spec, ext = _chain_case(name)
        points = [0]
        func = spec.func

        def counted(x, y):
            points[0] += np.broadcast(x, y).size
            return func(x, y)

        spec.func = counted
        sys = EmbeddedSystem(ext)
        tol = 1e-8 * (sys.b - sys.a)
        want_states, want_norms, want_stop = _array_chains(sys, tol=tol)
        want_points, points[0] = points[0], 0

        def no_array_step(self, state):
            raise AssertionError("the chain stepped through arrays")

        ext_steps = [0]
        ext_eval = ExtendedMap.eval

        def counted_eval(self, x, y):
            ext_steps[0] += 1
            return ext_eval(self, x, y)

        monkeypatch.setattr(EmbeddedSystem, "step", no_array_step)
        monkeypatch.setattr(ExtendedMap, "eval", counted_eval)
        lo, hi, stop = run_corner_chains(sys, tol=tol)
        assert stop == want_stop
        assert stop == (STALLED if name.startswith("expression") else CONVERGED)
        for c, chain in enumerate((lo, hi)):
            assert chain.states.tobytes() == want_states[c].tobytes()
            assert chain.step_norms.tobytes() == want_norms[c].tobytes()
        assert 2 * points[0] == want_points
        if ext.engine is None:
            assert ext_steps[0] == 0  # every point of the box is F's
        elif name == "expression octagon":
            # no box of the octagon's chains is base (see
            # TestChainsMatchTheFrozenLoop): every step evaluates the
            # extension
            assert ext_steps[0] == lo.n_iter
        else:
            # the steps before the base box is kept evaluate the
            # extension; the rest call F alone
            assert 0 < ext_steps[0] < lo.n_iter / 2

    @pytest.mark.parametrize("name", ["eq7", "eq8 0.3", "eq8 0.49"])
    def test_base_steps_skip_numpy(self, name, monkeypatch):
        # a float-exact map is evaluated on the floats wherever all four
        # points are base: F reaches numpy only inside the extension's
        # own eval, which a rectangle never calls
        spec, ext = _chain_case(name)
        assert spec.float_exact
        sys = EmbeddedSystem(ext)
        in_eval = [0, 0]  # open eval calls, all eval calls
        ext_eval, spec_call = ExtendedMap.eval, MapSpec.__call__

        def counted_eval(self, x, y):
            in_eval[0] += 1
            in_eval[1] += 1
            try:
                return ext_eval(self, x, y)
            finally:
                in_eval[0] -= 1

        def guarded_call(self, x, y):
            if not in_eval[0]:
                raise AssertionError("a base step went through numpy")
            return spec_call(self, x, y)

        monkeypatch.setattr(ExtendedMap, "eval", counted_eval)
        monkeypatch.setattr(MapSpec, "__call__", guarded_call)
        lo, hi, stop = run_corner_chains(sys)
        assert stop == CONVERGED
        if ext.engine is None:
            assert in_eval[1] == 0
        else:
            assert 0 < in_eval[1] < lo.n_iter / 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_states_follow_the_array_rules(self, monkeypatch):
        # 0 log 0 is NaN at the corner points: within a few steps NaN
        # fills every coordinate of both chains, no rule stops them, and
        # both loops run to max_iter past two checkpoints
        sys = _chain_system("nan")
        want_states, want_norms, want_stop = _array_chains(sys, max_iter=2500)
        assert np.isnan(want_states[:, -1]).all()
        # the closing order check fails on NaN limits; skip it here
        monkeypatch.setattr(EmbeddedSystem, "precedes", lambda *a, **k: True)
        lo, hi, stop = run_corner_chains(sys, max_iter=2500)
        assert stop == want_stop == MAX_ITER
        for c, chain in enumerate((lo, hi)):
            assert chain.states.tobytes() == want_states[c].tobytes()
            assert chain.step_norms.tobytes() == want_norms[c].tobytes()


def _swap(s):
    """sigma(x, y, u, v) = (u, v, x, y), on the last axis."""
    return s[..., [2, 3, 0, 1]]


class TestSwapSymmetry:
    """G commutes with the swap sigma, which maps the least corner to the
    greatest: so the MaxCorner chain is sigma of the MinCorner chain, bit
    for bit, and run_corner_chains steps the MinCorner chain alone."""

    @pytest.mark.parametrize("name", _CHAIN_CASES + ["nan"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_commutes_with_the_swap(self, name):
        sys = _chain_system(name)
        a, b = sys.a, sys.b
        rng = np.random.default_rng(34)
        s = rng.uniform(a, b, (300, 4))
        # states on the box's corners, edges and midlines, where the
        # values are clipped, inf or NaN
        s[:100] = rng.choice([a, b, 0.5 * (a + b)], (100, 4))
        assert sys.step(_swap(s)).tobytes() == _swap(sys.step(s)).tobytes()
        assert sys.max_corner.tobytes() == _swap(sys.min_corner).tobytes()


def _frozen_step_corners(sys, s):
    """The reference for the chains' base box: the corner step that asks
    the per-point base oracle of the four points, every step."""
    x0, y0, u0, v0, x1, y1, u1, v1 = s
    ext = sys.source
    all_base = base_oracle(ext, [x0, x1, u0, u1], [y0, y1, v0, v1]).all()
    if all_base and ext.base.float_exact:
        one = ext.base.one
        f0, f1, f2, f3 = (one(x0, y0), one(x1, y1), one(u0, v0),
                          one(u1, v1))
    else:
        f = ext.base if all_base else ext.eval
        f0, f1, f2, f3 = f(np.array([x0, x1, u0, u1]),
                           np.array([y0, y1, v0, v1])).tolist()
    t = [f0, u0, f2, x0, f1, u1, f3, x1]
    a, b = sys.a, sys.b
    if not (a <= f0 <= b and a <= f1 <= b and a <= f2 <= b
            and a <= f3 <= b):
        t = np.clip(t, a, b).tolist()
    return t


def _frozen_chains(sys, step, max_iter=100000, tol=None):
    """The reference loop for run_corner_chains: slopes from the order
    signs, for any state dimension, and one ``step(s)`` a step."""
    starts = (MIN_CORNER, MAX_CORNER)
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
    dim = sys.state_dim
    signs = sys.order_signs.tolist()
    slopes = signs + [-g for g in signs]
    s = sys.min_corner.tolist() + sys.max_corner.tolist()
    states = array("d", s)
    stop = MAX_ITER
    checkpoint = math.inf
    for k in range(max_iter):
        t = step(s)
        d = [g * (v - w) for g, v, w in zip(slopes, t, s)]
        for row in (0, 1):
            slack = min(d[row * dim:(row + 1) * dim])
            if slack < -slack_tol:
                raise ChainMonotonicityBroken(
                    f"{starts[row]} chain lost monotonicity at "
                    f"iteration {k + 1} (slack {slack:.3e}); the "
                    "extension or its declared monotonicity is inconsistent"
                )
        states.extend(t)
        s = t
        width = max([abs(h - l) for l, h in zip(t[:dim], t[dim:])])
        if width <= tol:
            stop = CONVERGED
            break
        if (k + 1) % 1000 == 0:
            if width > 0.999 * checkpoint:
                stop = STALLED
                break
            checkpoint = width
    states = np.frombuffer(states).reshape(-1, 2, dim).transpose(1, 0, 2).copy()
    norms = np.max(np.abs(np.diff(states, axis=1)), axis=2)
    return states, norms, stop


def _outcome(run):
    """run()'s chains as bytes and its stop, or the message it raised."""
    try:
        out = run()
    except ChainMonotonicityBroken as e:
        return str(e)
    if isinstance(out[0], CornerChain):
        lo, hi, stop = out
        states = np.stack([lo.states, hi.states])
        norms = np.stack([lo.step_norms, hi.step_norms])
    else:
        states, norms, stop = out
    return states.tobytes(), norms.tobytes(), stop


# the two evaluation points of a MinCorner step, each named by the
# coordinate whose new value F gives there: (x, y) gives x, (u, v) gives
# u (the MaxCorner chain's x)
X_HALF, U_HALF = 0, 2


def _clean_step(sys, step):
    """The MinCorner state before and after step ``step`` (from 1) of
    the frozen loop on sys's faultless map, as Python floats."""
    states, _, _ = _frozen_chains(
        sys, lambda s: _frozen_step_corners(sys, s), max_iter=step)
    return states[0, step - 1].tolist(), states[0, step].tolist()


def _faulty_system(name, step, back=None, nan=None, float_exact=None):
    """The embedded system of a chain case whose F has faults a map can
    make, at the evaluation points of MinCorner step ``step`` of the
    faultless chains: at the point of half ``back``, F runs backwards,
    to 2x - F(x, y); at the point of half ``nan``, F is NaN.  F stays a
    pure function of (x, y), so a fault shows in both chains alike.
    ``float_exact`` overrides the spec's mark, to send base steps to
    numpy (False) or to the floats (True).  Returns the system and the
    faultless state before and after that step."""
    spec, ext = _chain_case(name)
    sys = EmbeddedSystem(ext)
    s, t = _clean_step(sys, step)
    func = spec.func
    back_at = () if back is None else [(s[back], s[back + 1])]
    nan_at = () if nan is None else [(s[nan], s[nan + 1])]

    def faulty(x, y):
        f = np.asarray(func(x, y), dtype=float)
        for px, py in back_at:
            f = np.where((x == px) & (y == py), 2 * x - f, f)
        for px, py in nan_at:
            f = np.where((x == px) & (y == py), np.nan, f)
        return f if f.ndim else float(f)

    spec.func = faulty
    if float_exact is not None:
        spec.float_exact = float_exact
    return sys, s, t


# (the half where F runs backwards, the half where F is NaN, the chain
# the message names) in one MinCorner step.  The two chains' slack
# minima take the same four steps in the orders (d0, d1, d2, d3) and
# (d2, d3, d0, d1), and a minimum that starts at a NaN stays NaN
_FAULTS = {
    # the x step is NaN, so only the MaxCorner minimum sees the u step
    "max_corner_only": (U_HALF, X_HALF, MAX_CORNER),
    # the u step is NaN, so only the MinCorner minimum sees the x step
    "min_corner_only": (X_HALF, U_HALF, MIN_CORNER),
    # both minima see the u step; the MinCorner chain is checked first
    "both": (U_HALF, None, MIN_CORNER),
}
# in the eq7 chains' step 4, 2x - F(x, y) stays in the box on both halves
_FAULT_STEP = 4


class TestChainFaults:
    """A step that goes against a chain's direction raises
    ChainMonotonicityBroken naming the chain and the iteration; here F
    runs on numpy arrays."""

    @ON_SYM4
    @pytest.mark.parametrize("fault", list(_FAULTS))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_the_chain(self, embedding, fault):
        back, nan, failing = _FAULTS[fault]
        sys, _, _ = _faulty_system("eq7", _FAULT_STEP, back, nan,
                                   float_exact=False)
        sys = embedding(sys.source)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value).startswith(
            f"{failing} chain lost monotonicity at iteration {_FAULT_STEP} "
        )


class TestChainFaultsOnFloats:
    """The same faults, with F run on the Python floats
    (``MapSpec.one``), and never an array step."""

    @pytest.mark.parametrize("fault", list(_FAULTS))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_the_chain(self, monkeypatch, fault):
        back, nan, failing = _FAULTS[fault]
        sys, _, _ = _faulty_system("eq7", _FAULT_STEP, back, nan,
                                   float_exact=True)
        spec_call = MapSpec.__call__

        def no_array_step(self, state):
            raise AssertionError("the chain left the float path")

        def guarded_call(self, x, y):
            if np.ndim(x) == 1:
                raise AssertionError("a base step went through numpy")
            return spec_call(self, x, y)

        monkeypatch.setattr(EmbeddedSystem, "step", no_array_step)
        monkeypatch.setattr(MapSpec, "__call__", guarded_call)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value).startswith(
            f"{failing} chain lost monotonicity at iteration {_FAULT_STEP} "
        )


class TestChainsMatchTheFrozenLoop:
    """With a base box, run_corner_chains gives the bits, the stop and
    the error messages of the loop that asks a per-point base oracle of
    every point."""

    # the octagon's chains stall at an artificial pair whose hull box
    # reaches past the octagon's edge x + y = 1.7, so no box of theirs
    # is base and every step evaluates the extension
    @pytest.mark.parametrize("name,kept", [
        ("eq8 0.3", True), ("eq8 0.49", True), ("eq8 0.495", True),
        ("notched", True), ("eq7", True), ("expression octagon", False)])
    def test_bitwise_equal(self, name, kept, monkeypatch):
        sys = _chain_system(name)
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: _frozen_step_corners(sys, s)))
        calls = [0]
        ext_eval = ExtendedMap.eval

        def counted(self, x, y):
            calls[0] += 1
            return ext_eval(self, x, y)

        monkeypatch.setattr(ExtendedMap, "eval", counted)
        lo, hi, stop = run_corner_chains(sys)
        assert _outcome(lambda: (lo, hi, stop)) == want
        # a box is kept within the first few powers of two; after it no
        # step evaluates the extension
        if sys.source.engine is None:
            assert calls[0] == 0
        elif kept:
            assert 0 < calls[0] < lo.n_iter / 4
        else:
            assert calls[0] == lo.n_iter

    # eq8-late: the eq8(0.95, 0.3) chains keep their base box at step 4,
    # long before step 26
    @pytest.mark.parametrize("case,step,fault", [
        ("eq7", _FAULT_STEP, "max_corner_only"),
        ("eq7", _FAULT_STEP, "min_corner_only"),
        ("eq7", _FAULT_STEP, "both"),
        ("eq8 0.3", 26, "both"),
    ], ids=["eq7-max_corner", "eq7-min_corner", "eq7-both", "eq8-late"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_faults_raise_the_same_message(self, case, step, fault):
        back, nan, failing = _FAULTS[fault]
        sys, _, _ = _faulty_system(case, step, back, nan)
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: _frozen_step_corners(sys, s)))
        assert want.startswith(
            f"{failing} chain lost monotonicity at iteration {step} ")
        assert _outcome(lambda: run_corner_chains(sys)) == want

    # F gives the chain coordinates x and u; the MaxCorner chain's x is
    # the MinCorner chain's u, so its slack shows only where the
    # MinCorner minimum starts at a NaN x step.  Coordinates y and v
    # copy u and x one step late, so a fault shows in them only after
    # the step that ends the run
    @pytest.mark.parametrize("chain,coord", [
        (MIN_CORNER, 0), (MIN_CORNER, 2), (MAX_CORNER, 0)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_coordinate_has_its_slack(self, chain, coord):
        # the MinCorner coordinate F gives, and which half is NaN
        half, nan = ((coord, None) if chain == MIN_CORNER
                     else (U_HALF, X_HALF))
        sys, s, t = _faulty_system("eq7", _FAULT_STEP, half, nan)
        # the coordinate's own step, 2s - t against s, with its sign
        sign = sys.order_signs[half]
        slack = sign * ((2 * s[half] - t[half]) - s[half])
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: _frozen_step_corners(sys, s)))
        assert want.startswith(
            f"{chain} chain lost monotonicity at iteration {_FAULT_STEP} "
            f"(slack {slack:.3e})")
        assert _outcome(lambda: run_corner_chains(sys)) == want


# maps on the unit square whose chains stay in the base box, kept at
# step 0, and take one branch of the inline step there at every step:
# (expression, whether the floats divide by zero, whether F leaves the
# box)
_INLINE_CASES = {
    # F(1, 0) = 1 / 0: the floats raise, numpy gives inf, clipped to 1
    "zero_division": ("x / y", True, True),
    # F(1, y) >= 1 for every y in the box, clipped to 1
    "clip": ("(1 + 3 * x) / (1 + x + 2 * y)", False, True),
    # ** makes the map not float-exact: F runs on numpy, two points a
    # step
    "not_float_exact": ("(1 + x ** 2) / (2 + x ** 2 + y)", False, False),
}


class TestInlineChainStep:
    """run_corner_chains steps a state inside the kept base box inline
    on F's float twin; each branch of that step gives the bits of
    ``step_floats`` with no box kept, which evaluates the extension
    every step."""

    @pytest.mark.parametrize("name", sorted(_INLINE_CASES))
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_bitwise_equal_to_step_floats(self, name):
        expr, divides, clips = _INLINE_CASES[name]
        spec = MapSpec(compile_expression(expr, {}), INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0))
        sys = EmbeddedSystem(extend_rectangle(spec, spec.box))
        unproved = BaseBoxEval(sys.source)
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: (sys.step_floats(s[:4], unproved)
                            + sys.step_floats(s[4:], unproved))))
        assert unproved.box is NO_BOX
        func, calls = spec.func, {"floats": 0, "raised": 0}

        def counted(x, y):
            if np.ndim(x) == 0:
                calls["floats"] += 1
                try:
                    return func(x, y)
                except ZeroDivisionError:
                    calls["raised"] += 1
                    raise
            return func(x, y)

        spec.func = counted
        lo, hi, stop = run_corner_chains(sys)
        assert _outcome(lambda: (lo, hi, stop)) == want
        assert bool(calls["floats"]) == spec.float_exact
        assert bool(calls["raised"]) == divides
        assert bool(np.any(lo.states[1:, 2] == sys.b)) == clips


class TestChainArtifacts:
    def test_to_dict_round_trips_through_json(self, eq7_ext):
        import json

        sys = EmbeddedSystem(eq7_ext)
        lo, _, _ = run_corner_chains(sys)
        doc = json.loads(json.dumps(lo.to_dict()))
        assert doc["n_iter"] == lo.n_iter
        assert doc["limit"] == lo.limit.tolist()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_order_relation_axioms(data):
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    dim = 4

    def state():
        return np.array(
            [data.draw(st.floats(0.0, 1.0), label="c") for _ in range(dim)]
        )

    class Carrier:
        order_signs = signs
        precedes = EmbeddedSystem.precedes

    sys = Carrier()
    s, t = state(), state()
    # reflexivity
    assert sys.precedes(s, s)
    # antisymmetry up to equality
    if sys.precedes(s, t) and sys.precedes(t, s):
        assert np.allclose(s, t)
    # transitivity through the meet
    u = np.where(signs > 0, np.minimum(s, t), np.maximum(s, t))
    assert sys.precedes(u, s) and sys.precedes(u, t)
