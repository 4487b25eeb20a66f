import math
from array import array

import numpy as np
import pytest
from conftest import base_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.embedding import (
    CONVERGED,
    CornerChain,
    EmbeddedSystem,
    MAX_CORNER,
    MAX_ITER,
    MIN_CORNER,
    NO_BOX,
    STALLED,
    SYM4,
    check_order_preserving,
    run_corner_chains,
)
from monomap.errors import ChainMonotonicityBroken, EmbeddingUnavailable
from monomap.examples import make_eq7, make_eq8
from monomap.extension import ExtendedMap, extend, extend_rectangle
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

    def test_max_iter_stop(self, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, stop = run_corner_chains(sys, max_iter=5)
        assert stop == MAX_ITER
        assert lo.n_iter == hi.n_iter == 5


class _Rowwise:
    """An embedded system whose corner step t of a state s becomes
    ``change(sys, s, t)`` for the states whose first coordinate satisfies
    ``pick``.  The rule looks at each of the two states alone."""

    def __init__(self, sys, pick, change):
        self._sys = sys
        self._pick = pick
        self._change = change

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def fault(self, s, t):
        """The step t of s, with the fault applied."""
        t = np.reshape(t, (2, -1))
        s = np.reshape(s, (2, -1))
        hit = self._pick(s[:, 0])
        t[hit] = self._change(self._sys, s[hit], t[hit])
        return t.ravel().tolist()

    def step_corners(self, s, box=NO_BOX):
        return self.fault(s, self._sys.step_corners(s, box))


# a step run backwards: a chain through such a state loses monotonicity
_REVERSE = lambda sys, s, t: 2 * s - t

# for the eq7 chains on [0, 1]: the MaxCorner chain starts at first
# coordinate 1 and falls towards 0.7071; the MinCorner chain rises from
# 0 through 0.5 and 0.6
_AT_MAX_CORNER = lambda x: x > 0.99
_ON_MIN_CHAIN = lambda x: (x > 0.55) & (x < 0.62)


class TestChainFaults:
    """A chain whose step goes against its direction raises
    ChainMonotonicityBroken naming that chain and the iteration."""

    @ON_SYM4
    @pytest.mark.parametrize("fault,failing,iteration", [
        (_AT_MAX_CORNER, MAX_CORNER, 1),
        (_ON_MIN_CHAIN, MIN_CORNER, 3),
        # both chains are faulty; the first fault ends the run
        (lambda x: _AT_MAX_CORNER(x) | _ON_MIN_CHAIN(x), MAX_CORNER, 1),
    ], ids=["max_corner_only", "min_corner_only", "both"])
    def test_failure_names_the_chain(self, eq7_ext, embedding, fault, failing,
                                     iteration):
        sys = _Rowwise(embedding(eq7_ext), fault, _REVERSE)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value).startswith(
            f"{failing} chain lost monotonicity at iteration {iteration} "
        )


def _faulty_rectangle_ext(ext, pick):
    """The rectangle extension of ext's map with a fault in F itself.
    In the chain step's batch of four points (the x halves of the
    MinCorner and the MaxCorner state, then their u halves), F's values
    for each state whose first coordinate satisfies ``pick`` run
    backwards, as _REVERSE runs them, wherever that stays in the box
    (a step to outside would be clipped back to the corner)."""
    func = ext.base.func
    lo, hi = ext.rect.x0, ext.rect.x1

    def faulty(x, y):
        f = np.array(func(x, y), dtype=float)
        if f.shape == (4,):
            for row in np.flatnonzero(pick(x[:2])):
                idx = [row, row + 2]
                back = 2 * x[idx] - f[idx]
                f[idx] = np.where((back >= lo) & (back <= hi), back, f[idx])
        return f

    spec = MapSpec(faulty, ext.base.signature, ext.base.box)
    return extend_rectangle(spec, ext.rect)


class TestChainFaultsOnFloats:
    """The same faults, made by F, on the float path.  The MaxCorner
    chain's first step cannot run backwards inside the box, so its
    fault shows at iteration 2, when its u half can fall."""

    @pytest.mark.parametrize("fault,failing,iteration", [
        (_AT_MAX_CORNER, MAX_CORNER, 2),
        (_ON_MIN_CHAIN, MIN_CORNER, 3),
        (lambda x: _AT_MAX_CORNER(x) | _ON_MIN_CHAIN(x), MAX_CORNER, 2),
    ], ids=["max_corner_only", "min_corner_only", "both"])
    def test_failure_names_the_chain(self, eq7_ext, monkeypatch, fault,
                                     failing, iteration):
        sys = EmbeddedSystem(_faulty_rectangle_ext(eq7_ext, fault))

        def no_array_step(self, state):
            raise AssertionError("the chain left the float path")

        monkeypatch.setattr(EmbeddedSystem, "step", no_array_step)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value).startswith(
            f"{failing} chain lost monotonicity at iteration {iteration} "
        )


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
    """The float loop gives the bits of the array loop, with F evaluated
    at the same number of points, and never steps through arrays."""

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
        assert points[0] == want_points
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
        spec = MapSpec(compile_expression("(1 + x) / (1 + x + y) + 0 * log(y)",
                                          {}),
                       INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        sys = EmbeddedSystem(extend_rectangle(spec, spec.box))
        want_states, want_norms, want_stop = _array_chains(sys, max_iter=2500)
        assert np.isnan(want_states[:, -1]).all()
        # the closing order check fails on NaN limits; skip it here
        monkeypatch.setattr(EmbeddedSystem, "precedes", lambda *a, **k: True)
        lo, hi, stop = run_corner_chains(sys, max_iter=2500)
        assert stop == want_stop == MAX_ITER
        for c, chain in enumerate((lo, hi)):
            assert chain.states.tobytes() == want_states[c].tobytes()
            assert chain.step_norms.tobytes() == want_norms[c].tobytes()


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


# for the eq8(0.95, 0.3) chains: the MinCorner chain's first coordinate
# passes 0.62 near step 26, long after the chains keep their base box
# at step 4
_LATE_ON_MIN_CHAIN = lambda x: (x > 0.62) & (x < 0.63)


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

    @pytest.mark.parametrize("case,fault,failing", [
        ("eq7", _AT_MAX_CORNER, MAX_CORNER),
        ("eq7", _ON_MIN_CHAIN, MIN_CORNER),
        ("eq7", lambda x: _AT_MAX_CORNER(x) | _ON_MIN_CHAIN(x), MAX_CORNER),
        ("eq8 0.3", _LATE_ON_MIN_CHAIN, MIN_CORNER),
    ], ids=["eq7-max_corner", "eq7-min_corner", "eq7-both", "eq8-late"])
    def test_faults_raise_the_same_message(self, case, fault, failing):
        sys = _Rowwise(_chain_system(case), fault, _REVERSE)
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: sys.fault(s, _frozen_step_corners(sys, s))))
        assert want.startswith(f"{failing} chain lost monotonicity")
        assert _outcome(lambda: run_corner_chains(sys)) == want

    @pytest.mark.parametrize("coord", range(4))
    @pytest.mark.parametrize("chain", [MIN_CORNER, MAX_CORNER])
    def test_each_coordinate_has_its_slack(self, chain, coord):
        # one coordinate of one chain runs backwards from the first step
        # that moves it, so the slack in the message is that
        # coordinate's own step
        def reverse_one(sys, s, t):
            t[:, coord] = 2 * s[:, coord] - t[:, coord]
            return t

        # the eq7 chains meet at x* = 1.0083: the MinCorner chain's first
        # coordinate stays below it, the MaxCorner chain's above
        pick = (lambda x: x < 1.0) if chain == MIN_CORNER else (
            lambda x: x > 1.02)
        sys = _Rowwise(_chain_system("eq7"), pick, reverse_one)
        want = _outcome(lambda: _frozen_chains(
            sys, lambda s: sys.fault(s, _frozen_step_corners(sys, s))))
        assert want.startswith(f"{chain} chain lost monotonicity")
        assert _outcome(lambda: run_corner_chains(sys)) == want


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
