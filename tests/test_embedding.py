import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.embedding import (
    CONVERGED,
    EmbeddedSystem,
    MAX_CORNER,
    MAX_ITER,
    MIN_CORNER,
    STALLED,
    SYM2,
    SYM4,
    build_embedding,
    check_order_preserving,
    run_corner_chains,
)
from monomap.errors import ChainMonotonicityBroken, EmbeddingUnavailable
from monomap.extension import extend_rectangle
from monomap.map_model import (Box, DEC_INC, Direction, INC_DEC, MapSpec,
                                MonotoneSignature)

SQRT_HALF = 0.7071067811865476


class TestConstruction:
    @pytest.mark.parametrize("variant,dim", [(SYM2, 2), (SYM4, 4)])
    def test_state_dimensions(self, eq7_ext, variant, dim):
        sys = build_embedding(eq7_ext, variant)
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
                build_embedding(ext, SYM2)

    def test_non_square_rect_unavailable(self):
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 2.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 2.0))
        with pytest.raises(EmbeddingUnavailable):
            build_embedding(ext, SYM2)


class TestStep:
    def test_sym2_step_is_the_symmetrized_map(self, eq7_ext):
        # F(x,y) = (1+x)/(1+x+y); G(x,y) = (F(x,y), F(y,x))
        sys = build_embedding(eq7_ext, SYM2)
        out = sys.step(np.array([0.0, 1.0]))
        assert out == pytest.approx([0.5, 1.0])

    def test_diagonal_states_track_the_planar_map(self, eq7_ext):
        # the state (x, y, x, y) steps to (F(x, y), x, F(x, y), x): both
        # halves follow the companion map T(x, y) = (F(x, y), x)
        sys = build_embedding(eq7_ext, SYM4)
        t = sys.step(np.array([0.3, 0.6, 0.3, 0.6]))
        fx = float(eq7_ext.base(0.3, 0.6))
        assert t == pytest.approx([fx, 0.3, fx, 0.3], abs=1e-12)

    def test_batched_step_matches_scalar(self, eq7_ext, rng):
        sys = build_embedding(eq7_ext, SYM4)
        states = rng.uniform(0.0, 1.0, (50, 4))
        batch = sys.step(states)
        for i in range(50):
            assert batch[i] == pytest.approx(sys.step(states[i]), abs=1e-14)

    def test_step_stays_in_box(self, eq8_ext, rng):
        sys = build_embedding(eq8_ext, SYM4)
        states = rng.uniform(sys.a, sys.b, (200, 4))
        out = sys.step(states)
        assert np.all(out >= sys.a) and np.all(out <= sys.b)


class TestOrderPreservation:
    @pytest.mark.parametrize("variant", [SYM2, SYM4])
    def test_random_ordered_pairs_stay_ordered(self, eq7_ext, variant):
        sys = build_embedding(eq7_ext, variant)
        audit = check_order_preserving(
            sys, n_pairs=2000, rng=np.random.default_rng(7)
        )
        assert audit.ok
        assert audit.n_pairs == 2000

    def test_order_audit_catches_a_broken_map(self, eq7_ext):
        # declare the wrong variant ordering by lying about the signs
        sys = build_embedding(eq7_ext, SYM2)
        sys.order_signs = np.array([1.0, 1.0])  # wrong mask on purpose
        audit = check_order_preserving(
            sys, n_pairs=2000, rng=np.random.default_rng(8)
        )
        assert not audit.ok
        assert audit.witness_before is not None


class TestCornerChains:
    @pytest.mark.parametrize("variant", [SYM2, SYM4])
    def test_chains_converge_to_the_equilibrium(self, eq7_ext, variant):
        sys = build_embedding(eq7_ext, variant)
        lo, hi, stop = run_corner_chains(sys)
        assert stop == CONVERGED
        assert np.allclose(lo.limit, SQRT_HALF, atol=1e-8)
        assert np.allclose(hi.limit, SQRT_HALF, atol=1e-8)

    @pytest.mark.parametrize("variant", [SYM2, SYM4])
    def test_stops_once_the_order_interval_closes(self, eq8_ext, variant):
        sys = build_embedding(eq8_ext, variant)
        tol = 1e-9 * (sys.b - sys.a)
        lo, hi, stop = run_corner_chains(sys, tol=tol)
        assert stop == CONVERGED
        assert lo.n_iter == hi.n_iter
        widths = np.max(np.abs(hi.states - lo.states), axis=1)
        assert widths[-1] <= tol < np.min(widths[:-1])

    def test_chains_are_monotone_every_step(self, eq8_ext):
        sys = build_embedding(eq8_ext, SYM4)
        lo, hi, _ = run_corner_chains(sys)
        signs = sys.order_signs
        for chain, direction in ((lo, 1.0), (hi, -1.0)):
            diffs = np.diff(chain.states, axis=0)
            assert np.all(direction * signs * diffs >= -1e-10 * (sys.b - sys.a))

    def test_eq8_limit(self, eq8_ext):
        sys = build_embedding(eq8_ext, SYM4)
        lo, hi, _ = run_corner_chains(sys)
        assert np.allclose(lo.limit, 0.7, atol=1e-6)
        assert np.allclose(hi.limit, 0.7, atol=1e-6)

    def test_bracketing_of_interior_orbits(self, eq7_ext, rng):
        sys = build_embedding(eq7_ext, SYM4)
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
        sys = build_embedding(ext, SYM2)
        lo, hi, stop = run_corner_chains(sys, max_iter=100000)
        assert stop == STALLED
        assert lo.n_iter == hi.n_iter == 2000

    def test_max_iter_stop(self, eq8_ext):
        sys = build_embedding(eq8_ext, SYM4)
        lo, hi, stop = run_corner_chains(sys, max_iter=5)
        assert stop == MAX_ITER
        assert lo.n_iter == hi.n_iter == 5


class _Rowwise:
    """An embedded system whose step t of a state s becomes
    ``change(sys, s, t)`` for the states whose first coordinate satisfies
    ``pick``.  The rule looks at each state alone, so stepping one state
    or a batch sees the same changes."""

    def __init__(self, sys, pick, change):
        self._sys = sys
        self._pick = pick
        self._change = change

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def step(self, state):
        s = np.asarray(state, dtype=float)
        t = self._sys.step(s)
        hit = self._pick(s[..., 0])
        t[hit] = self._change(self._sys, s[hit], t[hit])
        return t


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

    @pytest.mark.parametrize("variant", [SYM2, SYM4])
    @pytest.mark.parametrize("fault,failing,iteration", [
        (_AT_MAX_CORNER, MAX_CORNER, 1),
        (_ON_MIN_CHAIN, MIN_CORNER, 3),
        # both chains are faulty; the first fault ends the run
        (lambda x: _AT_MAX_CORNER(x) | _ON_MIN_CHAIN(x), MAX_CORNER, 1),
    ], ids=["max_corner_only", "min_corner_only", "both"])
    def test_failure_names_the_chain(self, eq7_ext, variant, fault, failing,
                                     iteration):
        sys = _Rowwise(build_embedding(eq7_ext, variant), fault, _REVERSE)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value).startswith(
            f"{failing} chain lost monotonicity at iteration {iteration} "
        )


class TestChainArtifacts:
    def test_to_dict_round_trips_through_json(self, eq7_ext):
        import json

        sys = build_embedding(eq7_ext, SYM2)
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
