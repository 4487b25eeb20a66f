import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.embedding import (
    EmbeddedSystem,
    MAX_CORNER,
    MIN_CORNER,
    SYM2,
    SYM4,
    SYM8,
    build_embedding,
    check_order_preserving,
    run_corner_chains,
    squeeze_bounds,
)
from monomap.errors import (
    ChainMonotonicityBroken,
    EmbeddingUnavailable,
    SlowConvergence,
)
from monomap.extension import extend_rectangle
from monomap.map_model import Box, DEC_INC, INC_DEC, MapSpec

SQRT_HALF = 0.7071067811865476


class TestConstruction:
    @pytest.mark.parametrize("variant,dim", [(SYM2, 2), (SYM4, 4), (SYM8, 8)])
    def test_state_dimensions(self, eq7_ext, variant, dim):
        sys = build_embedding(eq7_ext, variant)
        assert sys.state_dim == dim
        assert sys.min_corner.shape == (dim,)
        assert sys.precedes(sys.min_corner, sys.max_corner)

    def test_dec_inc_source_unavailable(self):
        func = lambda x, y: (1.0 + y) / (1.0 + x + y)
        spec = MapSpec(func, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
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
        sys = build_embedding(eq7_ext, SYM4)
        s = sys.diagonal_state(0.3, 0.6)
        t = sys.step(s)
        fx = float(eq7_ext.base(0.3, 0.6))
        x1, y1 = sys.planar_pair(t)
        assert x1 == pytest.approx(fx, abs=1e-12)
        assert y1 == pytest.approx(0.3, abs=1e-12)

    def test_batched_step_matches_scalar(self, eq7_ext, rng):
        sys = build_embedding(eq7_ext, SYM4)
        states = rng.uniform(0.0, 1.0, (50, 4))
        batch = sys.step(states)
        for i in range(50):
            assert batch[i] == pytest.approx(sys.step(states[i]), abs=1e-14)

    def test_step_stays_in_box(self, eq8_ext, rng):
        sys = build_embedding(eq8_ext, SYM8)
        states = rng.uniform(sys.a, sys.b, (200, 8))
        out = sys.step(states)
        assert np.all(out >= sys.a) and np.all(out <= sys.b)


class TestOrderPreservation:
    @pytest.mark.parametrize("variant", [SYM2, SYM4, SYM8])
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
    @pytest.mark.parametrize("variant", [SYM2, SYM4, SYM8])
    def test_chains_converge_to_the_equilibrium(self, eq7_ext, variant):
        sys = build_embedding(eq7_ext, variant)
        lo, hi = run_corner_chains(sys)
        assert lo.converged and hi.converged
        assert lo.monotone_verified and hi.monotone_verified
        assert np.allclose(lo.limit, SQRT_HALF, atol=1e-8)
        assert np.allclose(hi.limit, SQRT_HALF, atol=1e-8)

    def test_chains_are_monotone_every_step(self, eq8_ext):
        sys = build_embedding(eq8_ext, SYM4)
        lo, hi = run_corner_chains(sys)
        signs = sys.order_signs
        for chain, direction in ((lo, 1.0), (hi, -1.0)):
            diffs = np.diff(chain.states, axis=0)
            assert np.all(direction * signs * diffs >= -1e-10 * (sys.b - sys.a))

    def test_eq8_limit(self, eq8_ext):
        sys = build_embedding(eq8_ext, SYM4)
        lo, hi = run_corner_chains(sys)
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
        # near-identity contraction toward 0.5: the chains crawl
        func = lambda x, y: x + 1e-7 * (0.5 - x) - 1e-9 * y
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        sys = build_embedding(ext, SYM2)
        with pytest.raises(SlowConvergence) as got:
            run_corner_chains(sys, max_iter=100000, tol_chain=1e-16)
        # both chains stall at iteration 1000; the MinCorner one is reported,
        # as when the chains run one after the other
        with pytest.raises(SlowConvergence) as want:
            _reference_chains(sys, tol_chain=1e-16)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{MIN_CORNER} chain step size")


def _reference_chain(sys, start, max_iter, tol_chain):
    """One corner chain stepped on its own, one state per step."""
    s = sys.min_corner.copy() if start == MIN_CORNER else sys.max_corner.copy()
    direction = 1.0 if start == MIN_CORNER else -1.0
    states = [s]
    norms = []
    checkpoint_norm = np.inf
    for k in range(max_iter):
        t = sys.step(s)
        slack = float(np.min(direction * sys.order_signs * (t - s)))
        if slack < -tol_chain:
            raise ChainMonotonicityBroken(
                f"{start} chain lost monotonicity at iteration {k + 1} "
                f"(slack {slack:.3e}); the extension or its declared "
                "monotonicity is inconsistent"
            )
        norm = float(np.max(np.abs(t - s)))
        states.append(t)
        norms.append(norm)
        s = t
        if norm < tol_chain:
            break
        if (k + 1) % 1000 == 0:
            if norm > 0.999 * checkpoint_norm:
                raise SlowConvergence(
                    f"{start} chain step size stalled at {norm:.3e} after "
                    f"{k + 1} iterations"
                )
            checkpoint_norm = norm
    return np.asarray(states), np.asarray(norms)


def _reference_chains(sys, max_iter=100000, tol_chain=None):
    """The MinCorner chain to its end, then the MaxCorner chain."""
    if tol_chain is None:
        tol_chain = 1e-10 * (sys.b - sys.a)
    return [_reference_chain(sys, start, max_iter, tol_chain)
            for start in (MIN_CORNER, MAX_CORNER)]


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
# two steps of G at once: a chain through such states stays monotone
# and gets ahead
_TWICE = lambda sys, s, t: sys.step(t)

# for the eq7 chains on [0, 1]: the MaxCorner chain starts at first
# coordinate 1 and falls towards 0.7071; the MinCorner chain rises from
# 0 through 0.5 and 0.6
_AT_MAX_CORNER = lambda x: x > 0.99
_ON_MIN_CHAIN = lambda x: (x > 0.55) & (x < 0.62)
_ABOVE_LIMIT = lambda x: x > 0.71


class TestBatchedChainsMatchPerCorner:
    """run_corner_chains steps both corners as one batch; each chain must
    come out exactly as when stepped alone."""

    @pytest.mark.parametrize("variant", [SYM2, SYM4, SYM8])
    @pytest.mark.parametrize("ext_name", ["eq7_ext", "eq8_ext"])
    def test_states_and_step_norms_bit_for_bit(self, request, ext_name,
                                               variant):
        sys = build_embedding(request.getfixturevalue(ext_name), variant)
        chains = run_corner_chains(sys)
        for chain, (states, norms) in zip(chains, _reference_chains(sys)):
            assert chain.converged
            assert np.array_equal(chain.states, states)
            assert np.array_equal(chain.step_norms, norms)
            assert np.array_equal(chain.limit, states[-1])

    @pytest.mark.parametrize("variant", [SYM2, SYM4, SYM8])
    def test_chain_that_stops_first_leaves_the_other_running(self, eq7_ext,
                                                            variant):
        # the MaxCorner chain takes double steps and converges first
        sys = _Rowwise(build_embedding(eq7_ext, variant), _ABOVE_LIMIT, _TWICE)
        lo, hi = run_corner_chains(sys)
        (lo_states, lo_norms), (hi_states, hi_norms) = _reference_chains(sys)
        assert lo.converged and hi.converged
        assert hi.n_iter < lo.n_iter
        assert np.array_equal(lo.states, lo_states)
        assert np.array_equal(lo.step_norms, lo_norms)
        assert np.array_equal(hi.states, hi_states)
        assert np.array_equal(hi.step_norms, hi_norms)

    @pytest.mark.parametrize("variant", [SYM2, SYM4, SYM8])
    @pytest.mark.parametrize("fault,failing", [
        (_AT_MAX_CORNER, MAX_CORNER),
        (_ON_MIN_CHAIN, MIN_CORNER),
        # the MaxCorner chain fails first (iteration 1), the MinCorner
        # chain later (iteration 3); the MinCorner error is the one raised
        (lambda x: _AT_MAX_CORNER(x) | _ON_MIN_CHAIN(x), MIN_CORNER),
    ], ids=["max_corner_only", "min_corner_only", "both"])
    def test_failure_type_and_message(self, eq7_ext, variant, fault, failing):
        sys = _Rowwise(build_embedding(eq7_ext, variant), fault, _REVERSE)
        with pytest.raises(ChainMonotonicityBroken) as want:
            _reference_chains(sys)
        with pytest.raises(ChainMonotonicityBroken) as got:
            run_corner_chains(sys)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{failing} chain lost")


class TestSqueeze:
    def test_case_ii_holds_for_eq7(self, eq7_ext):
        sys = build_embedding(eq7_ext, SYM4)
        rep = squeeze_bounds(sys, (0.6, 0.8), (0.8, 0.6))
        assert rep.holds
        assert rep.case == "ii"

    def test_sym2_rejected(self, eq7_ext):
        sys = build_embedding(eq7_ext, SYM2)
        with pytest.raises(EmbeddingUnavailable):
            squeeze_bounds(sys, (0.6, 0.8), (0.8, 0.6))


class TestChainArtifacts:
    def test_write_csv(self, eq7_ext, tmp_path):
        sys = build_embedding(eq7_ext, SYM2)
        lo, hi = run_corner_chains(sys)
        path = tmp_path / "chain.csv"
        lo.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == lo.n_iter + 2  # header + states
        assert "step" in lines[0]

    def test_to_dict_round_trips_through_json(self, eq7_ext):
        import json

        sys = build_embedding(eq7_ext, SYM2)
        lo, _ = run_corner_chains(sys)
        doc = json.loads(json.dumps(lo.to_dict()))
        assert doc["converged"]


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
        order_margin = EmbeddedSystem.order_margin

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
