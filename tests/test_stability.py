import numpy as np
import pytest

import monomap.stability as stab
from monomap.errors import NotAFixedPoint
from monomap.examples import eq7_equilibrium, make_eq7, make_eq8
from monomap.geometry import DomainSpec
from monomap.map_model import Box, INC_DEC, MapSpec
from monomap.stability import (
    CONVERGENT_SET,
    GLOBALLY_STABLE,
    INCONCLUSIVE,
    SINK,
    certify,
    iterate_orbit,
    local_stability,
    verify_invariance,
)


class TestInvariance:
    def test_eq8_pentagon_is_invariant(self, eq8_problem):
        spec, domain = eq8_problem
        res = verify_invariance(spec, domain, n_boundary=100,
                                rng=np.random.default_rng(0))
        assert res.verified
        assert res.n_samples >= 10000

    def test_shrunk_square_is_not_invariant(self, eq8_problem):
        spec, _ = eq8_problem
        small = DomainSpec.rectangle(0.0, 0.35, 0.0, 0.35)
        res = verify_invariance(spec, small, n_boundary=50,
                                rng=np.random.default_rng(0))
        assert not res.verified
        assert res.witness is not None
        # the witness point really does leave the square
        x, y = res.witness
        fx = float(spec(x, y))
        assert not (0.0 <= fx <= 0.35 and 0.0 <= x <= 0.35) or fx > 0.35


class TestOrbits:
    def test_eq8_orbit_converges(self, eq8_problem):
        spec, domain = eq8_problem
        orbit = iterate_orbit(spec, 0.6, 0.2, 2000, domain=domain)
        assert orbit.exited_at is None
        assert orbit.final == pytest.approx(0.7, abs=1e-9)

    def test_domain_exit_is_flagged(self, eq8_problem):
        spec, _ = eq8_problem
        small = DomainSpec.rectangle(0.0, 0.35, 0.0, 0.35)
        orbit = iterate_orbit(spec, 0.0, 0.0, 50, domain=small)
        assert orbit.exited_at is not None


def _reference_orbit(map_spec, x0, x_m1, n, domain):
    """iterate_orbit with the domain checked after every step."""
    vals = np.empty(n + 2)
    vals[0] = x_m1
    vals[1] = x0
    exited = None
    for k in range(n):
        cur, prev = vals[k + 1], vals[k]
        nxt = float(map_spec(cur, prev))
        vals[k + 2] = nxt
        if exited is None and domain.contains(
            nxt, cur, tol=4 * domain.chord_tol
        ) < 0:
            exited = k + 1
    return vals, exited


# x_{n+1} = 2 cos(t) x_n - x_{n-1} turns (x_n, x_{n-1}) around an
# ellipse by t per step; the hexagon is flat, so the orbit leaves it
# through the top and bottom and comes back each half turn
_TURN = 0.05
_ROTATION = MapSpec(lambda x, y: 2 * np.cos(_TURN) * x - y, INC_DEC,
                    Box(-2.0, 2.0, -2.0, 2.0), name="rotation")
_FLAT_HEXAGON = DomainSpec.polygon(
    [(-1.2, 0.0), (-0.9, -0.5), (0.9, -0.5), (1.2, 0.0), (0.9, 0.5),
     (-0.9, 0.5)])


class TestOrbitContainmentPass:
    """iterate_orbit locates the whole orbit after it has run, block by
    block; exited_at and the values must be those of a per-step check."""

    def _assert_matches_reference(self, x0, x_m1, n):
        orbit = iterate_orbit(_ROTATION, x0, x_m1, n, domain=_FLAT_HEXAGON)
        vals, exited = _reference_orbit(_ROTATION, x0, x_m1, n, _FLAT_HEXAGON)
        assert np.array_equal(orbit.values, vals)
        assert orbit.exited_at == exited
        return orbit

    @pytest.mark.parametrize("block", [1, 5, 11, 12, 1 << 16])
    def test_leaves_and_re_enters(self, monkeypatch, block):
        # first exit at n = 12: block 11 puts it first in the second
        # block, block 12 last in the first
        monkeypatch.setattr(stab, "_ORBIT_BLOCK", block)
        orbit = self._assert_matches_reference(0.0, np.sin(_TURN), 200)
        assert orbit.exited_at == 12
        codes = _FLAT_HEXAGON.contains(orbit.values[2:], orbit.values[1:-1])
        assert codes[orbit.exited_at - 1] < 0
        assert np.any(codes[orbit.exited_at:] > 0)  # it came back in

    def test_start_outside(self):
        assert _FLAT_HEXAGON.contains(1.0, np.cos(_TURN)) < 0
        orbit = self._assert_matches_reference(1.0, np.cos(_TURN), 50)
        assert orbit.exited_at == 1

    @pytest.mark.parametrize("start", [(0.0, 0.1), (1.0, np.cos(_TURN))])
    def test_no_steps(self, start):
        orbit = self._assert_matches_reference(*start, 0)
        assert orbit.exited_at is None
        assert list(orbit.values) == [start[1], start[0]]

    def test_longer_than_one_block(self, monkeypatch):
        monkeypatch.setattr(stab, "_ORBIT_BLOCK", 8)
        # stays inside for 4 blocks and a part block: no exit anywhere
        orbit = self._assert_matches_reference(0.0, 0.01, 37)
        assert orbit.exited_at is None
        # first exit in the second block
        orbit = self._assert_matches_reference(0.0, np.sin(_TURN), 37)
        assert orbit.exited_at == 12


class TestLocalStability:
    def test_eq8_equilibrium_is_a_sink(self, eq8_problem):
        spec, _ = eq8_problem
        loc = local_stability(spec, 0.7)
        assert loc.classification == SINK
        mags = sorted(abs(ev) for ev in loc.eigenvalues)
        assert mags[0] == pytest.approx(0.6455, abs=1e-3)
        assert mags[1] == pytest.approx(0.6455, abs=1e-3)

    def test_linear_recursion_eigenvalues(self):
        # x_{n+1} = x_n/4 - y_n/8: companion eigenvalues from
        # t^2 - t/4 + 1/8 have modulus sqrt(1/8)
        spec = MapSpec(lambda x, y: x / 4.0 - y / 8.0, INC_DEC,
                       Box(-1.0, 1.0, -1.0, 1.0))
        loc = local_stability(spec, 0.0)
        assert loc.classification == SINK
        for ev in loc.eigenvalues:
            assert abs(ev) == pytest.approx(np.sqrt(1.0 / 8.0), abs=1e-5)

    def test_not_a_fixed_point(self, eq8_problem):
        spec, _ = eq8_problem
        with pytest.raises(NotAFixedPoint):
            local_stability(spec, 0.1)


class TestCertify:
    def test_eq8_globally_stable(self, eq8_problem):
        spec, domain = eq8_problem
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(0.7, abs=1e-9)
        assert cert.globally_stable

    def test_eq7_matches_bisection_oracle(self):
        spec, domain = make_eq7(1.0, 1.0, 5.0)
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        # independent oracle: plain bisection on F(x,x) - x
        g = lambda x: float(spec(x, x)) - x
        lo, hi = 1e-12, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert cert.x_star == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_eq7_unstable_regime_is_inconclusive(self):
        spec, domain = make_eq7(0.5, 2.0, 4.0)
        cert = certify(spec, domain)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"

    def test_unknown_config_key_rejected(self, eq8_problem):
        spec, domain = eq8_problem
        with pytest.raises(ValueError):
            certify(spec, domain, {"bogus_knob": 3})

    def test_certificate_serializes(self, eq8_problem):
        import json

        spec, domain = eq8_problem
        doc = certify(spec, domain).to_dict()
        assert doc["schema_version"] >= 1
        json.dumps(doc)

    def test_short_orbit_budget_leaves_verdict_alone(self):
        # 5 steps are too few for the orbits to settle; they stay inside
        # the pentagon, which contradicts nothing the proof stages showed
        spec, domain = make_eq8(1.0, 0.3)
        cert = certify(spec, domain, {"orbit_steps": 5})
        assert cert.verdict == GLOBALLY_STABLE
        stage = cert.stages[-1]
        assert stage["stage"] == "orbit_ensemble"
        assert stage["status"] == "incomplete"
        assert stage["n_domain_exits"] == 0
        assert stage["max_final_deviation"] > 1e-6
        assert cert.orbit_ensemble["steps"] == 5

    def test_equilibria_found_once(self, eq8_problem, monkeypatch):
        # the verdict reuses the equilibria of the artificial-point stage
        calls = []
        real = stab.fp.find_equilibria

        def counted(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(stab.fp, "find_equilibria", counted)
        cert = certify(*eq8_problem)
        assert cert.verdict == GLOBALLY_STABLE
        assert len(calls) == 1

    def test_coppel_style_flat_map(self):
        # one-dimensional contraction viewed as a planar map constant in y
        spec = MapSpec(lambda x, y: x / 2.0 + 0.25 - 0.0 * y, INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0))
        domain = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(0.5, abs=1e-9)


class TestFoundRegressions:
    """Stable cases that the earlier Newton sweep and dense oracle left
    Inconclusive at the artificial fixed-point stage."""

    def test_eq7_just_above_threshold_certifies(self):
        cert = certify(*make_eq7(2.05, 3.0, 3.0))
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(eq7_equilibrium(2.05, 3.0, 3.0),
                                            abs=1e-9)

    def test_eq8_p3_h0495_certifies(self):
        cert = certify(*make_eq8(3.0, 0.495))
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(3.0 - 0.495, abs=1e-9)


class TestSoundnessGate:
    """Forcing any single pipeline check to fail must flip the verdict."""

    def _certify(self, eq8_problem):
        spec, domain = eq8_problem
        return certify(spec, domain)

    def test_monotonicity_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.check_monotonicity

        def broken(*a, **k):
            audit = real(*a, **k)
            audit.ok = False
            return audit

        monkeypatch.setattr(stab, "check_monotonicity", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "monotonicity"

    def test_invariance_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.verify_invariance

        def broken(*a, **k):
            res = real(*a, **k)
            res.verified = False
            return res

        monkeypatch.setattr(stab, "verify_invariance", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "invariance"

    def test_extension_audit_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.audit_extension

        def broken(*a, **k):
            audit = real(*a, **k)
            audit.monotone_ok = False
            return audit

        monkeypatch.setattr(stab, "audit_extension", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "extension"

    def test_artificial_pair_blocks(self, eq8_problem, monkeypatch):
        real = stab.fp.find_artificial

        def broken(*a, **k):
            rep = real(*a, **k)
            rep.artificial = [((0.2, 0.9), 0.0, (0.2, 0.2, 0.9, 0.9))]
            return rep

        monkeypatch.setattr(stab.fp, "find_artificial", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"

    def test_unresolved_box_blocks(self, eq8_problem, monkeypatch):
        real = stab.fp.find_artificial

        def broken(*a, **k):
            rep = real(*a, **k)
            rep.unresolved = [((2.0, 3.0), 0.1, (1.9, 2.1, 2.9, 3.1))]
            return rep

        monkeypatch.setattr(stab.fp, "find_artificial", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"
        assert cert.artificial_search["search"]["unresolved"][0]["box"] == [
            1.9, 2.1, 2.9, 3.1]

    def test_order_audit_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.check_order_preserving

        def broken(*a, **k):
            audit = real(*a, **k)
            audit.ok = False
            return audit

        monkeypatch.setattr(stab, "check_order_preserving", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] in ("embedding", "corner_chains")


class TestVerdictVocabulary:
    def test_constants(self):
        assert GLOBALLY_STABLE == "GloballyStable"
        assert CONVERGENT_SET == "ConvergentToEquilibriumSet"
        assert INCONCLUSIVE == "Inconclusive"
