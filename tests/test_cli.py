import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli, src_env

import monomap.cli as cli
from monomap import stability
from monomap.cli import RUN_KEYS, main, parse_config
from monomap.errors import ConfigError
from monomap.examples import make_eq8
from monomap.map_model import compile_expression
from monomap.stability import certify, iterate_orbit

EQ8_CFG = """
[map]
family = eq8
p = 1.0
h = 0.3

[run]
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_sections_and_values(self):
        cfg = parse_config(EQ8_CFG + "seed = 0\n")
        assert cfg["map"]["family"] == "eq8"
        assert cfg["run"]["seed"] == "0"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top\n[map]\nfamily = eq8  # inline\n\np=1\nh=0.3\n")
        assert cfg["map"]["family"] == "eq8"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nope]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nwarp_speed = 9\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("family = eq8\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[map]\nfamily eq8\n")


class TestExpressionCompiler:
    def test_arithmetic(self):
        f = compile_expression("(p + q*x) / (1 + x + r*y)", {"p": 1, "q": 2, "r": 3})
        assert f(0.5, 0.25) == pytest.approx((1 + 1.0) / (1 + 0.5 + 0.75))

    def test_functions_and_power(self):
        f = compile_expression("exp(-x) + log(1 + y) + x**2", {})
        assert f(1.0, 0.0) == pytest.approx(np.exp(-1.0) + 1.0)

    def test_vectorized(self):
        f = compile_expression("x - y", {})
        out = f(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        assert out == pytest.approx([0.5, 1.5])

    @pytest.mark.parametrize(
        "expr",
        [
            "__import__('os').system('true')",
            "x.denominator",
            "(lambda: 1)()",
            "x if y else 0",
            "open('/etc/passwd')",
            "x @ y",
            "exp + x",
        ],
    )
    def test_unsafe_constructs_rejected(self, expr):
        with pytest.raises(ConfigError):
            compile_expression(expr, {})

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ConfigError, match="too large"):
            compile_expression("x + 1" + "0" * 400, {})

    def test_unused_parameter_rejected(self):
        assert compile_expression("p*x - y", {"p": 2.0})(1.0, 1.0) == 1.0
        with pytest.raises(ConfigError, match="parameter.s. q"):
            compile_expression("p*x - y", {"p": 2.0, "q": 7.0})

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            compile_expression("x + z", {})

    @pytest.mark.parametrize("name", ["x", "y", "exp"])
    def test_reserved_parameter_name_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            compile_expression("x + y", {name: 1.0})


class TestCommands:
    def test_extend_writes_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        out = tmp_path / "out"
        assert main(["extend", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "extension.json").exists()
        assert (out / "extension_audit.json").exists()
        assert (out / "pieces.svg").exists()
        audit = json.loads((out / "extension_audit.json").read_text())
        assert "schema_version" in audit

    def test_fixedpoints_reports_equilibrium(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        out = tmp_path / "out"
        assert main(["fixedpoints", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "fixed_points.json").read_text())
        assert "oracle_consistent" not in doc
        assert doc["artificial"] == []
        assert doc["search"]["unresolved"] == []
        assert doc["search"]["cells"] > 0

    def test_fixedpoints_reads_seed(self, tmp_path):
        # the seed draws the extension audit's sample points; the search
        # itself draws none, so its report does not depend on the seed
        docs = []
        for k, (extra, argv) in enumerate((("seed = 3\n", []),
                                           ("", ["--seed", "5"]))):
            cfg = write_cfg(tmp_path, EQ8_CFG + extra)
            out = tmp_path / str(k)
            assert main(["fixedpoints", "--config", cfg, "--out", str(out)]
                        + argv) == 0
            docs.append((out / "fixed_points.json").read_bytes())
        assert docs[0] == docs[1]

    def test_certify_globally_stable(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "GloballyStable"
        for name in ("certificate.md", "chains.csv", "orbits.csv", "phase.svg"):
            assert (out / name).exists()

    def test_certify_is_byte_identical_with_fixed_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "certificate.json").read_bytes() == (
            out2 / "certificate.json"
        ).read_bytes()

    def test_simulate_single_orbit(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            EQ8_CFG + "x0 = 0.6\nx_m1 = 0.2\nsteps = 100\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "orbits.csv").exists()
        assert (out / "orbit.svg").exists()


def read_orbits_csv(path):
    """The step column and the (rows, orbits) values of an orbits.csv."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return ([int(r[0]) for r in rows],
            np.array([[float(v) for v in r[1:]] for r in rows]))


class TestOrbitStepColumn:
    """Each orbits.csv row is labelled with the step whose state it holds,
    and no state is written twice."""

    def test_simulate_ensemble_writes_each_step_once(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG + "steps = 50\nn_orbits = 3\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        steps, vals = read_orbits_csv(out / "orbits.csv")
        assert steps == list(range(51))
        # row k is x_k: each row past the second is F of the two before
        spec, _ = make_eq8(1.0, 0.3)
        assert np.array_equal(vals[2:], spec(vals[1:-1], vals[:-2]))

    def test_certify_labels_the_settling_step(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG + "seed = 0\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        steps, vals = read_orbits_csv(out / "orbits.csv")
        # the ensemble settles after 51 steps, before the first kept
        # step 100 of its 10,000: the start and step 51 are its two rows
        assert steps == [0, 51]
        x_star = 0.7
        assert np.max(np.abs(vals[1] - x_star)) < 1e-8
        assert np.max(np.abs(vals[0] - x_star)) > 1e-3


class TestCertifyPhasePlot:
    """phase.svg draws, for each orbit, the point (x_k, x_{k-1}) at each
    step k that orbits.csv keeps."""

    def test_points_are_kept_steps_beside_their_predecessors(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG + "seed = 0\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        steps, vals = read_orbits_csv(out / "orbits.csv")
        assert steps == [0, 51]
        spec, domain = make_eq8(1.0, 0.3)
        cert = certify(spec, domain, {"seed": 0})
        x, prev = cert.orbit_traces, cert.orbit_trace_previous
        assert np.array_equal(x, vals)
        # x_{k-1} and x_k of every orbit, run again from its start
        for j in range(x.shape[1]):
            orbit = iterate_orbit(spec, x[0, j], prev[0, j], 51).values
            assert (orbit[-2], orbit[-1]) == (prev[1, j], x[1, j])
        # one polyline per orbit through its kept points, in pixels of
        # the 640 px square with 40 px margins over the box, y up
        x0, x1, y0, y1 = cert.extension.rect.as_tuple()
        scale = 560 / max(x1 - x0, y1 - y0)
        svg = (out / "phase.svg").read_text()
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(lines) == x.shape[1]
        for j, line in enumerate(lines):
            px, py = np.array([p.split(",") for p in line.split()],
                              dtype=float).T
            np.testing.assert_allclose(x0 + (px - 40) / scale, x[:, j],
                                       atol=1e-5)
            np.testing.assert_allclose(y0 + (600 - py) / scale, prev[:, j],
                                       atol=1e-5)


class TestInvarianceWitnessCertificate:
    """The certificate of a domain that is not invariant records the
    proof's witness: eq8(1, 0.3) on its pentagon with edge 4 moved 1% of
    the box inward, as `test_pentagon_edge_moved_inward_fails` builds it.
    The witness ends a four-level search, so the record is that of the
    level that found it."""

    INVARIANCE = {
        "method": "MonotoneEnclosure",
        "verified": False,
        "search": {"cells": 123, "evaluations": 246, "depth": 4,
                   "tol": 3.5460438575968005e-05, "stop": "witness",
                   "unproved": []},
        "limits": [
            "the proof is only as sound as the monotonicity of the map, "
            "which the monotonicity stage checks by sampling",
            "images are proved to lie within tol of the domain, not "
            "inside it",
        ],
        "witness": [0.0, 0.45281249999999995],
    }

    def test_certificate_records_the_witness(self, tmp_path):
        from test_stability import _shift_edge

        _, domain = make_eq8(1.0, 0.3)
        moved = _shift_edge(domain.vertices, 4, 0.01 * domain.bbox[1])
        vertices = ";".join(f"{float(x)!r},{float(y)!r}" for x, y in moved)
        cfg = write_cfg(tmp_path, "[map]\nfamily = eq8\np = 1.0\nh = 0.3\n\n"
                        f"[domain]\nkind = polygon\nvertices = {vertices}\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "Inconclusive"
        assert doc["invariance"] == self.INVARIANCE
        md = (out / "certificate.md").read_text().splitlines()
        assert ("- verified: False by 123 cells, 246 evaluations, depth 4 "
                "(stop: witness), tol 3.546e-05") in md
        assert "- witness: [0.0, 0.45281249999999995]" in md


class TestConstantMap:
    """An expression that names neither x nor y gives one value, which
    F's callers see broadcast to their points."""

    CFG = ("[map]\nfamily = expression\nexpr = 1.0\n\n"
           "[domain]\nkind = rect\nrect = 0,1,0,1\n")

    def test_extend_passes_its_audit(self, tmp_path):
        out = tmp_path / "out"
        assert main(["extend", "--config", write_cfg(tmp_path, self.CFG),
                     "--out", str(out)]) == 0
        audit = json.loads((out / "extension_audit.json").read_text())
        assert audit["all_ok"] and audit["max_jump"] == 0.0

    def test_certify_is_globally_stable(self, tmp_path):
        out = tmp_path / "out"
        assert main(["certify", "--config", write_cfg(tmp_path, self.CFG),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "certificate.json").read_text())
        assert doc["verdict"] == "GloballyStable"
        assert doc["verdict_detail"] == {"x_star": 1.0}


def test_readme_config_sample_certifies(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = write_cfg(tmp_path, sample)
    assert main(["certify", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


class TestExitCodes:
    def test_config_error_is_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nwarp = 9\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 4

    def test_removed_n_dense_key_is_4(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG + "\n[run]\nn_dense = 1024\n")
        assert main(["fixedpoints", "--config", cfg,
                     "--out", str(tmp_path)]) == 4

    def test_unresolved_search_is_1(self, tmp_path):
        # F(x, y) = (1 - y)/(1 + 3y) has a curve of artificial fixed
        # points; the search stops at its cell budget with boxes it
        # cannot decide
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = expression\nexpr = (1 - y)/(1 + 3*y) + 0*x\n"
            "signature = inc_dec\n\n[domain]\nkind = rect\n"
            "rect = 0,1,0,1\n",
        )
        assert main(["fixedpoints", "--config", cfg,
                     "--out", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "fixed_points.json").read_text())
        assert doc["search"]["unresolved"]

    @pytest.mark.parametrize("command", ["extend", "fixedpoints"])
    def test_violated_signature_is_2(self, tmp_path, capsys, command):
        # 1 - y + 3x(1 - x) decreases in x past x = 1/2, against the
        # declared inc_dec; both commands rest on that signature
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = expression\nexpr = 1 - y + k*x*(1 - x)\n"
            "k = 3\nsignature = inc_dec\n\n[domain]\nkind = rect\n"
            "rect = 0,1,0,1\n",
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "declared monotone signature fails at (0.99" in printed
        assert "'x')" in printed
        assert not (out / "fixed_points.json").exists()

    @pytest.mark.parametrize("command", ["extend", "fixedpoints"])
    def test_signature_is_checked_on_the_domains_box(self, tmp_path, capsys,
                                                     command):
        # x*f(y) holds the xfy family's signature on its own box, x >=
        # 0.01, but increases in y where x < 0, which this domain reaches;
        # certify's first stage names the same witness
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = xfy\nf = 2/(1 + y)\n\n[domain]\nkind = rect\n"
            "rect = -0.5,3,-0.5,3\n",
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "declared monotone signature fails at (-0.5, -0.5, 'y')\n")
        assert not any(out.iterdir())

    def test_failed_extension_audit_stops_fixedpoints(self, tmp_path, capsys):
        # a vertex 1e-7 off the left side leaves a continuity jump of
        # 3.2e-5 in the extension, which extend's audit reports; the
        # search must not run on it
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = expression\nexpr = y - x/(1 + x)\n"
            "signature = dec_inc\n\n[domain]\nkind = polygon\n"
            "vertices = 0,2;1e-7,0.5;1,0;3,1;2,3\n",
        )
        ext_out, fp_out = tmp_path / "extend", tmp_path / "fixedpoints"
        assert main(["extend", "--config", cfg, "--out", str(ext_out)]) == 2
        audit = json.loads((ext_out / "extension_audit.json").read_text())
        assert not audit["continuity_ok"] and audit["monotone_ok"]
        capsys.readouterr()
        assert main(["fixedpoints", "--config", cfg,
                     "--out", str(fp_out)]) == 2
        assert capsys.readouterr().out == (
            "extension audit FAILED (continuity); no fixed-point search run\n")
        assert not any(fp_out.iterdir())

    def test_missing_file_is_4(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 4

    def test_degenerate_family_is_1(self, tmp_path):
        cfg = write_cfg(tmp_path, "[map]\nfamily = eq8\np = 1.0\nh = 0.5\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unstable_regime_is_1(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "[map]\nfamily = eq7\np = 0.5\nq = 2.0\nr = 4.0\n"
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_dec_inc_map_stops_at_the_corner_chains(self, tmp_path, capsys):
        # Sym4 needs F increasing in x and decreasing in y: a dec_inc map
        # passes the stages before it and then has no embedding
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = expression\nexpr = (1 + y)/(1 + y + 2*x)\n"
            "signature = dec_inc\n\n[domain]\nkind = rect\n"
            "rect = 0,1,0,1\n",
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        reason = ("the Sym4 embedding requires a map that increases in x "
                  "and decreases in y; certify does not support a map that "
                  "decreases in x and increases in y yet")
        assert reason in capsys.readouterr().out
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["verdict"] == "Inconclusive"
        assert [(st["stage"], st["status"]) for st in doc["stages"]] == [
            ("monotonicity", "passed"), ("classify_domain", "passed"),
            ("invariance", "passed"), ("extension", "passed"),
            ("artificial_fixed_points", "passed"),
            ("corner_chains", "failed")]
        assert doc["stages"][-1]["error"] == "EmbeddingUnavailable"
        assert doc["stages"][-1]["message"] == reason

    def test_refuted_verdict_is_1(self, tmp_path, capsys, monkeypatch):
        from test_stability import _one_domain_exit

        _one_domain_exit(monkeypatch)
        cfg = write_cfg(tmp_path, EQ8_CFG)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "verdict: Refuted" in capsys.readouterr().out
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["verdict"] == "Refuted"

    def test_unsupported_domain_is_3(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[map]\nfamily = expression\nexpr = (1 + x) / (1 + x + y)\n"
            "signature = inc_dec\n\n[domain]\nkind = polygon\n"
            "vertices = 0,0;4,0;4,4;1,4;1,2;3,2;3,3;2,3;2,5;0,5\n",
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert main(["extend", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_tolerance_a_command_does_not_read_is_4(self, tmp_path, capsys):
        # every threshold is fixed in code: no command reads a tolerance
        cfg = write_cfg(tmp_path, EQ8_CFG)
        for flag in ("--tol-fp", "--tol-cont", "--tol-mono", "--tol-range"):
            assert main(["certify", "--config", cfg, "--out", str(tmp_path),
                         flag, "1e-30"]) == 4
            assert flag in capsys.readouterr().err
        cfg = write_cfg(tmp_path, EQ8_CFG + "\n[tolerances]\ntol_fp = 1e-9\n",
                        name="tols.cfg")
        for command in ("extend", "fixedpoints", "certify", "simulate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 4
            assert "[tolerances]" in capsys.readouterr().err
        with pytest.raises(ValueError, match="tol_fp"):
            certify(*make_eq8(1.0, 0.3), {"tol_fp": 1e-9})

    def test_tol_chain_is_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--tol-chain", "1e-10"]) == 4
        assert "--tol-chain" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, EQ8_CFG + "\n[tolerances]\ntol_chain = 1e-10\n",
                        name="tols.cfg")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "[tolerances]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["certify", "--config", "run.cfg", "--warp", "9"], "--warp"),
        (["certify"], "--config"),
        (["certify", "--config", "run.cfg", "--seed", "x"], "--seed"),
    ])
    def test_usage_error_is_4(self, tmp_path, capsys, monkeypatch, argv,
                              named):
        monkeypatch.chdir(tmp_path)
        write_cfg(tmp_path, EQ8_CFG)
        assert main(argv) == 4
        assert named in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_orbit_count_below_one_is_4(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, EQ8_CFG + "n_orbits = 0\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "n_orbits" in capsys.readouterr().err

    @pytest.mark.parametrize("family, keys, unread", [
        ("eq7", "p = 1.0\nq = 2.0\nr = 3.0\n", "h = 0.3"),
        ("eq8", "p = 1.0\nh = 0.3\n", "q = 2.0"),
        ("xfy", "f = 2/(1 + y)\n", "signature = dec_inc"),
    ])
    def test_unread_map_key_is_4(self, tmp_path, capsys, family, keys, unread):
        cfg = write_cfg(tmp_path, f"[map]\nfamily = {family}\n{keys}")
        assert main(["extend", "--config", cfg, "--out", str(tmp_path)]) == 0
        cfg = write_cfg(tmp_path, f"[map]\nfamily = {family}\n{keys}{unread}\n")
        assert main(["extend", "--config", cfg, "--out", str(tmp_path)]) == 4
        key = unread.split(" = ")[0]
        assert (f"family {family} does not read the [map] key(s) {key}"
                in capsys.readouterr().err)

    # the sizes n_grid (the equilibrium sweep's 256 cells) and
    # n_order_pairs (the order audit's 1,000 pairs) are constants now,
    # recorded in no output: no command reads them
    @pytest.mark.parametrize("key", sorted(
        set().union(*RUN_KEYS.values()) - {"seed", "x0", "x_m1"}
        | {"n_grid", "n_order_pairs"}))
    def test_size_below_one_is_rejected(self, tmp_path, capsys, key):
        readers = {
            "n_grid": (),
            "n_orbits": ("certify", "simulate"),
            "orbit_steps": ("certify",),
            "max_iter": ("certify",),
            "n_order_pairs": (),
            "steps": ("simulate",),
        }[key]
        assert readers == tuple(c for c in ("extend", "fixedpoints",
                                            "certify", "simulate")
                                if key in RUN_KEYS[c])
        if "certify" in readers or not readers:
            with pytest.raises(ValueError, match=key):
                certify(*make_eq8(1.0, 0.3), {key: 0})
        cfg = write_cfg(tmp_path, EQ8_CFG + f"{key} = 0\n")
        message = (f"{key} must be at least 1" if readers
                   else f"unknown key {key!r} in [run]")
        for command in readers or ("extend", "fixedpoints", "certify",
                                   "simulate"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 4
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_removed_n_boundary_key_is_4(self, tmp_path, capsys):
        # the sampled invariance check that read it is gone
        cfg = write_cfg(tmp_path, EQ8_CFG + "n_boundary = 5\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "n_boundary" in capsys.readouterr().err
        with pytest.raises(ValueError, match="n_boundary"):
            certify(*make_eq8(1.0, 0.3), {"n_boundary": 5})

    def test_removed_audit_grid_key_is_4(self, tmp_path, capsys):
        # the extension audit always runs its 100 x 100 grid
        cfg = write_cfg(tmp_path, EQ8_CFG + "audit_grid = 100\n")
        for command in ("extend", "certify"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path)]) == 4
            assert "audit_grid" in capsys.readouterr().err
        with pytest.raises(ValueError, match="audit_grid"):
            certify(*make_eq8(1.0, 0.3), {"audit_grid": 100})

    def test_removed_variant_key_is_4(self, tmp_path, capsys, monkeypatch):
        # certify runs only the Sym4 embedding; the key is rejected before
        # any stage runs, whatever its value
        def no_stage(*args):
            raise AssertionError("certify ran")

        monkeypatch.setattr(cli, "certify", no_stage)
        for variant in ("Sym5", "Sym4"):
            cfg = write_cfg(tmp_path, EQ8_CFG + f"variant = {variant}\n")
            out = tmp_path / variant
            assert main(["certify", "--config", cfg, "--out", str(out)]) == 4
            assert "'variant'" in capsys.readouterr().err
            assert not out.exists()
        with pytest.raises(ValueError, match="variant"):
            certify(*make_eq8(1.0, 0.3), {"variant": "Sym2"})

    @pytest.mark.parametrize("given, missing", [("x0", "x_m1"), ("x_m1", "x0")])
    def test_simulate_needs_both_start_keys(self, tmp_path, capsys, given,
                                            missing):
        cfg = write_cfg(tmp_path, EQ8_CFG + f"{given} = 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert f"{given} needs {missing}" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_start_rejects_n_orbits(self, tmp_path, capsys):
        # a given start runs one orbit; a count of random starts beside it
        # would be dropped
        cfg = write_cfg(tmp_path, EQ8_CFG + "x0 = 0.5\nx_m1 = 0.6\n"
                                            "n_orbits = 50\nsteps = 10\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert "n_orbits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", ["x0 = nan\nx_m1 = 0.5",
                                       "x0 = 0.5\nx_m1 = -inf",
                                       "x0 = inf\nx_m1 = nan"])
    def test_simulate_rejects_a_non_finite_start(self, tmp_path, capsys,
                                                 start):
        cfg = write_cfg(tmp_path, EQ8_CFG + start + "\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        key = "x0" if "x0 = 0.5" not in start else "x_m1"
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, unread", [
        ("extend", "n_orbits = 5\nx0 = 5\n", "n_orbits, x0"),
        ("extend", "n_grid = 64\n", "n_grid"),
        ("fixedpoints", "max_iter = 10\n", "max_iter"),
        ("fixedpoints", "n_order_pairs = 50\n", "n_order_pairs"),
        ("certify", "x0 = 0.5\nsteps = 10\n", "steps, x0"),
        ("simulate", "max_iter = 10\n", "max_iter"),
        ("simulate", "orbit_steps = 500\nsteps = 10\n", "orbit_steps"),
    ])
    def test_unread_run_key_is_4(self, tmp_path, capsys, command, extra,
                                 unread):
        cfg = write_cfg(tmp_path, EQ8_CFG + extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 4
        # a key that no command reads is unknown to all of them
        message = (f"unknown key {unread!r} in [run]"
                   if unread in ("n_grid", "n_order_pairs")
                   else f"{command} does not read the [run] key(s) {unread}")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "family = expression\nexpr = (1 + x)/(1 + x + y)\nq = 7\n",
        "family = xfy\nf = a/(1 + y)\na = 2\nb = 3\n",
    ])
    def test_unused_parameter_is_4(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, f"[map]\n{text}\n[domain]\nkind = rect\n"
                                  "rect = 0,1,0,1\n")
        assert main(["extend", "--config", cfg, "--out", str(tmp_path)]) == 4
        name = text.strip().rsplit("\n", 1)[-1].split(" = ")[0]
        assert f"parameter(s) {name}" in capsys.readouterr().err


_EXPR_MAP = "[map]\nfamily = expression\nexpr = (1 + x) / (1 + x + y)\n"
_UNIT_RECT = "\n[domain]\nkind = rect\nrect = 0,1,0,1\n"
# F(x, y) = 2x - y + 0.6 leaves the unit square from (0.9, 0.1) at once
_LEAVING_MAP = ("[map]\nfamily = expression\nexpr = 2*x - y + 0.6\n"
                + _UNIT_RECT)


# a spiral: probes deep in its coil see the boundary along all four
# axis rays
_SPIRAL = ("\n[domain]\nkind = polygon\n"
           "vertices = 0,0;4,0;4,4;1,4;1,2;2,2;2,3;3,3;3,1;0,1\n")
_EXPR_ONLY = "[map]\nfamily = expression\nexpr = "


def _unsupported(text, message):
    return pytest.param("extend", _EXPR_MAP + text, 3, "err",
                        f"unsupported domain: {message}\n")


def _config_error(text, message):
    return pytest.param("extend", text, 4, "err", f"config error: {message}\n")


@pytest.mark.parametrize("command, text, code, stream, printed", [
    _config_error("[map]\np = 1.0\n",
                  "[map] needs a family= key (eq7, eq8, xfy, expression)"),
    _config_error("[map]\nfamily = eq8\np = 1.0\n", "eq8 needs p=, h="),
    _config_error("[map]\nfamily = xfy\n", "xfy needs f= (an expression in y)"),
    _config_error("[map]\nfamily = expression\n" + _UNIT_RECT,
                  "expression map needs expr="),
    _config_error(_EXPR_MAP + "signature = inc_inc\n" + _UNIT_RECT,
                  "signature must be inc_dec or dec_inc"),
    _config_error("[map]\nfamily = eq9\n", "unknown map family 'eq9'"),
    _config_error(_EXPR_MAP + "\n[domain]\nkind = disc\n",
                  "unknown domain kind 'disc'"),
    _config_error(_EXPR_MAP + "\n[domain]\nkind = rect\nrect = 0,1,0\n",
                  "rect domain needs rect=x0,x1,y0,y1"),
    _config_error(_EXPR_MAP + "\n[domain]\nkind = rect\n",
                  "rect domain needs rect=x0,x1,y0,y1"),
    _config_error(_EXPR_MAP + "\n[domain]\nkind = polygon\nvertices = 0,0;1\n",
                  "polygon domain needs vertices=x1,y1;x2,y2;..."),
    _config_error(_EXPR_MAP + "\n[domain]\nkind = polygon\n",
                  "polygon domain needs vertices=x1,y1;x2,y2;..."),
    _config_error(_EXPR_MAP,
                  "no domain: give [domain] or use a builtin family"),
    # the parser's own words after the colon differ between Pythons
    ("extend", _EXPR_ONLY + "x +\n" + _UNIT_RECT, 4, "err",
     "config error: cannot parse expression 'x +': "),
    _config_error(_EXPR_ONLY + "x + 'a'\n" + _UNIT_RECT,
                  "unsupported constant 'a'"),
    _unsupported(_SPIRAL, "domain failed the exterior-ray test"),
    ("certify", _EXPR_MAP + _SPIRAL, 3, "out",
     "verdict: Inconclusive {'stage': 'classify_domain', 'error': "
     "'UnsupportedDomain', 'reason': 'domain is not semi-convex'}\n"),
    _unsupported("\n[domain]\nkind = rect\nrect = 1,0,0,1\n",
                 "rectangle needs x0 < x1 and y0 < y1"),
    _unsupported("\n[domain]\nkind = polygon\nvertices = 1,1;1,1;1,1\n",
                 "degenerate (zero-size) boundary"),
    _unsupported("\n[domain]\nkind = polygon\nvertices = 0,0;1,1;0,0\n",
                 "fewer than 3 distinct boundary points"),
    # a pole on the domain: the signature check meets inf
    pytest.param(
        "extend", "[map]\nfamily = expression\nexpr = 1/x - y\n" + _UNIT_RECT,
        2, "err",
        "numeric failure: map 'expression' produced non-finite values\n",
        marks=pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")),
    # F(x, x) = x on the whole diagonal: a MonomapError no handler
    # before the last one names
    ("fixedpoints",
     "[map]\nfamily = expression\nexpr = y\nsignature = dec_inc\n" + _UNIT_RECT,
     2, "err", "error: 256 of 256 grid cells are identically zero; the map "
     "has a continuum of equilibria\n"),
    ("simulate", _LEAVING_MAP + "\n[run]\nx0 = 0.9\nx_m1 = 0.1\n", 0, "out",
     "orbit left the domain at step 1\n"),
    ("simulate", _LEAVING_MAP + "\n[run]\nn_orbits = 4\nsteps = 5\n", 0, "out",
     "4 of 4 orbits left the domain\n"),
], ids=["no_family", "missing_family_keys", "xfy_without_f", "no_expr",
        "bad_signature", "unknown_family", "unknown_domain_kind", "bad_rect",
        "rect_missing", "bad_vertices", "vertices_missing", "no_domain",
        "expr_syntax", "expr_constant", "spiral_extend", "spiral_certify",
        "reversed_rect", "zero_size_polygon", "two_point_polygon",
        "non_finite_value", "monomap_error", "orbit_leaves",
        "ensemble_leaves"])
def test_each_exit_path_prints_its_message(tmp_path, capsys, command, text,
                                           code, stream, printed):
    """The config errors of build_problem, main's last two handlers and
    simulate's exit messages, each through the CLI."""
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == code
    out = capsys.readouterr()
    assert printed in (out.err if stream == "err" else out.out)


@pytest.mark.parametrize("command, text, warning, printed", [
    # f = log(y) is -inf at y = 0
    ("extend", "[map]\nfamily = xfy\nf = log(y)\n", "divide by zero",
     "error: f must be finite on the domain\n"),
    # exp(1000 x) overflows where x > 0.71, inside the domain
    ("simulate", _EXPR_ONLY + "exp(1000*x) - y\n" + _UNIT_RECT
     + "\n[run]\nn_orbits = 4\nsteps = 5\n", "overflow",
     "numeric failure: orbit ensemble produced a non-finite value at "
     "step 2\n"),
], ids=["xfy_f_not_finite", "ensemble_overflows"])
def test_a_non_finite_map_value_is_2(tmp_path, capsys, command, text,
                                     warning, printed):
    """A map that numpy evaluates to inf or NaN, with its warning."""
    cfg = write_cfg(tmp_path, text)
    with pytest.warns(RuntimeWarning, match=warning):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == printed


class TestRunKeys:
    """Each command's [run] keys are parsed, bounded and defaulted once,
    from `cli.RUN_KEYS`, before the output directory is made."""

    COMMANDS = ("extend", "fixedpoints", "certify", "simulate")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("extra, argv", [("seed = -1\n", []),
                                             ("", ["--seed", "-1"])])
    def test_negative_seed_is_4(self, tmp_path, capsys, command, extra, argv):
        cfg = write_cfg(tmp_path, EQ8_CFG + extra)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]
                    + argv) == 4
        assert ("config error: seed must be at least 0, got -1\n"
                == capsys.readouterr().err)
        assert not out.exists()

    def test_certify_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            certify(*make_eq8(1.0, 0.3), {"seed": -1})

    def test_malformed_seed_beside_the_flag_is_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EQ8_CFG + "seed = x\n")
        out = tmp_path / "out"
        assert main(["extend", "--config", cfg, "--out", str(out),
                     "--seed", "5"]) == 4
        assert "seed must be an integer, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_start_is_4_before_any_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EQ8_CFG + "x0 = half\nx_m1 = 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert "x0 must be a number, got 'half'" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_librarys(self):
        assert RUN_KEYS["fixedpoints"] == {"seed": 0}
        assert RUN_KEYS["certify"] is stability._DEFAULTS
        assert RUN_KEYS["simulate"]["steps"] == 1000
        assert RUN_KEYS["simulate"]["n_orbits"] == 20

    def test_readme_table_lists_the_keys_and_defaults(self):
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M)
        table = {command: dict(re.findall(r"`(\w+)` \(([\d,]+|none)\)",
                                          keys))
                 for command, keys in rows if command in RUN_KEYS}
        assert table == {
            command: {key: "none" if value is None else f"{value:,}"
                      for key, value in keys.items()}
            for command, keys in RUN_KEYS.items()}


class TestDegenerateDomains:
    """A polygon without interior, or with a vertex that is no number,
    is an unsupported domain, found before any stage samples it."""

    VERTICES = {"collinear": ("0,0;1,1;2,2", "zero area"),
                "nan": ("0,0;2,0;nan,2;0,2", "not finite")}

    @pytest.mark.parametrize("command", ["extend", "fixedpoints", "certify",
                                         "simulate"])
    @pytest.mark.parametrize("case", sorted(VERTICES))
    def test_exit_is_3(self, tmp_path, capsys, command, case):
        vertices, named = self.VERTICES[case]
        cfg = write_cfg(tmp_path, "[map]\nfamily = expression\n"
                        "expr = (1 + x)/(1 + x + y)\nsignature = inc_dec\n\n"
                        f"[domain]\nkind = polygon\nvertices = {vertices}\n")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        printed = capsys.readouterr()
        assert named in printed.err + printed.out


class TestSliverDomain:
    """A triangle thinner than the boundary band holds no interior point
    to sample: the commands that sample its inside stop with exit 3
    instead of drawing forever."""

    @pytest.mark.parametrize("command", ["extend", "fixedpoints"])
    def test_exit_is_3(self, tmp_path, command):
        cfg = write_cfg(tmp_path, "[map]\nfamily = expression\n"
                        "expr = (1 + x)/(1 + x + y)\nsignature = inc_dec\n\n"
                        "[domain]\nkind = polygon\n"
                        "vertices = 0,0;1,1.000001;2,2\n")
        done = run_cli([command, "--config", cfg, "--out", "out"],
                       cwd=tmp_path)
        assert done.returncode == 3, done.stderr
        assert "no point(s) of 400000 drawn" in done.stderr


class TestOverrides:
    def test_seed_override_changes_nothing_material(self, tmp_path):
        cfg = write_cfg(tmp_path, EQ8_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["certify", "--config", cfg, "--out", str(out1),
                     "--seed", "5"]) == 0
        assert main(["certify", "--config", cfg, "--out", str(out2),
                     "--seed", "5"]) == 0
        assert (out1 / "certificate.json").read_bytes() == (
            out2 / "certificate.json"
        ).read_bytes()


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; importing scipy.optimize
    # would add about half a second to every command's start-up
    subprocess.run(
        [sys.executable, "-c",
         "import sys, monomap.cli; assert 'scipy' not in sys.modules"],
        env=src_env(), check=True,
    )
