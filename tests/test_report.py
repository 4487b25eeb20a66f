import json

import numpy as np
import pytest

from monomap.report import (
    dumps_json,
    render_certificate_md,
    render_orbit_svg,
    render_phase_svg,
    render_pieces_svg,
    write_chains_csv,
    write_json,
    write_orbits_csv,
)
from monomap.embedding import EmbeddedSystem, run_corner_chains
from monomap.geometry import DomainSpec
from monomap.stability import certify


class TestJson:
    def test_keys_are_sorted_and_stable(self):
        a = dumps_json({"b": 1, "a": [2.5, 3]})
        b = dumps_json({"a": [2.5, 3], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
        assert a.endswith("\n")

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"x": 1.5})
        assert json.loads(path.read_text()) == {"x": 1.5}

    def test_numpy_values_serialize(self, tmp_path):
        doc = {"v": np.float64(0.25), "n": np.int64(3),
               "arr": np.array([1.0, 2.0])}
        text = dumps_json(doc)
        assert json.loads(text) == {"v": 0.25, "n": 3, "arr": [1.0, 2.0]}


class TestCsv:
    def test_chains_csv(self, tmp_path, eq8_ext):
        sys = EmbeddedSystem(eq8_ext)
        lo, hi, _ = run_corner_chains(sys)
        path = tmp_path / "chains.csv"
        write_chains_csv(path, lo, hi)
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 2
        assert lines[0].count(",") >= 2

    def test_orbits_csv(self, tmp_path):
        traces = np.linspace(0, 1, 40).reshape(10, 4)
        path = tmp_path / "orbits.csv"
        write_orbits_csv(path, traces, keep_every=1)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11  # header + 10 rows


class TestSvg:
    def test_pieces_svg(self, eq8_ext):
        svg = render_pieces_svg(eq8_ext)
        assert svg.startswith("<svg") or "<svg" in svg
        assert "</svg>" in svg

    def test_phase_svg(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        svg = render_phase_svg(d)
        assert "<svg" in svg and "</svg>" in svg

    def test_orbit_svg(self):
        svg = render_orbit_svg(np.linspace(0.2, 0.7, 30))
        assert "<svg" in svg

    def test_svg_is_deterministic(self, eq8_ext):
        assert render_pieces_svg(eq8_ext) == render_pieces_svg(eq8_ext)


class TestCertificateMarkdown:
    def test_contains_verdict_and_stages(self, eq8_problem):
        spec, domain = eq8_problem
        cert = certify(spec, domain)
        md = render_certificate_md(cert)
        assert "GloballyStable" in md
        assert "invariance" in md.lower()
