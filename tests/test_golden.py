"""Golden-artifact regression test.

Reruns six CLI commands and compares every artifact they write, byte
for byte, with the copies under ``tests/data/golden/``:

* ``eq8_certify``: eq8 with p = 1, h = 0.3 and seed 0, the
  GloballyStable path through every stage;
* ``eq7_certify``: eq7 with p = 0.5, q = 2, r = 4, the Inconclusive
  path where an artificial pair is found;
* ``notched_extend``: ``extend`` of (1 + x)/(1 + x + y), signature
  inc_dec, on a notched polygon that needs a sector fill;
* ``convex_dec_inc_extend``: ``extend`` of (a + b*y)/(1 + y + c*x),
  signature dec_inc, on a convex polygon with nine vertices on a
  rotated ellipse: the zone engine in its own frame, where every other
  polygon case here runs it on the diagonal mirror of an inc_dec map;
* ``eq8_near_degenerate_certify``: eq8 with p = 1, h = 0.49 and seed 0,
  whose corner chains run for thousands of steps before they meet;
* ``eq8_simulate``: one 10,000-step eq8 orbit (p = 1, h = 0.45) from a
  fixed start inside the pentagon.

A refactor must leave these bytes unchanged.  The golden files may be
regenerated only together with a ``schema_version`` bump that
CHANGES.md explains; ``python tests/test_golden.py --regenerate``
rewrites them from the current code.
"""

import sys
from pathlib import Path

import pytest

from monomap.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "eq8_certify": (
        "certify",
        "[map]\nfamily = eq8\np = 1.0\nh = 0.3\n\n[run]\nseed = 0\n",
        ("certificate.json", "certificate.md", "chains.csv", "orbits.csv",
         "phase.svg"),
    ),
    "eq7_certify": (
        "certify",
        "[map]\nfamily = eq7\np = 0.5\nq = 2.0\nr = 4.0\n\n[run]\nseed = 0\n",
        ("certificate.json", "certificate.md"),
    ),
    "notched_extend": (
        "extend",
        "[map]\nfamily = expression\nexpr = (1 + x)/(1 + x + y)\n"
        "signature = inc_dec\n\n[domain]\nkind = polygon\n"
        "vertices = 0,0;2,0;2,2;1.4,2;1.0,1.3;0.6,2;0,2\n\n[run]\nseed = 0\n",
        ("extension.json", "extension_audit.json", "pieces.svg"),
    ),
    "convex_dec_inc_extend": (
        "extend",
        "[map]\nfamily = expression\nexpr = (a + b*y)/(1 + y + c*x)\n"
        "signature = dec_inc\na = 0.6\nb = 1.5\nc = 0.8\n\n"
        "[domain]\nkind = polygon\nvertices = 4.144,3.894;3.391,3.98;"
        "2.455,3.607;1.774,2.95;1.666,2.316;2.183,2.003;3.082,2.156;"
        "3.943,2.704;4.362,3.391\n\n[run]\nseed = 0\n",
        ("extension.json", "extension_audit.json", "pieces.svg"),
    ),
    "eq8_near_degenerate_certify": (
        "certify",
        "[map]\nfamily = eq8\np = 1.0\nh = 0.49\n\n[run]\nseed = 0\n",
        ("certificate.json", "chains.csv"),
    ),
    "eq8_simulate": (
        "simulate",
        "[map]\nfamily = eq8\np = 1.0\nh = 0.45\n\n"
        "[run]\nx0 = 2.0\nx_m1 = 0.5\nsteps = 10000\n",
        ("orbit.svg", "orbits.csv", "phase.svg"),
    ),
}


def run_case(name, out: Path) -> int:
    command, text, _ = CASES[name]
    cfg = out / "run.cfg"
    cfg.write_text(text)
    return main([command, "--config", str(cfg), "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_are_byte_identical(name, tmp_path):
    run_case(name, tmp_path)
    for fname in CASES[name][2]:
        want = (GOLDEN / name / fname).read_bytes()
        got = (tmp_path / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden copy"


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    import shutil
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            run_case(name, Path(tmp))
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for fname in CASES[name][2]:
                shutil.copyfile(Path(tmp) / fname, GOLDEN / name / fname)
