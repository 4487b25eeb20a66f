"""Golden-artifact regression test.

Reruns eight CLI commands and compares every artifact they write, byte
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
  fixed start inside the pentagon;
* ``eq8_simulate_ensemble``: 20 seeded random eq8 orbits (p = 1,
  h = 0.45) with a budget of 5,000 steps, which stop together once every
  step falls below 1e-10 of the domain's span: the ensemble path of
  ``simulate``, whose ``orbits.csv`` holds several columns;
* ``eq7_fixedpoints``: ``fixedpoints`` of eq7 with p = 0.5, q = 2,
  r = 4: the pair search's record, down to its min_width stop, with the
  artificial pair it keeps.

A refactor must leave these bytes unchanged.  A JSON or Markdown golden
file, and ``orbits.csv``, may be regenerated only together with a
``schema_version`` bump that CHANGES.md explains.  SVG and
``chains.csv`` have no schema: such a golden file may change with a
plot rule or a row rule that CHANGES.md states, while every certificate
stays byte-identical.  ``chains.csv`` keeps checkpoint rows of the
corner chains, and ``test_chains_golden_rows_are_full_chain_rows``
checks that each of its rows is the row a file of every chain step
would hold.

    PYTHONPATH=src python tests/test_golden.py --regenerate CASE/FILE ...

rewrites only the named files (say ``eq8_simulate/orbit.svg``) from the
current code, so a regeneration cannot bless a change elsewhere.  For
each JSON file it rewrites it prints the paths whose values changed, as
``CASE/FILE: a.b[2].c: old -> new``; for each CSV file whose bytes
change, its old and new row counts (the header counts as a row) and
whether every new row is an old row, as
``CASE/FILE: 5221 -> 29 rows, every new row is an old row``.
"""

import json
import sys
from pathlib import Path

import pytest

from monomap import report
from monomap.cli import main
from test_report import oracle_chain_row, oracle_checkpoints

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
    "eq8_simulate_ensemble": (
        "simulate",
        "[map]\nfamily = eq8\np = 1.0\nh = 0.45\n\n"
        "[run]\nn_orbits = 20\nsteps = 5000\nseed = 0\n",
        ("orbits.csv", "phase.svg"),
    ),
    "eq7_fixedpoints": (
        "fixedpoints",
        "[map]\nfamily = eq7\np = 0.5\nq = 2.0\nr = 4.0\n\n[run]\nseed = 0\n",
        ("fixed_points.json",),
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


@pytest.mark.parametrize(
    "name", [n for n in sorted(CASES) if "chains.csv" in CASES[n][2]])
def test_chains_golden_rows_are_full_chain_rows(name, tmp_path, monkeypatch):
    """Each row of a ``chains.csv`` golden file is the row the full-row
    oracle writes for its chain and iteration, and the rows are the
    checkpoint iterations of each chain."""
    chains = []
    write = report.write_chains_csv

    def capture(path, lo, hi):
        chains.append((lo, hi))
        write(path, lo, hi)

    monkeypatch.setattr(report, "write_chains_csv", capture)
    run_case(name, tmp_path)
    [(lo, hi)] = chains
    lines = (GOLDEN / name / "chains.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"chain,iteration,s0,s1,s2,s3,step_norm"
    assert lines[-1] == b""
    by_start = {c.start: c for c in (lo, hi)}
    seen = {c.start: [] for c in (lo, hi)}
    for line in lines[1:-1]:
        start, k = line.decode().split(",")[:2]
        row = oracle_chain_row(by_start[start], int(k))
        assert line.decode() == ",".join(row), f"{name}: {start} row {k}"
        seen[start].append(int(k))
    assert seen == {c.start: oracle_checkpoints(c.n_iter) for c in (lo, hi)}


def test_regenerate_rewrites_only_the_named_files(tmp_path, monkeypatch):
    want = (GOLDEN / "eq7_certify" / "certificate.md").read_bytes()
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    regenerate(["eq7_certify/certificate.md"])
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert written == [tmp_path / "eq7_certify" / "certificate.md"]
    assert written[0].read_bytes() == want
    for target in ("eq7_certify/phase.svg", "eq7_certify", "nope/orbit.svg"):
        with pytest.raises(SystemExit, match="no golden artifact"):
            regenerate([target])


def test_regenerate_prints_the_changed_json_paths(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    target = "eq7_certify/certificate.json"
    regenerate([target])
    assert capsys.readouterr().out == ""
    # a doctored copy of the fresh file: two values moved, a key added
    path = tmp_path / target
    fresh = json.loads(path.read_text())
    doc = json.loads(path.read_text())
    doc["artificial_search"]["search"]["evaluations"] += 1
    doc["artificial_search"]["equilibria"][0]["x"] = "moved"
    doc["stale"] = [1, 2]
    path.write_text(json.dumps(doc))
    regenerate([target, "eq7_certify/certificate.md"])
    assert capsys.readouterr().out.splitlines() == [
        f"{target}: artificial_search.equilibria[0].x: 'moved' -> "
        f"{fresh['artificial_search']['equilibria'][0]['x']!r}",
        f"{target}: artificial_search.search.evaluations: "
        f"{doc['artificial_search']['search']['evaluations']} -> "
        f"{fresh['artificial_search']['search']['evaluations']}",
        f"{target}: stale: [1, 2] -> (absent)",
    ]
    assert json.loads(path.read_text()) == fresh


def test_regenerate_prints_the_csv_row_counts(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    target = "eq8_certify/chains.csv"
    regenerate([target])
    assert capsys.readouterr().out == ""
    path = tmp_path / target
    fresh = path.read_bytes()
    rows = fresh.split(b"\r\n")[:-1]
    # an old file with one row more than the fresh one: a subset
    path.write_bytes(fresh + rows[-1] + b"\r\n")
    regenerate([target])
    # and one with a row the fresh file does not hold
    path.write_bytes(fresh.replace(rows[2], rows[2] + b"1"))
    regenerate([target])
    n = len(rows)
    assert capsys.readouterr().out.splitlines() == [
        f"{target}: {n + 1} -> {n} rows, every new row is an old row",
        f"{target}: {n} -> {n} rows, 1 new row is not an old row",
    ]
    assert path.read_bytes() == fresh


def json_changes(old, new, path=""):
    """(path, old value, new value) of every leaf where two JSON values
    differ, in key order; a key on one side only has ``ABSENT`` on the
    other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from json_changes(old.get(key, ABSENT), new.get(key, ABSENT),
                                    f"{path}.{key}" if path else key)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from json_changes(a, b, f"{path}[{k}]")
    elif repr(old) != repr(new):  # 1 differs from 1.0, NaN equals NaN
        yield path, old, new


class _Absent:
    def __repr__(self):
        return "(absent)"


ABSENT = _Absent()


def csv_change(old: bytes, new: bytes) -> str:
    """The row counts of two CSV files, and whether every row of the
    new one is a row of the old one."""
    a, b = old.split(b"\r\n")[:-1], new.split(b"\r\n")[:-1]
    extra = len(set(b) - set(a))
    return f"{len(a)} -> {len(b)} rows, " + (
        "every new row is an old row" if not extra else
        f"{extra} new row{'s are' if extra > 1 else ' is'} not an old row")


def regenerate(targets) -> None:
    """Rewrite the golden copies of the named CASE/FILE artifacts only,
    printing the changed paths of each JSON file and the row counts of
    each CSV file."""
    import contextlib
    import io
    import shutil
    import tempfile

    wanted = {}
    for target in targets:
        name, _, fname = target.partition("/")
        if name not in CASES or fname not in CASES[name][2]:
            raise SystemExit(f"no golden artifact {target!r}")
        wanted.setdefault(name, []).append(fname)
    for name, fnames in sorted(wanted.items()):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                run_case(name, Path(tmp))
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for fname in fnames:
                old, new = GOLDEN / name / fname, Path(tmp) / fname
                if fname.endswith(".json") and old.exists():
                    for path, a, b in json_changes(json.loads(old.read_text()),
                                                   json.loads(new.read_text())):
                        print(f"{name}/{fname}: {path}: {a!r} -> {b!r}")
                if (fname.endswith(".csv") and old.exists()
                        and old.read_bytes() != new.read_bytes()):
                    print(f"{name}/{fname}: "
                          f"{csv_change(old.read_bytes(), new.read_bytes())}")
                shutil.copyfile(new, old)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"] or not sys.argv[2:]:
        raise SystemExit("usage: python tests/test_golden.py --regenerate "
                         "CASE/FILE ...")
    regenerate(sys.argv[2:])
