"""Shows that every artifact check rejects the damage it is meant to catch.

    python3 perfbench/selftest.py

For each case it runs one operation through ``monomap.cli.main``, requires
the check to pass on the genuine output, damages one artifact and requires
the check to fail.  Prints one line per case and exits 1 if any case
misbehaves.
"""

import contextlib
import io
import shutil
import sys

from run import OUT, SRC

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from monomap.cli import main  # noqa: E402


CASES = [
    ("eq8 x* shifted", wl.eq8_certify(1.0, 0.3, 0), checks.corrupt_x_star),
    ("eq8 chain rows swapped", wl.eq8_certify(1.0, 0.3, 0),
     checks.corrupt_swap_chain_rows),
    ("eq7 x* shifted", wl.eq7_certify(1.0, 2.0, 2.0, 0), checks.corrupt_x_star),
    ("eq7 artificial pair moved", wl.eq7_certify(1.0, 10.0, 5.0, 0),
     checks.corrupt_artificial_pair),
    ("orbit point moved outside", wl.eq8_simulate(1.0, 0.45, (0.5, 0.6), 10_000),
     checks.corrupt_orbit_point),
    ("inc_dec extension value perturbed",
     wl.domain_op(np.random.default_rng(0), 0), checks.corrupt_extension_value),
    ("dec_inc extension value perturbed",
     wl.domain_op(np.random.default_rng(0), 1), checks.corrupt_extension_value),
]


def main_selftest() -> int:
    bad = 0
    work = OUT / "selftest"
    for name, op, corrupt in CASES:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg = work / "op.ini"
        cfg.write_text(op.config)
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([op.command, "--config", str(cfg), "--out", str(out),
                         "--seed", str(op.seed)])
        genuine = checks.check(op, out)
        corrupt(out)
        damaged = checks.check(op, out)
        ok = code in (0, 1) and not genuine and damaged
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine {genuine or 'passes'}; "
              f"damaged -> {damaged[:1] or 'passes'}")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main_selftest())
