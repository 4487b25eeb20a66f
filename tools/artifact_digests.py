"""Digests of every artifact a benchmark workload's operations write.

    python3 tools/artifact_digests.py --workload NAME --seed N --seconds S

Builds the seeded operation list of one workload from
``perfbench/workloads.py``, as ``perfbench/run.py`` builds it for a run of
``--seconds`` seconds, runs each operation once through
``monomap.cli.main`` in this process, and prints one line per artifact:
the operation's index, the file name and its sha256.  The sources come
from this checkout's ``src``.

With a fixed seed the CLI writes byte-identical outputs, so two runs
print the same lines; and a refactor that must leave every artifact
unchanged shows it by the same lines at the parent commit and at the
change.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from monomap.cli import main as cli_main  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def digests(workload: str, seed: int, seconds: int):
    """(operation index, file name, sha256) of every artifact, in order."""
    _, ops = GENERATORS[workload](seed, seconds)
    with tempfile.TemporaryDirectory() as tmp:
        for k, op in enumerate(ops):
            out = Path(tmp) / f"op{k:04d}"
            out.mkdir()
            cfg = Path(tmp) / f"op{k:04d}.ini"
            cfg.write_text(op.config)
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main([op.command, "--config", str(cfg), "--out", str(out),
                          "--seed", str(op.seed)])
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                yield k, path.name, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args(argv)
    for k, name, digest in digests(args.workload, args.seed, args.seconds):
        print(f"{k} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
