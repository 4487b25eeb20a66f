"""Digests of every artifact a benchmark workload's operations write.

    python3 tools/artifact_digests.py --workload NAME --seed N --seconds S
    python3 tools/artifact_digests.py --workload all --seed N --seconds S

Builds the seeded operation list of one workload from
``perfbench/workloads.py``, as ``perfbench/run.py`` builds it for a run of
``--seconds`` seconds, runs each operation once through
``monomap.cli.main`` in this process, and prints one line per artifact:
the operation's index, the file name and its sha256.  Each operation's
artifacts are followed by one line for what the CLI returned and
printed: its index, ``exit=`` and the exit code, and the sha256 of its
stdout.  A certify operation also prints one line for its corner chains:
its index, ``chain_states`` and the sha256 of every state and step norm
of both chains, as ``run_corner_chains`` returned them, so a change to a
step that ``chains.csv`` leaves out of its checkpoint rows shows too.
The sources come from this checkout's ``src``.  With
``--workload all`` it digests every workload in turn, each line led by
the workload's name.

With a fixed seed the CLI writes byte-identical outputs, so two runs
print the same lines; and a refactor that must leave every artifact,
exit code and message unchanged shows it by the same lines at the parent
commit and at the change.
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

import monomap.stability  # noqa: E402
from monomap.cli import main as cli_main  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def digests(workload: str, seed: int, seconds: int):
    """(operation index, name, sha256) of every artifact, in order, then
    (index, "exit=<code>", sha256 of its stdout) per operation, and for
    a certify operation (index, "chain_states", sha256 of its chains)."""
    _, ops = GENERATORS[workload](seed, seconds)
    run_corner_chains = monomap.stability.run_corner_chains
    chains = []  # the bytes of the operation's corner chains

    def recorded(*args, **kwargs):
        out = run_corner_chains(*args, **kwargs)
        chains.extend(a.tobytes() for chain in out[:2]
                      for a in (chain.states, chain.step_norms))
        return out

    monomap.stability.run_corner_chains = recorded
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for k, op in enumerate(ops):
                chains.clear()
                out = Path(tmp) / f"op{k:04d}"
                out.mkdir()
                cfg = Path(tmp) / f"op{k:04d}.ini"
                cfg.write_text(op.config)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_main([op.command, "--config", str(cfg),
                                     "--out", str(out), "--seed",
                                     str(op.seed)])
                for path in sorted(out.iterdir()):
                    yield k, path.name, _sha256(path.read_bytes())
                yield k, f"exit={code}", _sha256(stdout.getvalue().encode())
                if op.command == "certify":
                    yield k, "chain_states", _sha256(b"".join(chains))
    finally:
        monomap.stability.run_corner_chains = run_corner_chains


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args(argv)
    every = args.workload == "all"
    for w in GENERATORS if every else [args.workload]:
        lead = f"{w} " if every else ""
        for k, name, digest in digests(w, args.seed, args.seconds):
            print(f"{lead}{k} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
