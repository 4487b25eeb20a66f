r"""Digests of every artifact a benchmark workload's operations write.

    python3 tools/artifact_digests.py --workload NAME --seed N --seconds S
    python3 tools/artifact_digests.py --workload all --seed N --seconds S
    python3 tools/artifact_digests.py --workload W --seed N --seconds S \
        --base REF

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
The sources come from this checkout's ``src``, or from the directory
``--src DIR``.  With ``--workload all`` it digests every workload in
turn, each line led by the workload's name.

With a fixed seed the CLI writes byte-identical outputs, so two runs
print the same lines; and a refactor that must leave every artifact,
exit code and message unchanged shows it by the same lines at the parent
commit and at the change.  ``--base REF`` makes that comparison: it
checks REF out into a temporary ``git worktree`` (removed afterwards),
digests that checkout's ``src`` and this checkout's ``src``, each in its
own process, over the same operations (this checkout's
``perfbench/workloads.py``), prints the lines that differ (``-`` at REF,
``+`` here) and exits 1 if any do, else prints how many lines agree and
exits 0.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import GENERATORS  # noqa: E402


def digests(workload: str, seed: int, seconds: int):
    """(operation index, name, sha256) of every artifact, in order, then
    (index, "exit=<code>", sha256 of its stdout) per operation, and for
    a certify operation (index, "chain_states", sha256 of its chains)."""
    import monomap.stability
    from monomap.cli import main as cli_main

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


def _digest_lines(src: Path, argv: list) -> list:
    """The lines this tool prints for the sources in ``src``, run in a
    process of their own."""
    out = subprocess.run([sys.executable, __file__, *argv, "--src", str(src)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.splitlines()


def compare_with_base(ref: str, argv: list) -> int:
    """Digest REF's ``src`` and this checkout's over the same operations;
    print the lines that differ and return 1 if any do."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet",
                        "--detach", str(base), ref], check=True)
        try:
            old = _digest_lines(base / "src", argv)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(base)], check=True)
    new = _digest_lines(ROOT / "src", argv)
    diff = [line for line in difflib.unified_diff(old, new, lineterm="", n=0)
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]
    for line in diff:
        print(line)
    if diff:
        return 1
    print(f"{len(new)} lines the same at {ref} and in this checkout")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the monomap sources to digest (default: this "
                    "checkout's src)")
    ap.add_argument("--base", metavar="REF",
                    help="compare with the digests of git revision REF's "
                    "src; exit 1 if any line differs")
    args = ap.parse_args(argv)
    if args.base is not None:
        same = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        return compare_with_base(args.base, same)
    sys.path.insert(0, str(args.src))
    every = args.workload == "all"
    for w in GENERATORS if every else [args.workload]:
        lead = f"{w} " if every else ""
        for k, name, digest in digests(w, args.seed, args.seconds):
            print(f"{lead}{k} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
