"""Benchmark entry point for ``monomap``: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's seeded operations through ``monomap.cli.main`` in this
process, times each in CPU seconds, checks every artifact independently
(outside the timed region) and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` it then repeats one round with span tracing on and reports the
per-layer metrics instead; see README.md.
"""

import os

# one thread per numeric pool, set before numpy loads here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS", "MONOMAP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check  # noqa: E402
from probe import MIXED_REF_S, UNMARSHAL_REF_S, MixedProbe  # noqa: E402
from tracing import Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import GENERATORS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # temporary outputs and trace files; git ignores it
N_SETUP = 7  # fresh interpreter starts timed per run
SEGMENT_S = 0.3  # operation CPU seconds between two host-speed probes


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def setup_seconds(n: int) -> tuple:
    """Median set-up CPU seconds of ``n`` fresh starts, scaled to the
    reference host speed, and the unscaled median.  One start before the
    timed ones writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "fresh_start.py")]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    raw, scaled = [], []
    for _ in range(n):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True).stdout
        start = json.loads(out)
        raw.append(start["setup_s"])
        scaled.append(start["setup_s"] * UNMARSHAL_REF_S
                      / statistics.mean(start["probe_s"]))
    return statistics.median(scaled), statistics.median(raw)


class MapCounter:
    """Counts the points at which each problem's own map F is evaluated.

    The wrapper goes on ``spec.func`` where the CLI builds the problem and
    hands it to the pipeline, so it sees every evaluation of F whichever
    internal path makes it."""

    def __init__(self, cli):
        self.points = 0
        build = cli.build_problem

        def counted_build(cfg):
            spec, domain = build(cfg)
            func = spec.func

            def counted(x, y):
                self.points += np.broadcast(x, y).size
                return func(x, y)

            spec.func = counted
            return spec, domain

        cli.build_problem = counted_build


@dataclass
class Round:
    cpu: list = field(default_factory=list)  # per operation, unscaled
    scaled: list = field(default_factory=list)  # per operation, see probe.py
    probes: list = field(default_factory=list)
    failed: int = 0
    map_points: int = 0
    problems: list = field(default_factory=list)
    chain_steps: int = 0
    report_bytes: int = 0
    wall: float = 0.0


def run_round(main, ops, work: Path, counter: MapCounter, probe) -> Round:
    """Run every operation once, then check and delete its outputs.

    ``probe`` is timed before the first operation and after every
    ``SEGMENT_S`` of operation CPU time; each operation's CPU time is scaled
    by the mean of the two probes around its segment."""
    r = Round()
    t0 = time.perf_counter()
    dirs = []
    r.probes.append(probe())
    segment = []
    for k, op in enumerate(ops):
        out = work / f"op{k:04d}"
        out.mkdir(parents=True)
        cfg = work / f"op{k:04d}.ini"
        cfg.write_text(op.config)
        argv = [op.command, "--config", str(cfg), "--out", str(out),
                "--seed", str(op.seed)]
        sink = io.StringIO()
        pts = counter.points
        c0 = cpu_seconds()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except Exception as e:  # noqa: BLE001 - a crash is a failed operation
            code = f"{type(e).__name__}: {e}"
        r.cpu.append(cpu_seconds() - c0)
        r.map_points += counter.points - pts
        segment.append(r.cpu[-1])
        if sum(segment) >= SEGMENT_S or k == len(ops) - 1:
            r.probes.append(probe())
            speed = MIXED_REF_S / statistics.mean(r.probes[-2:])
            r.scaled += [cpu * speed for cpu in segment]
            segment = []
        if code in (0, 1):  # a verdict, Inconclusive included
            dirs.append((op, out))
        else:
            r.failed += 1
            print(f"operation {k} failed ({code}): {sink.getvalue()[-300:]}",
                  file=sys.stderr)
    for op, out in dirs:
        r.problems += check(op, out)
        r.report_bytes += sum(f.stat().st_size for f in out.iterdir())
        if op.command == "certify":
            with open(out / "certificate.json") as fh:
                chains = json.load(fh).get("corner_chain_limits") or {}
            r.chain_steps += sum(chains[name]["n_iter"] for name in
                                 ("min_chain", "max_chain") if name in chains)
    shutil.rmtree(work)
    r.wall = time.perf_counter() - t0
    return r


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> str:
    """Threads of this process, from /proc where there is one."""
    try:
        with open("/proc/self/status") as fh:
            return next(line.split()[1] for line in fh
                        if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return "unknown"


def print_layer_table(metrics: dict, absent: list) -> None:
    print(f"{'per-layer metric':44s} {'value':>16s}  unit")
    for name, value in metrics.items():
        print(f"{name:44s} {value:16.6g}  {unit_of(name)}")
    for name in absent:
        print(f"{name:44s} {'absent':>16s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "monomap" / "cli.py").is_file():
        print(f"no monomap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    setup_s, setup_raw = setup_seconds(N_SETUP)
    sys.path.insert(0, str(SRC))
    import monomap.cli as cli

    counter = MapCounter(cli)
    probe = MixedProbe()
    warm, ops = GENERATORS[args.workload](args.seed, args.seconds)
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    warm_round = run_round(cli.main, [warm], work, counter, probe)  # untimed
    problems = list(warm_round.problems)
    if warm_round.failed:
        problems.append("the warm-up operation failed")
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(cli.main, ops, work, counter, probe))
        elapsed = time.perf_counter() - t0
        if elapsed + rounds[-1].wall > args.seconds:
            break
    rss = peak_rss_mb()
    for r in rounds:
        problems += r.problems
    if len({r.map_points for r in rounds}) != 1:
        problems.append(f"map_points differ between rounds: "
                        f"{[r.map_points for r in rounds]}")
    per_op = [statistics.median(c) for c in zip(*(r.scaled for r in rounds))]
    ops_cpu_s = statistics.median(sum(r.scaled) for r in rounds)
    ops_cpu_raw = statistics.median(sum(r.cpu) for r in rounds)
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run_round(tracer.wrap("cli.main", cli.main), ops, work, counter,
                           probe)
        tracer.uninstall()
        problems += traced.problems
        attempted += len(ops)
        failed += traced.failed
        layers = layer_metrics(tracer, {
            "chain_steps": traced.chain_steps,
            "report_bytes": traced.report_bytes,
            "overhead_s": sum(traced.scaled) - ops_cpu_s,
        })
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
        print_layer_table(layers, tracer.absent)
        print(f"trace: {len(tracer.spans)} spans in {trace_file}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_cpu_s": {"value": ops_cpu_s, "unit": "s"},
            "op_cpu_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "map_points": {"value": rounds[0].map_points, "unit": "count"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s) of {len(ops)} operations, "
          f"{time.perf_counter() - t0:.1f} s wall, {thread_count()} thread(s), "
          f"{os.cpu_count()} CPUs; unscaled ops_cpu_s {ops_cpu_raw:.3f}, "
          f"setup_s {setup_raw:.3f}; median probe "
          f"{statistics.median(p for r in rounds for p in r.probes):.4f} s")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
