"""Command-line front end.

    monomap <extend|fixedpoints|certify|simulate> --config FILE
            [--out DIR] [--seed N]

The config is flat ``key = value`` text under ``[section]`` headers (see
README for the key reference).  Every pass/fail threshold is fixed and
scaled to the problem: the fixed-point tolerance tol_fp is 1e-9 of the
box span, and certify stops the corner chains once their order interval
is at most 10 * tol_fp wide.  Each command accepts only the ``[run]``
keys it reads (extend: seed; fixedpoints: seed, n_grid; certify: seed,
n_grid, n_orbits, orbit_steps, max_iter, n_order_pairs; simulate: seed,
steps, n_orbits, x0, x_m1), and every ``[run]`` size among them must be
at least 1.  Certify always runs the 4-dimensional embedding (Sym4).
Simulate runs one orbit from (x0, x_m1) when both are given, n_orbits
random starts when neither is, and rejects one without the other, or
n_orbits beside them.  ``[map]``
names a family (eq7, eq8, xfy or expression); each is an expression
compiled by ``map_model.compile_expression``, and a key the family does
not read, or a parameter the expression never names, is a configuration
error.  Extend and fixedpoints first check the declared monotone
signature by sampling the domain's bounding box, and exit 2 with the
witness when it fails; fixedpoints then audits the extension with the
seed's rng, as extend does, and exits 2 without searching when the audit
fails.  Exit
codes: 0 success / GloballyStable, 1 Inconclusive or Refuted verdict, or
unresolved fixed-point search, 2 audit, signature or numeric failure, 3
unsupported domain, 4 configuration or usage error.  With a fixed seed
all JSON/CSV/SVG outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import fixed_points as fp
from . import report
from .errors import (
    ConfigError,
    DegenerateCase,
    MonomapError,
    NonFiniteValue,
    UnsupportedDomain,
)
from .examples import make_eq7, make_eq8, make_xfy
from .extension import audit_extension, extend
from .geometry import DomainSpec
from .map_model import (Box, DEC_INC, INC_DEC, MapSpec, check_monotonicity,
                        compile_expression)
from .stability import (SIZE_KEYS, _run_ensemble, certify, check_sizes,
                        iterate_orbit, sample_starts)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_AUDIT_FAIL = 2
EXIT_UNSUPPORTED = 3
EXIT_CONFIG = 4


# ---------------------------------------------------------------------------
# Config file parsing: [section] headers + key = value lines.
# ---------------------------------------------------------------------------

# the [run] keys each command reads; giving it any other is an error
_COMMAND_RUN_KEYS = {
    "extend": {"seed"},
    "fixedpoints": {"seed", "n_grid"},
    "certify": {"seed", "n_grid", "n_orbits", "orbit_steps", "max_iter",
                "n_order_pairs"},
    "simulate": {"seed", "steps", "n_orbits", "x0", "x_m1"},
}

_KNOWN_KEYS = {
    "map": {"family", "expr", "signature", "f"},
    "domain": {"kind", "rect", "vertices"},
    "run": set().union(*_COMMAND_RUN_KEYS.values()),
}


def parse_config(text: str) -> dict:
    """Parse the flat key=value config with [section] headers."""
    cfg = {s: {} for s in _KNOWN_KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, val = (part.strip() for part in line.split("=", 1))
        known = _KNOWN_KEYS[section]
        # [map] admits free numeric parameter names for families/expressions
        if key not in known and section != "map":
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        cfg[section][key] = val
    return cfg


def _as_float(cfg_sec: dict, key: str, default=None) -> Optional[float]:
    if key not in cfg_sec:
        return default
    try:
        return float(cfg_sec[key])
    except ValueError as e:
        raise ConfigError(f"{key} must be a number, got {cfg_sec[key]!r}") from e


def _as_int(cfg_sec: dict, key: str, default=None) -> Optional[int]:
    if key not in cfg_sec:
        return default
    try:
        return int(cfg_sec[key])
    except ValueError as e:
        raise ConfigError(f"{key} must be an integer, got {cfg_sec[key]!r}") from e


# the rational families: constructor and the [map] keys it reads, in
# argument order
_FAMILIES = {"eq7": (make_eq7, ("p", "q", "r")), "eq8": (make_eq8, ("p", "h"))}


def _reject_unread(family: str, unread) -> None:
    if unread:
        raise ConfigError(f"family {family} does not read the [map] "
                          f"key(s) {', '.join(sorted(unread))}")


def build_problem(cfg: dict):
    """Instantiate (MapSpec, DomainSpec) from a parsed config."""
    msec = dict(cfg["map"])
    family = msec.pop("family", None)
    if family is None:
        raise ConfigError("[map] needs a family= key (eq7, eq8, xfy, expression)")
    if family in _FAMILIES:
        make, names = _FAMILIES[family]
        _reject_unread(family, set(msec) - set(names))
        if len(msec) < len(names):
            raise ConfigError(f"{family} needs {'=, '.join(names)}=")
        spec, domain = make(*(_as_float(msec, k) for k in names))
    elif family == "xfy":
        fexpr = msec.pop("f", None)
        if fexpr is None:
            raise ConfigError("xfy needs f= (an expression in y)")
        _reject_unread(family, {"expr", "signature"} & set(msec))
        params = {k: _as_float(msec, k) for k in msec}
        g = compile_expression(fexpr, params)
        spec, domain = make_xfy(lambda yv: g(0.0, yv))
    elif family == "expression":
        expr = msec.pop("expr", None)
        if expr is None:
            raise ConfigError("expression map needs expr=")
        sig_txt = msec.pop("signature", "inc_dec")
        if sig_txt not in ("inc_dec", "dec_inc"):
            raise ConfigError("signature must be inc_dec or dec_inc")
        params = {k: _as_float(msec, k) for k in msec}
        sig = INC_DEC if sig_txt == "inc_dec" else DEC_INC
        spec = MapSpec(compile_expression(expr, params), sig, None,
                       name="expression", params=params)
        domain = None
    else:
        raise ConfigError(f"unknown map family {family!r}")

    dsec = cfg["domain"]
    if dsec:
        kind = dsec.get("kind")
        if kind == "rect":
            try:
                x0, x1, y0, y1 = (float(v) for v in dsec["rect"].split(","))
            except (KeyError, ValueError) as e:
                raise ConfigError("rect domain needs rect=x0,x1,y0,y1") from e
            domain = DomainSpec.rectangle(x0, x1, y0, y1)
        elif kind == "polygon":
            try:
                pairs = [pair.split(",") for pair in dsec["vertices"].split(";")]
                pts = [(float(x), float(y)) for x, y in pairs]
            except (KeyError, ValueError) as e:
                raise ConfigError(
                    "polygon domain needs vertices=x1,y1;x2,y2;..."
                ) from e
            domain = DomainSpec.polygon(pts)
        elif kind is not None:
            raise ConfigError(f"unknown domain kind {kind!r}")
    if domain is None:
        raise ConfigError("no domain: give [domain] or use a builtin family")
    return spec, domain


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _signature_fails(spec: MapSpec, domain: DomainSpec) -> bool:
    """Check the declared signature on the domain's bounding box, where
    extend and the fixed-point search rest on it, as certify's first
    stage does; print the witness of a failure."""
    mono = check_monotonicity(spec, Box(*domain.bbox))
    if not mono.ok:
        print(f"declared monotone signature fails at {mono.witness}")
    return not mono.ok


def cmd_extend(cfg: dict, out: Path, seed: int) -> int:
    spec, domain = build_problem(cfg)
    if _signature_fails(spec, domain):
        return EXIT_AUDIT_FAIL
    ext = extend(spec, domain)
    audit = audit_extension(ext, rng=np.random.default_rng(seed))
    report.write_json(out / "extension.json", ext.to_dict())
    report.write_json(out / "extension_audit.json", audit.to_dict())
    (out / "pieces.svg").write_text(report.render_pieces_svg(ext))
    print(f"extension: {len(ext.pieces)} pieces; audit "
          f"{'passed' if audit.all_ok else 'FAILED'}")
    return EXIT_OK if audit.all_ok else EXIT_AUDIT_FAIL


def cmd_fixedpoints(cfg: dict, out: Path, seed: int) -> int:
    spec, domain = build_problem(cfg)
    if _signature_fails(spec, domain):
        return EXIT_AUDIT_FAIL
    ext = extend(spec, domain)
    # the search's enclosures rest on a monotone extension: audit it
    # first, as extend and certify do
    audit = audit_extension(ext, rng=np.random.default_rng(seed))
    if not audit.all_ok:
        failed = [name for name, ok in (
            ("continuity", audit.continuity_ok),
            ("agreement", audit.agreement_ok),
            ("monotonicity", audit.monotone_ok),
            ("range", audit.nice_ok)) if not ok]
        print(f"extension audit FAILED ({', '.join(failed)}); no "
              "fixed-point search run")
        return EXIT_AUDIT_FAIL
    n_grid = _as_int(cfg["run"], "n_grid", 256)
    rep = fp.find_artificial(ext, n_grid=n_grid)
    report.write_json(out / "fixed_points.json", rep.to_dict())
    print(f"equilibria: {[x for x, _ in rep.equilibria]}; artificial: "
          f"{[pair for pair, _, _ in rep.artificial]}; "
          f"{len(rep.unresolved)} unresolved search box(es)")
    return EXIT_INCONCLUSIVE if rep.unresolved else EXIT_OK


def cmd_certify(cfg: dict, out: Path, seed: int) -> int:
    spec, domain = build_problem(cfg)
    run = cfg["run"]
    ccfg = {"seed": seed}
    for key in sorted((_COMMAND_RUN_KEYS["certify"] - {"seed"}) & run.keys()):
        ccfg[key] = _as_int(run, key)
    cert = certify(spec, domain, ccfg)
    report.write_json(out / "certificate.json", cert.to_dict())
    (out / "certificate.md").write_text(report.render_certificate_md(cert))
    if cert.chains is not None:
        report.write_chains_csv(out / "chains.csv", *cert.chains)
    if cert.orbit_traces is not None:
        report.write_orbits_csv(out / "orbits.csv", cert.orbit_traces,
                                cert.orbit_trace_steps)
        (out / "phase.svg").write_text(
            report.render_phase_svg(
                domain,
                traces=cert.orbit_traces,
                fixed_points=[cert.x_star] if cert.x_star is not None else [],
                rect=cert.extension.rect,
                previous=cert.orbit_trace_previous,
            )
        )
    else:
        (out / "phase.svg").write_text(report.render_phase_svg(domain))
    print(f"verdict: {cert.verdict} {cert.verdict_detail}")
    if cert.globally_stable:
        return EXIT_OK
    err = cert.verdict_detail.get("error")
    if err == "UnsupportedDomain":
        return EXIT_UNSUPPORTED
    return EXIT_INCONCLUSIVE


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    spec, domain = build_problem(cfg)
    run = cfg["run"]
    steps = _as_int(run, "steps", 1000)
    x0 = _as_float(run, "x0")
    x_m1 = _as_float(run, "x_m1")
    if (x0 is None) != (x_m1 is None):
        given, missing = ("x0", "x_m1") if x_m1 is None else ("x_m1", "x0")
        raise ConfigError(f"[run] {given} needs {missing} too; give both "
                          "or neither")
    if x0 is not None and "n_orbits" in run:
        raise ConfigError("[run] n_orbits counts random starts; simulate "
                          "runs one orbit from the given x0, x_m1")
    rng = np.random.default_rng(seed)
    if x0 is not None:
        orbit = iterate_orbit(spec, x0, x_m1, steps, domain=domain)
        traces = orbit.values[1:, None]
        kept = range(len(traces))
        (out / "orbit.svg").write_text(report.render_orbit_svg(orbit.values))
        if orbit.exited_at is not None:
            print(f"orbit left the domain at step {orbit.exited_at}")
    else:
        n_orbits = _as_int(run, "n_orbits", 20)
        sx, sy = sample_starts(domain, n_orbits, rng)
        x0b, x1b, y0b, y1b = domain.bbox
        span = max(x1b - x0b, y1b - y0b)
        _, exits, traces, _, kept, _ = _run_ensemble(
            spec, domain, sx, sy, steps, 1e-9 * span, keep_every=1
        )
        if exits:
            print(f"{exits} of {n_orbits} orbits left the domain")
    report.write_orbits_csv(out / "orbits.csv", traces, kept)
    (out / "phase.svg").write_text(
        report.render_phase_svg(domain, traces=traces)
    )
    print(f"simulated {traces.shape[1]} orbit(s), {steps} max steps")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="monomap",
        description="Global stability certification for second-order "
        "difference equations of mixed monotonicity.",
    )
    ap.add_argument("command",
                    choices=["extend", "fixedpoints", "certify", "simulate"])
    ap.add_argument("--config", required=True, help="key=value config file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the [run] seed")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse has printed the help (exit 0) or the usage error
        return EXIT_OK if e.code == 0 else EXIT_CONFIG

    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        run = cfg["run"]
        reads = _COMMAND_RUN_KEYS[args.command]
        unread = sorted(set(run) - reads)
        if unread:
            raise ConfigError(
                f"{args.command} does not read the [run] key(s) "
                f"{', '.join(unread)}"
            )
        try:
            check_sizes({k: _as_int(run, k) for k in sorted(reads & run.keys())
                         if k in SIZE_KEYS})
        except ValueError as e:
            raise ConfigError(str(e)) from e
        seed = args.seed if args.seed is not None else _as_int(
            cfg["run"], "seed", 0
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {
            "extend": cmd_extend,
            "fixedpoints": cmd_fixedpoints,
            "certify": cmd_certify,
            "simulate": cmd_simulate,
        }[args.command]
        return handler(cfg, out, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedDomain,) as e:
        print(f"unsupported domain: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DegenerateCase as e:
        print(f"degenerate case: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NonFiniteValue as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_AUDIT_FAIL
    except MonomapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_AUDIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
