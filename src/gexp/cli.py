"""Command-line front end.

Subcommands: gheat, pbar, harnack, shift-harnack, coupling, kernels, axioms.
Reports embed the fully resolved configuration plus the artifact version, so
two runs with the same configuration produce byte-identical output.  The
worker count is left out of the report: it changes no result.
Exit codes: 0 all checks pass, 1 at least one check failed (the report is
still written), 2 usage or configuration error (a PDE march above the
step budget and an unwritable --out included), 3 numerical failure (a
non-finite state; no report is written).
This module parses, formats and maps the library's verdicts to exit codes;
the PDE error budget of every check is gheat.PDE_BUDGET, and the level of
every Monte Carlo check, in standard errors, is simulate.SE_LEVEL.
Each check is a fixed-level test, so exit 1 also comes by chance: every
scenario's Girsanov check is a 3-SE test, and a 9-scenario `coupling` run
exits 1 on about 5% of seeds with nothing wrong (25 of 400 measured).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace

# only core at import: the parser takes its payoff choices from catalog()
from . import __version__
from .core import (
    Kind,
    McConfig,
    VolatilityBand,
    catalog,
    make_drift,
    make_scenario_lattice,
)

SCHEMA = 1
DEFAULT_SEED = McConfig.seed


def _band(text: str) -> VolatilityBand:
    try:
        lo, hi = (float(v) for v in text.split(","))
        return VolatilityBand(lo, hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad band {text!r}: {exc}")


def _int_from(lo: int):
    """argparse type: an integer of at least lo."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return parse


_seed = _int_from(0)


def _env_seed() -> int:
    text = os.environ.get("GEXP_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return _seed(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"GEXP_SEED: {exc}") from None


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--config", default=None, help="key = value configuration file")
    sub.add_argument("--seed", type=_seed, default=None,
                     help="RNG seed (default GEXP_SEED or %d)" % DEFAULT_SEED)
    sub.add_argument("--workers", type=_int_from(1), default=None,
                     help="Monte Carlo stepping threads (default: the core count)")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag or config key names one option exactly; a
    # prefix would not (--n is --nx under gheat but ambiguous under pbar)
    parser = argparse.ArgumentParser(prog="gexp", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    s = add_parser("gheat", help="solve the nonlinear heat equation and dump u(T, .)")
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--payoff", required=True, choices=sorted(catalog()))
    s.add_argument("--T", type=_finite_float, required=True)
    s.add_argument("--xmin", type=_finite_float, default=-10.0)
    s.add_argument("--xmax", type=_finite_float, default=10.0)
    s.add_argument("--nx", type=int, default=401)
    _add_common(s)

    s = add_parser("pbar", help="worst-case semigroup value, PDE and/or MC")
    s.add_argument("--kind", choices=("qv", "time"), required=True)
    s.add_argument("--drift", required=True)
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--payoff", required=True, choices=sorted(catalog()))
    s.add_argument("--T", type=_finite_float, required=True)
    s.add_argument("--x", type=_finite_float, required=True)
    s.add_argument("--method", choices=("pde", "mc", "both"), default="both")
    s.add_argument("--npaths", type=int, default=20000)
    s.add_argument("--nsteps", type=int, default=256)
    s.add_argument("--pieces", type=int, default=2)
    s.add_argument("--levels", type=int, default=3)
    s.add_argument("--nx", type=int, default=401)
    _add_common(s)

    s = add_parser("harnack", help="two-point Harnack certificate")
    s.add_argument("--drift", required=True)
    s.add_argument("--K", type=_finite_float, default=None,
                   help="override the drift catalog Lipschitz constant")
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--p", type=_finite_float, required=True)
    s.add_argument("--T", type=_finite_float, required=True)
    s.add_argument("--x", type=_finite_float, required=True)
    s.add_argument("--y", type=_finite_float, required=True)
    s.add_argument("--payoff", required=True, choices=sorted(catalog()))
    _add_common(s)

    s = add_parser("shift-harnack", help="shift Harnack certificate")
    s.add_argument("--drift", required=True)
    s.add_argument("--K", type=_finite_float, default=None)
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--p", type=_finite_float, required=True)
    s.add_argument("--T", type=_finite_float, required=True)
    s.add_argument("--x", type=_finite_float, required=True)
    s.add_argument("--v", type=_finite_float, required=True)
    s.add_argument("--payoff", required=True, choices=sorted(catalog()))
    _add_common(s)

    s = add_parser("coupling", help="coupling / change-of-measure diagnostics")
    s.add_argument("--drift", default="ou")
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--x", type=_finite_float, required=True)
    s.add_argument("--y", type=_finite_float, required=True)
    s.add_argument("--T", type=_finite_float, default=1.0)
    s.add_argument("--p", type=_finite_float, default=2.0)
    s.add_argument("--payoff", default="sigmoid", choices=sorted(catalog()))
    s.add_argument("--pieces", type=int, default=2)
    s.add_argument("--levels", type=int, default=3)
    s.add_argument("--npaths", type=int, default=10000)
    s.add_argument("--nsteps", type=int, default=4096)
    _add_common(s)

    s = add_parser("kernels", help="OU kernel suite and the density probe")
    s.add_argument("--alpha", type=_finite_float, default=2.0)
    _add_common(s)

    s = add_parser("axioms", help="sublinear-expectation axiom suite")
    s.add_argument("--drift", default="zero")
    s.add_argument("--band", type=_band, required=True)
    s.add_argument("--T", type=_finite_float, default=1.0)
    _add_common(s)

    return parser


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _config_tokens(path: str) -> list[str]:
    """The file's `key = value` lines as `--key=value` flags, which the parser
    then checks like any other."""
    values = _load_config(path)
    if "config" in values:
        raise ValueError("unknown configuration key 'config'")
    return [f"--{key}={val}" for key, val in values.items()]


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in ("config", "out", "workers"):
            continue
        if isinstance(val, VolatilityBand):
            val = [val.sigma_lo, val.sigma_hi]
        out[key] = val
    out["version"] = __version__
    out["schema"] = SCHEMA
    return out


def _emit(args: argparse.Namespace, report: dict, csv_rows, csv_header) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec(drift_id: str, kind: Kind, k_override=None):
    spec = make_drift(drift_id)
    if k_override is not None:
        spec = replace(spec, lipschitz_k=k_override)
    return replace(spec, kind=kind)


def _cmd_gheat(args):
    from .gheat import Grid1D, solve

    grid = Grid1D(args.xmin, args.xmax, args.nx)
    sol = solve(catalog()[args.payoff], args.band, args.T, grid)
    rows = [[float(x), float(u)] for x, u in zip(grid.xs, sol.values)]
    report = {"dt": sol.dt, "n_steps": sol.n_steps, "values": rows}
    return report, rows, ["x", "u"], True


def _cmd_pbar(args):
    from .gheat import Grid1D, pbar_pde

    kind = Kind.QV_DRIVEN if args.kind == "qv" else Kind.TIME_DRIVEN
    spec = _spec(args.drift, kind)
    payoff = catalog()[args.payoff]
    grid = Grid1D(nx=args.nx)
    report = {}
    rows = []
    ok = True
    if args.method in ("pde", "both"):
        report["pde_value"] = pbar_pde(spec, payoff, args.x, args.T, args.band, grid)
        rows.append(["pde_value", report["pde_value"]])
    if args.method in ("mc", "both"):
        from .simulate import pbar_mc

        scenarios = make_scenario_lattice(args.band, args.T, args.pieces, args.levels)
        mc = McConfig(args.npaths, args.nsteps, args.seed)
        est = pbar_mc(spec, payoff, args.x, args.T, scenarios, mc, args.workers)
        report["mc"] = est.to_dict()
        rows += [["mc_value", est.value], ["mc_argmax_std_error", est.argmax_std_error]]
    if args.method == "both":
        report["cross_check"] = est.cross_check(report["pde_value"])
        ok = report["cross_check"]["pass"]
        rows += [["cross_check_" + k, v] for k, v in report["cross_check"].items()]
    return report, rows, ["key", "value"], ok


def _cmd_certificate(verify, kind, y_or_shift, args):
    """Harnack-type certificate from `verify` for the equation of `kind`."""
    spec = _spec(args.drift, kind, args.K)
    cert = verify(spec, catalog()[args.payoff], args.x, y_or_shift, args.p, args.T, args.band)
    d = cert.to_dict()
    return {"certificate": d}, [[d[k] for k in sorted(d)]], sorted(d), cert.passed


def _cmd_harnack(args):
    from .harnack import verify_harnack

    return _cmd_certificate(verify_harnack, Kind.QV_DRIVEN, args.y, args)


def _cmd_shift_harnack(args):
    from .harnack import verify_shift_harnack

    return _cmd_certificate(verify_shift_harnack, Kind.TIME_DRIVEN, args.v, args)


def _cmd_coupling(args):
    from .coupling import run_coupling_suite

    spec = _spec(args.drift, Kind.QV_DRIVEN)
    scenarios = make_scenario_lattice(args.band, args.T, args.pieces, args.levels)
    mc = McConfig(args.npaths, args.nsteps, args.seed)
    payoff = catalog()[args.payoff]
    raw = run_coupling_suite(
        spec, args.x, args.y, args.T, scenarios, mc, args.p, payoff,
        workers=args.workers,
    )
    reports = [rep.to_dict() for rep in raw]
    ok = all(rep.passed for rep in raw)
    report = {"reports": reports, "all_pass": ok}
    header = sorted(reports[0])
    return report, [[r[k] for k in header] for r in reports], header, ok


def _cmd_kernels(args):
    from .kernels import run_kernel_suite

    rep = run_kernel_suite(alpha=args.alpha)
    report = {"report": rep.to_dict(), "all_pass": rep.passed}
    rows = (
        [["quasi_invariance:" + k, v] for k, v in rep.quasi_invariance_gaps.items()]
        + [["lower_bound:" + k, v] for k, v in rep.lower_bound_margins.items()]
        + [["dominance:violations", rep.dominance["violations"]]]
        + [["member_invariance:" + k, v] for k, v in rep.member_invariance_gaps.items()]
        + [["sup_kernel:" + k, v] for k, v in rep.sup_kernel_margins.items()]
        + [["ex38:sum_dominance_violations", rep.ex38.sum_dominance_violations]]
    )
    return report, rows, ["check", "value"], rep.passed


def _cmd_axioms(args):
    from .axioms import run_axioms

    spec = _spec(args.drift, Kind.QV_DRIVEN)
    result = run_axioms(
        spec, args.band, args.T, mc=McConfig(seed=args.seed), workers=args.workers
    )
    rows = [[c["check"], c["violation"], c["limit"], c["pass"]] for c in result["checks"]]
    return result, rows, ["check", "violation", "limit", "pass"], result["all_pass"]


# each handler returns its report (the config is added here), the CSV rows
# and header, and its verdict.  It imports the library functions it calls
# when it runs, so a command loads only its own modules and a rebound module
# attribute (a tracer, a mock) takes effect
_DISPATCH = {
    "gheat": _cmd_gheat,
    "pbar": _cmd_pbar,
    "harnack": _cmd_harnack,
    "shift-harnack": _cmd_shift_harnack,
    "coupling": _cmd_coupling,
    "kernels": _cmd_kernels,
    "axioms": _cmd_axioms,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    find_config = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    find_config.add_argument("--config", nargs="?")
    try:
        path = find_config.parse_known_args(argv)[0].config
        # file values go right after the subcommand: a later flag wins
        tokens = _config_tokens(path) if path else []
        args, extra = parser.parse_known_args(argv[:1] + tokens + argv[1:])
        for tok in extra:
            if tok in tokens:
                raise ValueError(f"unknown configuration key {tok[2:].split('=')[0]!r}")
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
        if args.seed is None:
            args.seed = _env_seed()
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"gexp: {exc}", file=sys.stderr)
        return 2
    try:
        report, csv_rows, csv_header, ok = _DISPATCH[args.command](args)
        _emit(args, {"config": _resolved_config(args), **report}, csv_rows, csv_header)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"gexp: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"gexp: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
