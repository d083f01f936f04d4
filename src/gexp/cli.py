"""Command-line front end.

Subcommands: gheat, pbar, harnack, shift-harnack, coupling, kernels, axioms.
Reports embed the fully resolved configuration plus the artifact version, so
two runs with the same configuration produce byte-identical output.  The
worker count is left out of the report: it changes no result.
Exit codes: 0 all checks pass, 1 at least one check failed (the report is
still written), 2 usage or configuration error (a PDE march above the
step budget included), 3 numerical failure (a non-finite state; no report
is written).
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

from . import __version__
from .axioms import run_axioms
from .core import (
    Kind,
    McConfig,
    VolatilityBand,
    catalog,
    make_drift,
    make_scenario_lattice,
)
from .coupling import mt_moment_check, run_coupling_suite
from .gheat import Grid1D, pbar_pde, solve
from .harnack import verify_harnack, verify_shift_harnack
from .kernels import run_kernel_suite
from .simulate import pbar_mc

SCHEMA = 1
DEFAULT_SEED = 12345


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
    sub.add_argument("--workers", type=_int_from(1), default=os.cpu_count() or 1,
                     help="worker pool size for independent sweeps")


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
    s.add_argument("--method", choices=("pde", "mc"), default="pde")
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
    s.add_argument("--method", choices=("pde", "mc"), default="pde")
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


def _emit(report: dict, args: argparse.Namespace, csv_rows=None, csv_header=None) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
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


def _cmd_gheat(args) -> int:
    grid = Grid1D(args.xmin, args.xmax, args.nx)
    sol = solve(catalog()[args.payoff], args.band, args.T, grid)
    rows = [[float(x), float(u)] for x, u in zip(grid.xs, sol.values)]
    report = {
        "config": _resolved_config(args),
        "dt": sol.dt,
        "n_steps": sol.n_steps,
        "values": rows,
    }
    _emit(report, args, csv_rows=rows, csv_header=["x", "u"])
    return 0


def _cmd_pbar(args) -> int:
    kind = Kind.QV_DRIVEN if args.kind == "qv" else Kind.TIME_DRIVEN
    spec = _spec(args.drift, kind)
    payoff = catalog()[args.payoff]
    grid = Grid1D(nx=args.nx)
    report = {"config": _resolved_config(args)}
    rows = []
    ok = True
    if args.method in ("pde", "both"):
        report["pde_value"] = pbar_pde(spec, payoff, args.x, args.T, args.band, grid)
        rows.append(["pde_value", report["pde_value"]])
    if args.method in ("mc", "both"):
        scenarios = make_scenario_lattice(args.band, args.T, args.pieces, args.levels)
        mc = McConfig(args.npaths, args.nsteps, args.seed)
        est = pbar_mc(spec, payoff, args.x, args.T, scenarios, mc, args.workers)
        report["mc"] = est.to_dict()
        rows += [["mc_value", est.value], ["mc_argmax_std_error", est.argmax_std_error]]
    if args.method == "both":
        budget = max(3.0 * est.argmax_std_error, 2e-3 * max(1.0, abs(report["pde_value"])))
        gap = report["mc"]["value"] - report["pde_value"]
        # MC over a finite lattice is a lower bound for the sup, so only an
        # excess above the PDE value is a failure
        ok = gap <= budget
        report["cross_check"] = {"gap": gap, "budget": budget, "pass": ok}
        rows += [["cross_check_" + k, v] for k, v in report["cross_check"].items()]
    _emit(report, args, csv_rows=rows, csv_header=["key", "value"])
    return 0 if ok else 1


def _cmd_certificate(verify, kind, y_or_shift, args) -> int:
    """Harnack-type certificate from `verify` for the equation of `kind`."""
    spec = _spec(args.drift, kind, args.K)
    cert = verify(
        spec, catalog()[args.payoff], args.x, y_or_shift, args.p, args.T, args.band,
        method=args.method, mc=McConfig(seed=args.seed), workers=args.workers,
    )
    report = {"config": _resolved_config(args), "certificate": cert.to_dict()}
    d = cert.to_dict()
    _emit(report, args, csv_rows=[[d[k] for k in sorted(d)]], csv_header=sorted(d))
    return 0 if cert.passed else 1


def _cmd_coupling(args) -> int:
    spec = _spec(args.drift, Kind.QV_DRIVEN)
    scenarios = make_scenario_lattice(args.band, args.T, args.pieces, args.levels)
    mc = McConfig(args.npaths, args.nsteps, args.seed)
    payoff = catalog()[args.payoff]

    raw = run_coupling_suite(
        spec, args.x, args.y, args.T, scenarios, mc, args.p, payoff,
        workers=args.workers,
    )

    reports = []
    for rep in raw:
        moment_ok, _ = mt_moment_check(rep)
        d = rep.to_dict()
        d["novikov_pass"] = rep.novikov_pathwise_max <= rep.novikov_bound * (1 + 1e-9)
        d["girsanov_pass"] = rep.girsanov_identity_gap <= 3.0 * rep.girsanov_std_error
        d["mt_moment_pass"] = moment_ok
        reports.append(d)
    ok = all(
        r["novikov_pass"] and r["girsanov_pass"] and r["mt_moment_pass"]
        for r in reports
    )
    report = {"config": _resolved_config(args), "reports": reports, "all_pass": ok}
    header = sorted(reports[0]) if reports else []
    rows = [[r[k] for k in header] for r in reports]
    _emit(report, args, csv_rows=rows, csv_header=header)
    return 0 if ok else 1


def _cmd_kernels(args) -> int:
    rep = run_kernel_suite(alpha=args.alpha)
    ok = (
        rep.dominance["violations"] == 0
        and all(g <= 1e-6 for g in rep.quasi_invariance_gaps.values())
        and all(abs(g) <= 1e-6 for g in rep.member_invariance_gaps.values())
        and all(m >= 0.0 for m in rep.lower_bound_margins.values())
        and all(m >= -1e-9 for m in rep.sup_kernel_margins.values())
        and rep.ex38.sum_dominance_violations == 0
    )
    report = {"config": _resolved_config(args), "report": rep.to_dict(), "all_pass": ok}
    rows = (
        [["quasi_invariance:" + k, v] for k, v in rep.quasi_invariance_gaps.items()]
        + [["lower_bound:" + k, v] for k, v in rep.lower_bound_margins.items()]
    )
    _emit(report, args, csv_rows=rows, csv_header=["check", "value"])
    return 0 if ok else 1


def _cmd_axioms(args) -> int:
    spec = _spec(args.drift, Kind.QV_DRIVEN)
    result = run_axioms(
        spec, args.band, args.T, mc=McConfig(seed=args.seed), workers=args.workers
    )
    report = {"config": _resolved_config(args), **result}
    rows = [[c["check"], c["violation"], c["limit"], c["pass"]] for c in result["checks"]]
    _emit(report, args, csv_rows=rows, csv_header=["check", "violation", "limit", "pass"])
    return 0 if result["all_pass"] else 1


_DISPATCH = {
    "gheat": _cmd_gheat,
    "pbar": _cmd_pbar,
    # lambdas, not partials: the verify functions are looked up at call time,
    # so a rebound module attribute (a tracer, a mock) takes effect
    "harnack": lambda args: _cmd_certificate(
        verify_harnack, Kind.QV_DRIVEN, args.y, args
    ),
    "shift-harnack": lambda args: _cmd_certificate(
        verify_shift_harnack, Kind.TIME_DRIVEN, args.v, args
    ),
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
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"gexp: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"gexp: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
