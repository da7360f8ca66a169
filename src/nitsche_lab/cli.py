"""Command-line interface.

Every subcommand takes --out (JSON report file) and --quiet; --tol only
check-bound and verify, --csv only solve-radial and solve-map.

Exit codes: 0 all passes; 2 mathematical fail (bound violated, no solution,
corollary fail); 3 numerical failure (DivergenceError, RangeExitError);
4 invalid input (a usage error, DomainError or OSError).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .comparison import STATUS_OK, hessian_check, osserman_check
from .errors import DivergenceError, DomainError, RangeExitError
from .grid import AnnulusGrid
from .metrics import CurvatureBound, load_metric
from .modulus import Circular, modulus_capacity, modulus_circular
from .pde import residual_norm, solve_dirichlet
from .radial import NoSolution, shoot, solve_bvp
from .report import check_bound, verify_end_to_end
from .weierstrass import CATALOG, catalog_surface, corollary_check

OK, MATH_FAIL, NUMERICAL_FAIL, BAD_INPUT = 0, 2, 3, 4


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliInputError(message)


_OPTIONAL = {"--csv": {"help": "write tabular output here"},
             "--tol": {"type": float, "default": 1e-6, "help": "report tolerance"}}


def _common(*optional) -> list:
    """--out and --quiet, plus the ``optional`` options of _OPTIONAL."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--quiet", action="store_true", help="suppress stdout summary")
    for name in optional:
        p.add_argument(name, **_OPTIONAL[name])
    return [p]


def build_parser() -> _Parser:
    root = _Parser(prog="nitsche-lab", description=__doc__)
    root.add_argument("--version", action="version", version=__version__)
    sub = root.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _common()

    p = sub.add_parser("solve-radial", parents=_common("--csv"),
                       help="radial harmonic map from the first integral")
    p.add_argument("--metric", required=True)
    p.add_argument("--rho1", type=float, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--rho2", type=float)
    g.add_argument("--critical", action="store_true",
                   help="zero-initial-slope trajectory instead of a target rho2")
    p.add_argument("--mod", type=float, required=True)
    p.add_argument("--steps", type=int, default=4096)

    p = sub.add_parser("solve-map", parents=_common("--csv"), help="grid harmonic map solve")
    for name, typ in (("--metric", str), ("--r1", float), ("--r2", float),
                      ("--rho1", float), ("--rho2", float)):
        p.add_argument(name, type=typ, required=True)
    p.add_argument("--nr", type=int, default=128)
    p.add_argument("--ntheta", type=int, default=128)

    p = sub.add_parser("modulus", parents=common, help="conformal modulus of a domain")
    p.add_argument("--domain", nargs=3, required=True, metavar=("circular", "R1", "R2"))
    p.add_argument("--n", type=int, default=256)

    p = sub.add_parser("minimal", parents=common,
                       help="minimal-surface geodesic annulus bound")
    p.add_argument("--surface")
    p.add_argument("--rho1", type=float)
    p.add_argument("--rho2", type=float)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--list", action="store_true", help="list catalog surfaces")

    p = sub.add_parser("compare", parents=common, help="comparison-theorem checks")
    p.add_argument("--metric", required=True)
    p.add_argument("--against", required=True,
                   metavar="constant:SIGN[:KAPPA]|FILE")
    p.add_argument("--rho-max", type=float, required=True)

    p = sub.add_parser("check-bound", parents=_common("--tol"),
                       help="arithmetic check of the annulus bound")
    p.add_argument("--sign", required=True, choices=["negative", "zero", "positive"])
    p.add_argument("--kappa", type=float)
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--rho2", type=float, required=True)
    p.add_argument("--mod", type=float, required=True)

    p = sub.add_parser("verify", parents=_common("--tol"),
                       help="end-to-end solve + bound report with sub-checks")
    for name, typ in (("--metric", str), ("--r1", float), ("--r2", float),
                      ("--rho1", float), ("--rho2", float)):
        p.add_argument(name, type=typ, required=True)
    p.add_argument("--nr", type=int, default=128)
    p.add_argument("--ntheta", type=int, default=128)
    return root


def _emit(args, payload: dict, rows=None, header=None) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    if rows is not None and args.csv:  # only commands with --csv pass rows
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    if not args.quiet:
        print(json.dumps(payload, indent=2))


def _cmd_solve_radial(args) -> int:
    m = load_metric(args.metric)
    if args.critical:
        prof = shoot(m, args.rho1, 0.0, args.mod, n_steps=args.steps)
        status = "range_exit" if prof.exited else "ok"
    else:
        result = solve_bvp(m, args.rho1, args.rho2, args.mod, n_steps=args.steps)
        if isinstance(result, NoSolution):
            payload = {
                "status": "no_solution",
                "rho1": result.rho1,
                "rho2": result.rho2,
                "mod": result.modulus,
                "critical_outer": result.critical_outer,
                "reason": result.reason,
            }
            _emit(args, payload)
            return MATH_FAIL
        prof, status = result, "ok"
    payload = {
        "status": status,
        "rho1": prof.rho1,
        "rho2": prof.rho2,
        "slope0": prof.slope0,
        "mod": prof.modulus,
        "residual": prof.residual,
        "monotone": prof.is_monotone,
        "exit_time": prof.exit_time,
    }
    rows = list(zip(prof.t_grid, prof.rho, prof.slope))
    _emit(args, payload, rows, header=("t", "rho", "slope"))
    return NUMERICAL_FAIL if prof.exited else OK


def _cmd_solve_map(args) -> int:
    m = load_metric(args.metric)
    grid = AnnulusGrid(args.r1, args.r2, args.nr, args.ntheta)
    f = solve_dirichlet(grid, m, args.rho1, args.rho2)
    payload = {
        "status": "ok",
        "iterations": f.info.iterations,
        "residual_history": f.info.residual_history,
        "harmonicity_residual": residual_norm(f),
        "eps_grid": grid.eps_grid,
        "diagnostics": f.diagnostics(),
    }
    T, PHI = grid.mesh()
    rows = zip(np.exp(T).ravel(), PHI.ravel(), f.rho.ravel(), f.theta.ravel())
    _emit(args, payload, rows, header=("r", "theta", "rho", "theta_target"))
    return OK


def _cmd_modulus(args) -> int:
    kind, *radii = args.domain
    if kind != "circular":
        raise _CliInputError(f"unknown domain {kind!r}: use --domain circular R1 R2")
    try:
        r1, r2 = map(float, radii)
    except ValueError:
        raise _CliInputError(f"R1 and R2 must be numbers, got {radii}") from None
    cap = modulus_capacity(Circular(r1, r2), args.n)
    _emit(args, {"modulus": cap, "closed_form": modulus_circular(r1, r2), "n": args.n})
    return OK


def _cmd_minimal(args) -> int:
    if args.list:
        payload = {"catalog": sorted(CATALOG)}
        _emit(args, payload)
        return OK
    if not (args.surface and args.rho1 and args.rho2):
        raise _CliInputError("need --surface, --rho1, --rho2 (or --list)")
    rep = corollary_check(catalog_surface(args.surface), args.rho1, args.rho2, args.n)
    _emit(args, rep.to_dict())
    return OK if rep.passed else MATH_FAIL


def _against_metric(spec: str):
    """``constant:SIGN[:KAPPA]`` as a metric description with its bound, else a file."""
    if spec.startswith("constant:"):
        m = load_metric(dict(zip(("kind", "sign", "kappa"), spec.split(":", 2))))
        return m, m.bound
    return load_metric(spec), None


def _cmd_compare(args) -> int:
    m = load_metric(args.metric)
    m_hat, bound = _against_metric(args.against)
    oss = osserman_check(m, m_hat, args.rho_max)
    payload = {
        "osserman": {
            "status": oss.status,
            "min_margin": oss.min_margin,
            "passed": oss.passed,
        }
    }
    reports = [oss]
    if bound is not None:
        hess = hessian_check(m, args.rho_max, bound)
        reports.append(hess)
        payload["hessian"] = {
            "status": hess.status,
            "min_margin": hess.min_margin,
            "passed": hess.passed,
            "radial_hessian_zero": hess.radial_hessian_zero,
        }
    _emit(args, payload)
    if any(r.status != STATUS_OK for r in reports):
        return BAD_INPUT
    return OK if all(r.passed for r in reports) else MATH_FAIL


def _cmd_check_bound(args) -> int:
    bound = CurvatureBound(args.sign, args.kappa)
    rep = check_bound(bound, args.rho1, args.rho2, args.mod, tol=args.tol)
    _emit(args, rep.to_dict())
    return OK if rep.passed else MATH_FAIL


def _cmd_verify(args) -> int:
    m = load_metric(args.metric)
    rep = verify_end_to_end(
        m, args.r1, args.r2, args.rho1, args.rho2,
        n_r=args.nr, n_theta=args.ntheta, tol=args.tol,
    )
    _emit(args, rep.to_dict())
    return OK if rep.passed else MATH_FAIL


_DISPATCH = {
    "solve-radial": _cmd_solve_radial,
    "solve-map": _cmd_solve_map,
    "modulus": _cmd_modulus,
    "minimal": _cmd_minimal,
    "compare": _cmd_compare,
    "check-bound": _cmd_check_bound,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (_CliInputError, DomainError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (DivergenceError, RangeExitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAIL


if __name__ == "__main__":
    sys.exit(main())
