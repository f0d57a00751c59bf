"""Batch command-line front end.

Exit codes: 0 = success / property holds, 1 = property violated or numerical
divergence, 2 = usage error.  Every output file embeds the config that
produced it; reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bergman, bloch, colombeau, gelfand, hardy, liefields, suites
from .io import (
    dump_json,
    format_complex,
    matrix_to_csv,
    parse_coeff_list,
    parse_complex,
    parse_fourier_map,
    parse_symbol_expression,
)
from .numcore import HoloPoly, boundary_grid_from, build_disc_quadrature, sample


class UsageError(Exception):
    pass


def _cutoff(text: str) -> int:
    """argparse type of --cutoff: the highest degree kept, an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"cutoff must be an integer >= 0, got {text!r}")
    return value


class NonFiniteError(Exception):
    """A result holds NaN or infinity: the computation diverged (exit 1)."""


def _require(args, *names) -> None:
    """Per-operation options of `hardy` that argparse cannot mark required."""
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"hardy {args.hardy_op} needs {', '.join(missing)}")


def _finite(render, value) -> str:
    """render(value); its ValueError means a NaN or infinity, which neither JSON
    nor CSV may hold: the computation diverged."""
    try:
        return render(value)
    except ValueError as exc:
        raise NonFiniteError(f"non-finite value in the result ({exc})") from None


def _write(path, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(args) -> str:
    return f"# config: {json.dumps(_config_of(args), sort_keys=True)}\n"


def _config_of(args) -> dict:
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "out") and v is not None}
    cfg["command"] = args.command
    return cfg


def _emit_record(args, record: dict) -> None:
    record = dict(record)
    record["config"] = _config_of(args)
    _write(args.out, _finite(dump_json, record))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _disc_samples(args, *symbols):
    """The disc quadrature of the grid options, then each symbol sampled on it."""
    q = build_disc_quadrature(args.alpha, args.n_rad, args.n_ang)
    return q, *(sample(parse_symbol_expression(s), q) for s in symbols)


def cmd_toeplitz(args) -> int:
    q, phi = _disc_samples(args, args.symbol)
    mat = bergman.toeplitz_matrix(phi, q, args.cutoff)
    if args.format == "csv":
        _write(args.out, _csv_header(args) + _finite(matrix_to_csv, mat.entries))
    else:
        _emit_record(args, {"operation": "toeplitz",
                            "matrix": [[format_complex(c) for c in row]
                                       for row in mat.entries]})
    return 0


def cmd_bergman_project(args) -> int:
    q, phi = _disc_samples(args, args.symbol)
    poly = bergman.bergman_project(phi, q, args.cutoff)
    _emit_record(args, {"operation": "bergman_project",
                        "coeffs": [format_complex(c) for c in poly.coeffs]})
    return 0


def cmd_bergman_norm(args) -> int:
    q, phi = _disc_samples(args, args.symbol)
    value = bergman.bergman_norm(phi, args.p, q)
    _emit_record(args, {"operation": "bergman_norm", "value": value})
    return 0


def cmd_bergman_convolution(args) -> int:
    q, f, g = _disc_samples(args, args.f, args.g)
    report = bergman.check_convolution_submultiplicative(f, g, args.p, q)
    record = {"operation": "convolution_submultiplicative", **report,
              "tolerance": 1e-9}
    if args.strict_paper:
        # alternative reading of the norm display: the per-radius circle mean
        # taken WITHOUT the outer 1/p power before radial integration
        conv = bergman.angular_convolution(f, g)
        means = np.mean(np.abs(conv) ** args.p, axis=1) ** (1.0 / args.p)
        record["lhs_strict_paper"] = float(
            (np.sum(q.radial_weights * means)) ** (1.0 / args.p))
    _emit_record(args, record)
    return 0 if report["holds"] else 1


def cmd_bloch(args) -> int:
    poly = HoloPoly(parse_coeff_list(args.poly))
    rep = bloch.bloch_seminorm(poly, args.alpha)
    _emit_record(args, {"operation": "bloch", "alpha": rep.alpha,
                        "seminorm": rep.seminorm, "norm": rep.norm,
                        "argmax_z": format_complex(rep.argmax_z)})
    return 0


def cmd_hardy(args) -> int:
    if args.hardy_op == "norm":
        _require(args, "poly")
        poly = HoloPoly(parse_coeff_list(args.poly))
        value = hardy.hardy_norm(poly, args.p)
        _emit_record(args, {"operation": "hardy_norm", "value": value})
        return 0
    if args.hardy_op == "kernel":
        _require(args, "z", "xi")
        z, xi = parse_complex(args.z), parse_complex(args.xi)
        _emit_record(args, {
            "operation": "hardy_kernel",
            "szego": format_complex(hardy.szego_kernel(z, xi)),
            "poisson": float(hardy.poisson_kernel(z, xi)),
        })
        return 0
    if args.hardy_op == "toeplitz":
        _require(args, "coeffs")
        mat = hardy.hardy_toeplitz(parse_fourier_map(args.coeffs, args.cutoff), args.cutoff)
        _write(args.out, _csv_header(args) + _finite(matrix_to_csv, mat.entries))
        return 0
    if args.hardy_op == "disc-membership":
        _require(args, "symbol")
        member, witness = hardy.disc_algebra_membership(
            boundary_grid_from(parse_symbol_expression(args.symbol), args.m), args.tol)
        _emit_record(args, {"operation": "disc_algebra_membership",
                            "member": member, "witness": witness,
                            "tolerance": args.tol})
        return 0
    raise UsageError(f"unknown hardy operation {args.hardy_op!r}")


def _load_group(spec: str) -> gelfand.FiniteGroup:
    if spec in gelfand.GROUP_LIBRARY:
        return gelfand.GROUP_LIBRARY[spec]()
    return gelfand.load_group_table(spec)


def cmd_gelfand(args) -> int:
    group = _load_group(args.group)
    members = [int(t) for t in args.subgroup.split(",")]
    if args.gelfand_op == "check":
        rep = gelfand.is_gelfand_pair(group, members)
        _emit_record(args, {"operation": "gelfand_check", "gelfand": rep["gelfand"],
                            "max_commutator": rep["max_commutator"],
                            "witness": rep["witness"]})
        return 0 if rep["gelfand"] else 1
    if args.gelfand_op == "spherical":
        sph = gelfand.spherical_functions(group, members, seed=args.seed)
        _emit_record(args, {"operation": "spherical_functions",
                            "count": len(sph),
                            "functions": [[format_complex(v) for v in phi]
                                          for phi in sph]})
        return 0
    raise UsageError(f"unknown gelfand operation {args.gelfand_op!r}")


def _load_fields(path) -> list[liefields.PolyVectorField]:
    with open(path) as fh:
        data = json.load(fh)
    try:
        d = int(data["dim"])
        return [liefields.from_coeff_map(
                    [{tuple(int(t) for t in key.split(",")): val for key, val in comp.items()}
                     for comp in comps], d)
                for comps in data["fields"]]
    except (TypeError, AttributeError):
        raise UsageError('bad field file: expected {"dim": d, "fields": '
                         '[[{"i,j": coefficient, ...}, ...], ...]}') from None
    except liefields.FieldError as exc:     # a malformed file, not a divergence
        raise UsageError(f"bad field file: {exc}") from None


def cmd_lie(args) -> int:
    fields = _load_fields(args.fields)
    if args.lie_op == "bracket":
        if len(fields) < 2:
            raise UsageError("bracket needs two fields")
        br = liefields.lie_bracket(fields[0], fields[1])
        _emit_record(args, {"operation": "lie_bracket",
                            "components": [liefields.format_polynomial(c)
                                           for c in br.components]})
        return 0
    if args.lie_op == "jacobi":
        if len(fields) < 3:
            raise UsageError("jacobi needs three fields")
        total = liefields.jacobi_sum(*fields[:3])
        holds = total.is_zero()
        _emit_record(args, {"operation": "jacobi", "holds": holds,
                            "residual": [liefields.format_polynomial(c)
                                         for c in total.components]})
        return 0 if holds else 1
    if args.lie_op == "flows":
        if len(fields) < 2:
            raise UsageError("flows needs two fields")
        point = [float(t) for t in args.point.split(",")]
        if len(point) != fields[0].dim:
            raise UsageError(f"--point needs {fields[0].dim} coordinates, got {len(point)}")
        approx = liefields.bracket_via_flows(fields[0], fields[1], point, args.t)
        exact = liefields.lie_bracket(fields[0], fields[1])(point)
        _emit_record(args, {"operation": "bracket_via_flows",
                            "flow_estimate": [float(v) for v in approx],
                            "symbolic": [float(v) for v in exact],
                            "error": float(np.max(np.abs(approx - exact)))})
        return 0
    raise UsageError(f"unknown lie operation {args.lie_op!r}")


def cmd_colombeau(args) -> int:
    if args.colombeau_op != "rate":
        raise UsageError(f"unknown colombeau operation {args.colombeau_op!r}")
    f = colombeau.catalog(args.f)
    m = colombeau.build_mollifier(args.q)
    if args.alpha == 0:
        net = colombeau.taylor_defect(f, m)
    else:
        net = colombeau.seminorm_net(f, m, alpha=args.alpha)
    rep = colombeau.estimate_order(net)
    slope = (f"{rep.slope:.17g}" if np.isfinite(rep.slope)
             else "none (every value below the noise floor)")
    lines = [f"# slope: {slope}", "epsilon,value"]
    lines += [f"{e:.17g},{v:.17g}" for e, v in zip(net.epsilons, net.values)]
    _write(args.out, _csv_header(args) + "\n".join(lines) + "\n")
    return 0


def cmd_suite(args) -> int:
    t0 = time.perf_counter()
    try:
        records = suites.run_suite(args.name, seed=args.seed)
    except KeyError as exc:
        raise UsageError(str(exc))
    elapsed = time.perf_counter() - t0
    all_pass = all(r["passed"] for r in records)
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['name']}")
    # wall time goes to stdout only, so --out stays byte-identical across reruns
    print(f"suite {args.name}: {sum(r['passed'] for r in records)}/{len(records)} "
          f"passed ({elapsed:.2f}s wall)")
    if args.out:
        _write(args.out, _finite(dump_json, {"suite": args.name, "seed": args.seed,
                                             "results": records}))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcalg",
        description="Numerical workbench for function-space algebra checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--n-rad", type=int, default=64)
        p.add_argument("--n-ang", type=int, default=256)

    p = sub.add_parser("toeplitz", help="Bergman-Toeplitz matrix of a symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--cutoff", type=_cutoff, default=8)
    add_grid(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("project", help="Bergman projection of a symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--cutoff", type=_cutoff, default=8)
    add_grid(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman_project)

    p = sub.add_parser("bergman-norm", help="A^p norm of a sampled symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--p", type=float, default=2.0)
    add_grid(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman_norm)

    p = sub.add_parser("convolution", help="convolution submultiplicativity check")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--strict-paper", action="store_true")
    add_grid(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman_convolution)

    p = sub.add_parser("bloch", help="Bloch seminorm/norm of a polynomial")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--poly", required=True, help="comma-separated coefficients")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("hardy", help="Hardy space operations")
    p.add_argument("hardy_op", choices=["norm", "kernel", "toeplitz",
                                        "disc-membership"])
    p.add_argument("--poly")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--z")
    p.add_argument("--xi")
    p.add_argument("--coeffs", help="Fourier map k:value,k:value")
    p.add_argument("--cutoff", type=_cutoff, default=8)
    p.add_argument("--symbol")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("gelfand", help="Gelfand pair checks on finite groups")
    p.add_argument("gelfand_op", choices=["check", "spherical"])
    p.add_argument("--group", required=True,
                   help="library name (s3, s4, q8, z4, d4, ...) or table file")
    p.add_argument("--subgroup", required=True, help="comma-separated indices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gelfand)

    p = sub.add_parser("lie", help="Lie bracket operations on polynomial fields")
    p.add_argument("lie_op", choices=["bracket", "jacobi", "flows"])
    p.add_argument("--fields", required=True, help="JSON field file")
    p.add_argument("--point", default="0,0")
    p.add_argument("--t", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lie)

    p = sub.add_parser("colombeau", help="mollifier rate experiments")
    p.add_argument("colombeau_op", choices=["rate"])
    p.add_argument("--f", required=True, help="catalog function name")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_colombeau)

    p = sub.add_parser("suite", help="run a module property suite")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (liefields.FieldError, NonFiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
