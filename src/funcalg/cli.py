"""Batch command-line front end.

Exit codes: 0 = success / property holds, 1 = property violated or numerical
divergence, 2 = usage error.  Every output file embeds the config that
produced it; reruns with the same config are byte-identical.  Each subcommand
imports only the layer it runs, so a call loads no other layer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .io import (
    dump_json,
    format_complex,
    matrix_to_csv,
    parse_coeff_list,
    parse_complex,
    parse_fourier_map,
    parse_symbol_expression,
)
from .numcore import HoloPoly, boundary_grid_from, build_disc_quadrature, circle_mean, sample


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


def _real(text: str) -> float:
    """argparse type of the float options: a finite real number."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
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
    from . import bergman
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
    from . import bergman
    q, phi = _disc_samples(args, args.symbol)
    poly = bergman.bergman_project(phi, q, args.cutoff)
    _emit_record(args, {"operation": "bergman_project",
                        "coeffs": [format_complex(c) for c in poly.coeffs]})
    return 0


def cmd_bergman_norm(args) -> int:
    from . import bergman
    q, phi = _disc_samples(args, args.symbol)
    value = bergman.bergman_norm(phi, args.p, q)
    _emit_record(args, {"operation": "bergman_norm", "value": value})
    return 0


def cmd_bergman_convolution(args) -> int:
    from . import bergman
    q, f, g = _disc_samples(args, args.f, args.g)
    report = bergman.check_convolution_submultiplicative(f, g, args.p, q)
    record = {"operation": "convolution_submultiplicative", **report}
    if args.strict_paper:
        # alternative reading of the norm display: the radial integral of the
        # circle norms M_p(r) = mean(|f*g|^p)^(1/p), with no outer 1/p power
        means = circle_mean(bergman.angular_convolution(f, g), args.p) ** (1.0 / args.p)
        record["lhs_strict_paper"] = float(np.sum(q.radial_weights * means))
    _emit_record(args, record)
    return 0 if report["holds"] else 1


def cmd_bloch(args) -> int:
    from . import bloch
    poly = HoloPoly(parse_coeff_list(args.poly))
    rep = bloch.bloch_seminorm(poly, args.alpha)
    _emit_record(args, {"operation": "bloch", "alpha": rep.alpha,
                        "seminorm": rep.seminorm, "norm": rep.norm,
                        "argmax_z": format_complex(rep.argmax_z),
                        "upper": rep.upper, "converged": rep.converged})
    return 0


def cmd_hardy(args) -> int:
    from . import hardy
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
    # disc-membership: argparse choices leave no other operation
    _require(args, "symbol")
    member, witness = hardy.disc_algebra_membership(
        boundary_grid_from(parse_symbol_expression(args.symbol), args.m), args.tol)
    _emit_record(args, {"operation": "disc_algebra_membership",
                        "member": member, "witness": witness,
                        "tolerance": args.tol})
    return 0


def cmd_gelfand(args) -> int:
    from . import gelfand
    if args.group in gelfand.GROUP_LIBRARY:
        group = gelfand.GROUP_LIBRARY[args.group]()
    else:
        group = gelfand.load_group_table(args.group)
    members = [int(t) for t in args.subgroup.split(",")]
    if args.gelfand_op == "check":
        rep = gelfand.is_gelfand_pair(group, members)
        _emit_record(args, {"operation": "gelfand_check", "gelfand": rep["gelfand"],
                            "max_commutator": rep["max_commutator"],
                            "witness": rep["witness"]})
        return 0 if rep["gelfand"] else 1
    # spherical: argparse choices leave no other operation
    sph = gelfand.spherical_functions(group, members, seed=args.seed)
    _emit_record(args, {"operation": "spherical_functions",
                        "count": len(sph),
                        "functions": [[format_complex(v) for v in phi]
                                      for phi in sph]})
    return 0


def _load_fields(path) -> list[liefields.PolyVectorField]:
    from . import liefields
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
    from . import liefields
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
    # flows: argparse choices leave no other operation
    if len(fields) < 2:
        raise UsageError("flows needs two fields")
    if not 0 < args.t <= liefields.MAX_FLOW_T:
        raise UsageError(f"--t must lie in (0, {liefields.MAX_FLOW_T}], got {args.t}")
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


def cmd_colombeau(args) -> int:
    from . import colombeau
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
    from . import suites
    t0 = time.perf_counter()
    records = suites.run_suite(args.name, seed=args.seed)
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
        p.add_argument("--alpha", type=_real, default=0.0)
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
    p.add_argument("--p", type=_real, default=2.0)
    add_grid(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman_norm)

    p = sub.add_parser("convolution", help="convolution submultiplicativity check")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--p", type=_real, default=2.0)
    p.add_argument("--strict-paper", action="store_true")
    add_grid(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman_convolution)

    p = sub.add_parser("bloch", help="Bloch seminorm/norm of a polynomial")
    p.add_argument("--alpha", type=_real, default=1.0)
    p.add_argument("--poly", required=True, help="comma-separated coefficients")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("hardy", help="Hardy space operations")
    p.add_argument("hardy_op", choices=["norm", "kernel", "toeplitz",
                                        "disc-membership"])
    p.add_argument("--poly")
    p.add_argument("--p", type=_real, default=2.0)
    p.add_argument("--z")
    p.add_argument("--xi")
    p.add_argument("--coeffs", help="Fourier map k:value,k:value")
    p.add_argument("--cutoff", type=_cutoff, default=8)
    p.add_argument("--symbol")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--tol", type=_real, default=1e-10)
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
    p.add_argument("--t", type=_real, default=0.05)
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


def _layer_error(layer: str, name: str) -> tuple:
    """(exception class `name` of `layer`,) once that layer is loaded, else ():
    a layer that was never loaded cannot have raised it."""
    module = sys.modules.get(f"{__package__}.{layer}")
    return () if module is None else (getattr(module, name),)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):     # non-finite results are refused by value
            return args.func(args)
    except (*_layer_error("liefields", "FieldError"), NonFiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except _layer_error("gelfand", "NotGelfandPairError") as exc:
        print(f"property violated: {exc}", file=sys.stderr)
        return 1
    except (UsageError, KeyError, ValueError, OSError, json.JSONDecodeError,
            MemoryError) as exc:    # MemoryError: numpy refused an array the options asked for
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
