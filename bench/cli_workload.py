"""The ``cli`` workload: seeded calls of ``python -m funcalg.cli``, one
subprocess per operation, each output parsed and checked.

A block holds one call of every subcommand in a seeded order; the variant of
a subcommand (``hardy norm`` or ``hardy kernel``, and so on) and its inputs
are drawn from the block's generator.  Input files are written before the
timed region.  Every check also enforces the exit-code contract
(0 ok / 1 property violated / 2 usage) and the absence of a traceback.
"""

from __future__ import annotations

import json
import math
import re

import oracles as orc
import workloads as wl
from common import OUT_DIR, strict_json

SUBCOMMANDS = ("toeplitz", "project", "bergman-norm", "convolution", "bloch",
               "hardy", "gelfand", "lie", "colombeau", "suite")
CHEAP_SUITES = ("hardy", "gelfand")


def _grid_args(rng):
    alpha = rng.choice(wl.ALPHAS)
    return alpha, ["--alpha", repr(alpha), "--n-rad", "32", "--n-ang", "128"]


def gen_call(rng, sub: str, op: int) -> dict:
    """argv (after ``-m funcalg.cli``), files to write, and what to expect."""
    spec = {"kind": sub, "op": op, "files": {}}
    if sub in ("toeplitz", "project", "bergman-norm"):
        sym = wl.gen_symbol(rng)
        alpha, grid = _grid_args(rng)
        spec.update(symbol=sym, alpha=alpha, n_rad=32, cutoff=rng.randint(1, 8))
        argv = [sub, "--symbol", sym["text"]] + grid
        if sub == "bergman-norm":
            argv += ["--p", "2"]
        else:
            argv += ["--cutoff", str(spec["cutoff"])]
        if sub == "toeplitz":
            spec["format"] = rng.choice(("csv", "json"))
            argv += ["--format", spec["format"]]
    elif sub == "convolution":
        f, g = wl.gen_symbol(rng), wl.gen_symbol(rng)
        alpha, grid = _grid_args(rng)
        spec.update(symbol=f, symbol_g=g, alpha=alpha, n_rad=32)
        argv = [sub, "--f", f["text"], "--g", g["text"], "--p", "2"] + grid
    elif sub == "bloch":
        n = rng.randint(1, 3)
        re_, im = wl.gen_coeff(rng)
        spec.update(symbol={"terms": [(n, 0, re_, im)]}, alpha=rng.choice((1.0, 1.5)))
        argv = [sub, "--poly", wl.coeff_list_text(spec["symbol"]), "--alpha", repr(spec["alpha"])]
    elif sub == "hardy":
        spec["variant"] = rng.choice(("norm", "kernel", "toeplitz", "disc-membership"))
        argv = [sub, spec["variant"]]
        if spec["variant"] == "norm":
            spec["symbol"] = wl.gen_symbol(rng, holomorphic=True)
            argv += ["--poly", wl.coeff_list_text(spec["symbol"]), "--p", "2"]
        elif spec["variant"] == "kernel":
            r, t = 0.85 * rng.random(), 2 * math.pi * rng.random()
            spec["z"] = complex(round(r * math.cos(t), 3), round(r * math.sin(t), 3))
            spec["xi"] = rng.choice((1, -1, 1j, -1j, 0.6 + 0.8j, -0.8 + 0.6j))
            argv += ["--z", _cplx(spec["z"]), "--xi", _cplx(spec["xi"])]
        elif spec["variant"] == "toeplitz":
            spec["symbol"] = wl.gen_symbol(rng)
            spec["cutoff"] = rng.randint(1, 8)
            phi = orc.fourier_coeffs(wl.exact_terms(spec["symbol"]))
            argv += ["--coeffs", ",".join(f"{k}:{_cplx(c)}" for k, c in sorted(phi.items())),
                     "--cutoff", str(spec["cutoff"])]
        else:
            spec["symbol"] = wl.gen_symbol(rng, analytic_type=rng.random() < 0.5)
            argv += ["--symbol", spec["symbol"]["text"], "--m", "64"]
    elif sub == "gelfand":
        gs = wl.gen_group(rng)
        members = gs["members"]
        spec["hecke"] = orc.HeckeCounts(orc.group_table(gs["kind"], gs["n"]), members)
        spec["variant"] = "spherical" if spec["hecke"].gelfand and rng.random() < 0.5 else "check"
        argv = [sub, spec["variant"], "--group", gs["library"],
                "--subgroup", ",".join(map(str, members))]
    elif sub == "lie":
        d = rng.randint(1, 3)
        fields = [wl.gen_field(rng, d) for _ in range(3)]
        spec.update(variant=rng.choice(("bracket", "jacobi", "flows")), fields=fields,
                    point=[rng.randint(-5, 5) / 10 for _ in range(d)],
                    probes=[[rng.randint(-50, 50) for _ in range(d)] for _ in range(3)])
        path = OUT_DIR / f"fields-{op}.json"
        spec["files"][path] = json.dumps({"dim": d, "fields": [
            [{",".join(map(str, e)): c for e, c in comp.items()} for comp in f] for f in fields]})
        argv = [sub, spec["variant"], "--fields", str(path),
                "--point", ",".join(map(repr, spec["point"]))]
    elif sub == "colombeau":
        spec.update(q=rng.choice((0, 2, 4)), alpha=rng.randint(0, 3))
        catalog = [f for f in wl.CATALOG if not (spec["alpha"] == 0 and f == "heaviside")]
        spec["f"] = rng.choice(catalog)
        argv = [sub, "rate", "--f", spec["f"], "--q", str(spec["q"]),
                "--alpha", str(spec["alpha"])]
    else:
        spec.update(name=rng.choice(CHEAP_SUITES), seed=rng.randrange(1000))
        argv = [sub, spec["name"], "--seed", str(spec["seed"])]
    # "--opt=value" keeps argparse from reading a value such as "-0.2,0.3" as an option
    spec["argv"] = argv[:1] + _joined(argv[1:])
    return spec


def _joined(args: list) -> list:
    out, i = [], 0
    while i < len(args):
        if args[i].startswith("--") and i + 1 < len(args) and not args[i + 1].startswith("--"):
            out.append(f"{args[i]}={args[i + 1]}")
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


def _cplx(c) -> str:
    c = complex(c)
    return f"{c.real!r}{c.imag:+.17g}i"


def cli_block(seed: int, block: int, first_op: int, tiny: bool = False) -> list:
    rng = wl.block_rng(seed, block)
    subs = list(SUBCOMMANDS[:3] if tiny else SUBCOMMANDS)
    rng.shuffle(subs)
    return [gen_call(rng, sub, first_op + i) for i, sub in enumerate(subs)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _parse_cplx(s: str) -> complex:
    s = s.strip()
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def _csv_matrix(text: str):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[_parse_cplx(c) for c in row.split(",")] for row in rows]


def check_call(spec: dict, code: int, out: str, err: str) -> tuple[bool, str, dict]:
    errs: dict = {}
    try:
        wl.need("Traceback" not in err, "traceback on stderr")
        wl.need(code in (0, 1), f"exit code {code}: {err.strip()[:200]}")
        expected = _check_output(spec, out, errs)
        wl.need(code == expected, f"exit code {code}, expected {expected}; {err.strip()[:200]}")
    except wl.Mismatch as exc:
        return False, str(exc), errs
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output ({type(exc).__name__}: {exc})", errs
    return True, "", errs


def _check_output(spec, out, errs) -> int:
    """Check stdout against the oracle; return the exit code the contract predicts."""
    sub = spec["kind"]
    if sub in ("toeplitz", "project", "bergman-norm", "convolution"):
        terms = wl.exact_terms(spec["symbol"])
        alpha, n_rad = spec["alpha"], spec["n_rad"]
        if sub == "toeplitz":
            n = spec["cutoff"]
            got = (_csv_matrix(out) if spec["format"] == "csv" else
                   [[_parse_cplx(c) for c in row] for row in strict_json(out)["matrix"]])
            ref, top = orc.toeplitz_entries(terms, alpha, n)
            wl.need(len(got) == n + 1 and all(len(r) == n + 1 for r in got), "matrix shape")
            e = max(abs(got[j][k] - ref[j][k]) for j in range(n + 1) for k in range(n + 1))
            exact = all(orc.radial_exact(alpha, n_rad, t) for row in top for t in row)
            wl.bounded(errs, "bergman.toeplitz_matrix", e,
                        "bergman.toeplitz_matrix." + ("exact" if exact else "inexact"))
            return 0
        rec = strict_json(out)
        if sub == "project":
            ref = orc.projection_coeffs(terms, alpha, spec["cutoff"])
            got = [_parse_cplx(c) for c in rec["coeffs"]]
            wl.need(len(got) == len(ref), "coefficient count")
            e = max(abs(a - b) for a, b in zip(got, ref))
            exact = orc.radial_exact(alpha, n_rad, 3 + spec["cutoff"])
            wl.bounded(errs, "bergman.bergman_project", e,
                        "bergman.bergman_project." + ("exact" if exact else "inexact"))
            return 0
        if sub == "bergman-norm":
            ref, top = orc.bergman_l2(terms, alpha)
            exact = orc.radial_exact(alpha, n_rad, top)
            wl.bounded(errs, "bergman.bergman_norm", abs(rec["value"] - ref) / ref,
                        "bergman.bergman_norm." + ("exact" if exact else "inexact"))
            return 0
        lhs, rhs, top = orc.convolution_p2(terms, wl.exact_terms(spec["symbol_g"]), alpha)
        exact = orc.radial_exact(alpha, n_rad, top)
        e = max(abs(rec["lhs"] - lhs), abs(rec["rhs"] - rhs)) / rhs
        wl.bounded(errs, "bergman.check_convolution_submultiplicative", e,
                    "bergman.check_convolution_submultiplicative."
                    + ("exact" if exact else "inexact"))
        return 0 if rec["holds"] else 1
    if sub == "bloch":
        rec = strict_json(out)
        (a, _, re_, im), = spec["symbol"]["terms"]
        ref = orc.bloch_monomial(complex(re_ / 1000, im / 1000), a, spec["alpha"])
        wl.bounded(errs, "bloch.bloch_seminorm", abs(rec["seminorm"] - ref) / ref,
                    "bloch.bloch_seminorm")
        return 0
    if sub == "hardy":
        return _check_hardy(spec, out, errs)
    if sub == "gelfand":
        rec = strict_json(out)
        hecke = spec["hecke"]
        if spec["variant"] == "check":
            wl.need(rec["gelfand"] == hecke.gelfand, f"gelfand={rec['gelfand']}")
            wl.bounded(errs, "gelfand.is_gelfand_pair",
                        abs(rec["max_commutator"] - hecke.max_commutator()),
                        "gelfand.is_gelfand_pair")
            return 0 if hecke.gelfand else 1
        funcs = [[_parse_cplx(v) for v in phi] for phi in rec["functions"]]
        wl.need(rec["count"] == len(funcs) == len(hecke.blocks), "spherical function count")
        worst = max(max(abs(phi[0] - 1), hecke.spherical_residual(phi)) for phi in funcs)
        wl.bounded(errs, "gelfand.spherical_functions", worst, "gelfand.spherical_functions")
        return 0
    if sub == "lie":
        return _check_lie(spec, out, errs)
    if sub == "colombeau":
        return _check_colombeau(spec, out, errs)
    lines = out.strip().splitlines()
    m = re.fullmatch(rf"suite {spec['name']}: (\d+)/(\d+) passed \(.*\)", lines[-1])
    wl.need(m is not None, f"suite summary line {lines[-1]!r}")
    passed, total = int(m.group(1)), int(m.group(2))
    wl.need(total == len(lines) - 1 and passed == sum(ln.startswith("[PASS]") for ln in lines),
             "suite record lines")
    wl.need(passed == total, f"{total - passed} failed properties")
    return 0


def _check_hardy(spec, out, errs) -> int:
    variant = spec["variant"]
    if variant == "toeplitz":
        n = spec["cutoff"]
        phi = orc.fourier_coeffs(wl.exact_terms(spec["symbol"]))
        got = _csv_matrix(out)
        wl.need(len(got) == n + 1, "matrix shape")
        e = max(abs(got[j][k] - phi.get(j - k, 0)) for j in range(n + 1) for k in range(n + 1))
        wl.bounded(errs, "hardy.hardy_toeplitz", e, "hardy.hardy_toeplitz")
        return 0
    rec = strict_json(out)
    if variant == "norm":
        coeffs = [0j] * 4
        for a, _, c in wl.exact_terms(spec["symbol"]):
            coeffs[a] += c
        ref = orc.hardy_h2(coeffs, wl.HARDY_LADDER)
        wl.bounded(errs, "hardy.hardy_norm", abs(rec["value"] - ref) / ref, "hardy.hardy_norm")
    elif variant == "kernel":
        z, xi = spec["z"], complex(spec["xi"])
        szego = 1 / (1 - z * xi.conjugate())
        poisson = (1 - abs(z) ** 2) / abs(1 - z * xi.conjugate()) ** 2
        e = max(abs(_parse_cplx(rec["szego"]) - szego), abs(rec["poisson"] - poisson) / poisson)
        wl.bounded(errs, "hardy.kernel", e, "hardy.kernel")
    else:
        wl.check_membership(spec["symbol"], rec["member"], rec["witness"])
    return 0


def _eval_component(text: str, point) -> float:
    """Evaluate a printed polynomial in x1..xd with exact integers."""
    wl.need(re.fullmatch(r"[\sx0-9+\-*/().]*", text) is not None, f"component {text!r}")
    env = {f"x{i + 1}": v for i, v in enumerate(point)}
    return float(eval(text, {"__builtins__": {}}, env))


def _check_lie(spec, out, errs) -> int:
    rec = strict_json(out)
    x, y, z = spec["fields"]
    if spec["variant"] == "flows":
        ref = orc.flow_commutator(x, y, spec["point"], 0.05)    # the CLI's default --t
        e = max(abs(a - b) / (1 + abs(b)) for a, b in zip(rec["flow_estimate"], ref))
        wl.bounded(errs, "liefields.bracket_via_flows", e, "liefields.bracket_via_flows")
        return 0
    if spec["variant"] == "jacobi":
        wl.need(rec["holds"] is True, "Jacobi identity reported as violated")
        return 0
    ref = orc.lie_bracket(x, y)
    for p in spec["probes"]:
        got = [_eval_component(c, p) for c in rec["components"]]
        wl.need(got == [float(v) for v in orc.field_at(ref, p)], f"bracket differs at {p}")
    return 0


def _check_colombeau(spec, out, errs) -> int:
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    wl.need(rows[0] == "epsilon,value", "CSV header")
    eps, vals = zip(*[(float(a), float(b)) for a, b in (r.split(",") for r in rows[1:])])
    wl.need(all(map(math.isfinite, vals)), "non-finite values")
    kind = "colombeau.taylor_defect" if spec["alpha"] == 0 else "colombeau.seminorm_net"
    wl.check_rate(kind, spec["f"], spec["q"], spec["alpha"], eps, vals, errs)
    return 0
