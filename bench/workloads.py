"""The four workloads: seeded input generation, the timed call into the
program, and the untimed check of its output against :mod:`oracles`.

Each workload is a list of blocks.  A block holds one operation of every
kind (and, for ``disc``, of every grid) in a seeded order, so runs with
different seeds see the same mix and differ only in the values drawn.  The
generators use only ``random.Random`` seeded by "<seed>:<block>", so the same
seed gives the same inputs on any commit.

An operation is a plain dict ``spec``.  ``execute(spec, fa)`` makes the calls
into funcalg (``fa`` is the imported package) and returns the raw outputs;
``check(spec, out)`` returns ``(ok, why, errs)`` where ``errs`` maps
"<layer>.<fn>" to the error measured against the oracle.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import oracles as orc

GRIDS = ((32, 128), (64, 256), (128, 512), (64, 1024))
ALPHAS = (0.0, 1.0, 1.5)
DISC_KINDS = ("bergman.toeplitz_matrix", "bergman.bergman_project",
              "bergman.bergman_norm", "bergman.check_convolution_submultiplicative",
              "hardy.hardy_norm", "hardy.hardy_toeplitz",
              "hardy.disc_algebra_membership", "bloch.bloch_seminorm")
HARDY_LADDER = (0.9, 0.99, 0.999, 0.9999)

LIBRARY_GROUPS = {"z2": ("cyclic", 2), "z3": ("cyclic", 3), "z4": ("cyclic", 4),
                  "z5": ("cyclic", 5), "z6": ("cyclic", 6), "z8": ("cyclic", 8),
                  "d3": ("dihedral", 3), "d4": ("dihedral", 4), "d5": ("dihedral", 5),
                  "s3": ("symmetric", 3), "s4": ("symmetric", 4),
                  "q8": ("quaternion", 8)}
CATALOG = ("const", "poly:2", "poly:5", "abs", "heaviside", "exp", "sin", "spike:0.01")

# Operations per block of the algebra workload, as (kind, count, groups).
# Sized so that at the seed commit liefields, colombeau and gelfand each take
# about a third of the busy time of a traced run.  The cheap checks on library
# groups make up most operations, so op_p50_ms falls inside one dense cluster
# of latencies instead of in the gap between cheap and costly kinds.
ALGEBRA_MIX = (("liefields.lie_bracket", 2, None), ("liefields.jacobi", 1, None),
               ("liefields.check_lemma_prolongation", 1, None),
               ("liefields.bracket_via_flows", 1, None),
               ("colombeau.taylor_defect", 1, None), ("colombeau.seminorm_net", 1, None),
               ("colombeau.l1_embedding_bound", 1, None),
               ("gelfand.is_gelfand_pair", 8, "any"), ("gelfand.spherical_functions", 6, "any"),
               ("gelfand.is_gelfand_pair", 12, "library"),
               ("gelfand.spherical_functions", 12, "library"))
FLOW_T = 0.05       # the flow time bracket_via_flows is called with


def block_rng(seed: int, block: int) -> random.Random:
    return random.Random(f"{seed}:{block}")


def stratum(seed: int, block: int, key: str, k: int) -> int:
    """Which of k strata a block draws from for ``key``: consecutive blocks
    walk through all k from a seeded phase, so the cost mix of a run does not
    hinge on a few draws (the disc and algebra costs grow steeply with size)."""
    return (block + random.Random(f"{seed}:{key}").randrange(k)) % k


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def gen_coeff(rng) -> tuple[int, int]:
    """A nonzero complex coefficient in thousandths, kept exact."""
    while True:
        re, im = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        if re or im:
            return re, im


def _term_str(a: int, b: int, re: int, im: int) -> str:
    s = f"({re / 1000:.3f}{im / 1000:+.3f}j)"
    if a:
        s += f"*z^{a}"
    if b:
        s += f"*conj(z)^{b}"
    return s


def gen_symbol(rng, holomorphic: bool = False, analytic_type: bool = False) -> dict:
    """sum c_ab z^a conj(z)^b with a, b <= 3; returns text and exact terms."""
    pairs = [(a, b) for a in range(4) for b in range(4)
             if not (holomorphic and b) and not (analytic_type and a < b)]
    chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
    terms = [(a, b, *gen_coeff(rng)) for a, b in sorted(chosen)]
    return {"text": " + ".join(_term_str(*t) for t in terms), "terms": terms}


def exact_terms(symbol: dict) -> list:
    return [(a, b, complex(re / 1000, im / 1000)) for a, b, re, im in symbol["terms"]]


def fraction_terms(symbol: dict) -> list:
    return [(a, b, (Fraction(re, 1000), Fraction(im, 1000))) for a, b, re, im in symbol["terms"]]


def coeff_list_text(symbol: dict) -> str:
    """Holomorphic symbol as the comma list io.parse_coeff_list reads."""
    deg = max(a for a, _, _, _ in symbol["terms"])
    cs = ["0"] * (deg + 1)
    for a, _, re, im in symbol["terms"]:
        cs[a] = f"{re / 1000:.3f}{im / 1000:+.3f}j"
    return ",".join(cs)


def disc_block(seed: int, block: int, tiny: bool = False) -> list:
    rng = block_rng(seed, block)
    grids = GRIDS[:1] if tiny else GRIDS
    specs = []
    for kind in DISC_KINDS:
        for n_rad, n_ang in grids:
            alpha = rng.choice(ALPHAS)
            top = min(n_ang // 2 - 1, 8 if tiny else 64)
            q = (stratum(seed, block, f"{kind}{n_ang}", 4) + rng.random()) / 4
            spec = {"kind": kind, "n_rad": n_rad, "n_ang": n_ang, "alpha": alpha,
                    "cutoff": min(top, 1 + int(q * top))}
            if kind == "hardy.hardy_norm":
                spec["symbol"] = gen_symbol(rng, holomorphic=True)
            elif kind == "bloch.bloch_seminorm":
                n = rng.randint(1, 3)
                re, im = gen_coeff(rng)
                spec["symbol"] = {"text": _term_str(n, 0, re, im), "terms": [(n, 0, re, im)]}
                spec["bloch_alpha"] = alpha if alpha > 0 else 1.0
            elif kind == "hardy.disc_algebra_membership":
                spec["symbol"] = gen_symbol(rng, analytic_type=rng.random() < 0.5)
            else:
                spec["symbol"] = gen_symbol(rng)
            if kind == "bergman.check_convolution_submultiplicative":
                spec["symbol_g"] = gen_symbol(rng)
            if kind in ("hardy.hardy_norm", "bloch.bloch_seminorm"):
                spec["coeffs"] = coeff_list_text(spec["symbol"])
            specs.append(spec)
    rng.shuffle(specs)
    return specs


def gen_field(rng, d: int) -> list:
    """Integer polynomial vector field of degree <= 2 as {exponents: coeff}."""
    monos = [e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2]
    return [{e: rng.choice((-3, -2, -1, 1, 2, 3))
             for e in rng.sample(monos, rng.randint(1, min(3, len(monos))))}
            for _ in range(d)]


def gen_group(rng, family: int = 0) -> dict:
    """A library group (family 0), dihedral(n <= 12), cyclic(n <= 24) or
    symmetric(5), with K = <g> for a random element g."""
    if family == 0:
        name = rng.choice(sorted(LIBRARY_GROUPS))
        kind, n = LIBRARY_GROUPS[name]
        spec = {"library": name, "kind": kind, "n": n}
    elif family == 1:
        spec = {"kind": "dihedral", "n": rng.randint(3, 12)}
    elif family == 2:
        spec = {"kind": "cyclic", "n": rng.randint(2, 24)}
    else:
        spec = {"kind": "symmetric", "n": 5}
    order = {"cyclic": spec["n"], "dihedral": 2 * spec["n"], "quaternion": 8,
             "symmetric": math.factorial(spec["n"])}[spec["kind"]]
    spec["g"] = rng.randrange(order)
    spec["members"] = orc.generated_subgroup(orc.group_table(spec["kind"], spec["n"]), spec["g"])
    return spec


def algebra_block(seed: int, block: int, tiny: bool = False) -> list:
    rng = block_rng(seed, block)
    specs = []
    for kind, count, groups in ALGEBRA_MIX:
        for i in range(count):
            spec = {"kind": kind}
            layer = kind.split(".")[0]
            level = stratum(seed, block + i, kind, 12)
            if layer == "liefields":
                d = 1 + level % (2 if tiny else 3)
                spec["dim"] = d
                spec["fields"] = [gen_field(rng, d) for _ in range(3)]
                spec["point"] = [rng.randint(-5, 5) / 10 for _ in range(d)]
                spec["probes"] = [[rng.randint(-50, 50) for _ in range(d)] for _ in range(3)]
            elif layer == "colombeau":
                spec["q"] = rng.choice((0, 2, 4))
                catalog = [f for f in CATALOG if not (kind == "colombeau.taylor_defect"
                                                      and f == "heaviside")]
                spec["f"] = rng.choice(catalog)
                spec["alpha"] = 1 + level % 3
                spec["eps"] = 2.0 ** -rng.randint(2, 6)
            else:
                spec["group"] = gen_group(rng, 0 if tiny or groups == "library" else level % 4)
            specs.append(spec)
    rng.shuffle(specs)
    return specs


def suite_all_block(seed: int, block: int, tiny: bool = False) -> list:
    rng = block_rng(seed, block)
    return [{"kind": "suites.run_suite", "name": "hardy" if tiny else "all",
             "seed": rng.randrange(2 ** 31)}]


BLOCKS = {"disc": disc_block, "algebra": algebra_block, "suite_all": suite_all_block}

# A traced run alternates stretches of this many blocks with and without
# tracing; a stretch of four covers every size stratum of disc and algebra,
# so both halves see the same mix.
TRACE_STRETCH = {"disc": 4, "algebra": 4, "suite_all": 1}


# ---------------------------------------------------------------------------
# timed calls into the program
# ---------------------------------------------------------------------------

def execute(spec: dict, fa):
    kind = spec["kind"]
    layer = kind.split(".")[0]
    if layer in ("bergman", "hardy", "bloch"):
        return _execute_disc(spec, fa)
    if layer == "liefields":
        return _execute_lie(spec, fa)
    if layer == "colombeau":
        return _execute_colombeau(spec, fa)
    if layer == "gelfand":
        return _execute_gelfand(spec, fa)
    if kind == "suites.run_suite":
        return fa.suites.run_suite(spec["name"], seed=spec["seed"])
    raise KeyError(kind)


def _execute_disc(spec, fa):
    kind, n = spec["kind"], spec["cutoff"]
    sym = fa.io.parse_symbol_expression(spec["symbol"]["text"])
    q = fa.numcore.build_disc_quadrature(spec["alpha"], spec["n_rad"], spec["n_ang"])
    out = {"q": q}
    if kind == "bergman.toeplitz_matrix":
        out["value"] = fa.bergman.toeplitz_matrix(sym(q.nodes), q, n).entries
    elif kind == "bergman.bergman_project":
        out["value"] = fa.bergman.bergman_project(sym(q.nodes), q, n).coeffs
    elif kind == "bergman.bergman_norm":
        out["value"] = fa.bergman.bergman_norm(sym(q.nodes), 2.0, q)
    elif kind == "bergman.check_convolution_submultiplicative":
        grid = q.nodes.reshape(q.n_rad, q.n_ang)
        g = fa.io.parse_symbol_expression(spec["symbol_g"]["text"])
        out["value"] = fa.bergman.check_convolution_submultiplicative(sym(grid), g(grid), 2.0, q)
    elif kind == "hardy.hardy_norm":
        poly = fa.numcore.HoloPoly(fa.io.parse_coeff_list(spec["coeffs"]))
        out["value"] = fa.hardy.hardy_norm(poly, 2.0)
    elif kind == "hardy.hardy_toeplitz":
        m = 1 << max(3, (2 * n + 2 - 1).bit_length())
        phi_hat = fa.numcore.boundary_fourier(fa.numcore.boundary_grid_from(sym, m))
        out["value"] = fa.hardy.hardy_toeplitz(phi_hat, n).entries
    elif kind == "hardy.disc_algebra_membership":
        out["value"] = fa.hardy.disc_algebra_membership(
            fa.numcore.boundary_grid_from(sym, 256), 1e-10)
    elif kind == "bloch.bloch_seminorm":
        poly = fa.numcore.HoloPoly(fa.io.parse_coeff_list(spec["coeffs"]))
        out["value"] = fa.bloch.bloch_seminorm(poly, spec["bloch_alpha"])
    return out


def _execute_lie(spec, fa):
    lf, d = fa.liefields, spec["dim"]
    x, y, z = (lf.from_coeff_map(f, d) for f in spec["fields"])
    kind = spec["kind"]
    if kind == "liefields.lie_bracket":
        return lf.lie_bracket(x, y)
    if kind == "liefields.jacobi":
        return (lf.lie_bracket(x, lf.lie_bracket(y, z)) + lf.lie_bracket(y, lf.lie_bracket(z, x))
                + lf.lie_bracket(z, lf.lie_bracket(x, y)))
    if kind == "liefields.check_lemma_prolongation":
        return lf.check_lemma_prolongation(x, y)
    return lf.bracket_via_flows(x, y, spec["point"], FLOW_T)


def _execute_colombeau(spec, fa):
    co = fa.colombeau
    m = co.build_mollifier(spec["q"])
    f = co.catalog(spec["f"])
    kind = spec["kind"]
    if kind == "colombeau.taylor_defect":
        return m, co.taylor_defect(f, m)
    if kind == "colombeau.seminorm_net":
        return m, co.seminorm_net(f, m, spec["alpha"])
    return m, co.l1_embedding_bound(f, m, spec["eps"])


def _build_group(spec, fa):
    gf = fa.gelfand
    if "library" in spec:
        return gf.GROUP_LIBRARY[spec["library"]]()
    return {"cyclic": gf.cyclic, "dihedral": gf.dihedral,
            "symmetric": gf.symmetric}[spec["kind"]](spec["n"])


def _execute_gelfand(spec, fa):
    gs = spec["group"]
    group = _build_group(gs, fa)
    if spec["kind"] == "gelfand.is_gelfand_pair":
        return group, fa.gelfand.is_gelfand_pair(group, gs["members"])
    try:
        return group, fa.gelfand.spherical_functions(group, gs["members"])
    except fa.gelfand.GroupError as exc:
        return group, exc


# ---------------------------------------------------------------------------
# untimed checks against the oracles
# ---------------------------------------------------------------------------

class Mismatch(Exception):
    pass


def need(cond: bool, why: str) -> None:
    if not cond:
        raise Mismatch(why)


def bounded(errs: dict, key: str, err: float, tol_key: str) -> None:
    errs[key] = max(errs.get(key, 0.0), err)
    need(err <= orc.tol(tol_key), f"{key} error {err:.3g} > {tol_key} {orc.tol(tol_key):.3g}")


def check(spec: dict, out) -> tuple[bool, str, dict]:
    errs: dict = {}
    kind = spec["kind"]
    layer = kind.split(".")[0]
    try:
        if layer in ("bergman", "hardy", "bloch"):
            _check_disc(spec, out, errs)
        elif layer == "liefields":
            _check_lie(spec, out, errs)
        elif layer == "colombeau":
            _check_colombeau(spec, *out, errs)
        elif layer == "gelfand":
            _check_gelfand(spec, *out, errs)
        else:
            _check_suite(out, errs)
    except Mismatch as exc:
        return False, str(exc), errs
    except Exception as exc:     # output of an unexpected shape or type
        return False, f"unreadable output ({type(exc).__name__}: {exc})", errs
    return True, "", errs


def _split(errs_exact, errs_inexact, errs, key):
    """Record exact- and inexact-rule errors under one metric, bound each."""
    bounded(errs, key, errs_exact, key + ".exact")
    bounded(errs, key, errs_inexact, key + ".inexact")


def _check_quadrature(spec, q, errs):
    alpha, n_rad = spec["alpha"], spec["n_rad"]
    need(q.nodes.size == n_rad * spec["n_ang"], "node count")
    r, w = q.radii.tolist(), q.radial_weights.tolist()
    ex = inex = 0.0
    for s in range(spec["cutoff"] + 4):
        got = sum(wi * ri ** (2 * s) for wi, ri in zip(w, r))
        err = abs(got / orc.moment(alpha, s) - 1.0)
        if orc.radial_exact(alpha, n_rad, s):
            ex = max(ex, err)
        else:
            inex = max(inex, err)
    _split(ex, inex, errs, "numcore.build_disc_quadrature")


def _check_disc(spec, out, errs):
    kind, n, alpha, n_rad = spec["kind"], spec["cutoff"], spec["alpha"], spec["n_rad"]
    terms = exact_terms(spec["symbol"])
    _check_quadrature(spec, out["q"], errs)
    val = out["value"]
    if kind == "bergman.toeplitz_matrix":
        mat, top = orc.toeplitz_entries(terms, alpha, n)
        need(val.shape == (n + 1, n + 1), "matrix shape")
        ex = inex = 0.0
        got = val.tolist()
        for j in range(n + 1):
            for k in range(n + 1):
                e = abs(got[j][k] - mat[j][k])
                if orc.radial_exact(alpha, n_rad, top[j][k]):
                    ex = max(ex, e)
                else:
                    inex = max(inex, e)
        _split(ex, inex, errs, kind)
    elif kind == "bergman.bergman_project":
        ref = orc.projection_coeffs(terms, alpha, n)
        need(len(val) == n + 1, "coefficient count")
        err = max(abs(a - b) for a, b in zip(val.tolist(), ref))
        exact = orc.radial_exact(alpha, n_rad, 3 + n)
        _split(err if exact else 0.0, 0.0 if exact else err, errs, kind)
    elif kind == "bergman.bergman_norm":
        ref, top = orc.bergman_l2(terms, alpha)
        err = abs(val - ref) / ref
        exact = orc.radial_exact(alpha, n_rad, top)
        _split(err if exact else 0.0, 0.0 if exact else err, errs, kind)
    elif kind == "bergman.check_convolution_submultiplicative":
        lhs, rhs, top = orc.convolution_p2(terms, exact_terms(spec["symbol_g"]), alpha)
        err = max(abs(val["lhs"] - lhs) / rhs, abs(val["rhs"] - rhs) / rhs)
        exact = orc.radial_exact(alpha, n_rad, top)
        _split(err if exact else 0.0, 0.0 if exact else err, errs, kind)
        if abs(lhs - rhs) > 1e-6 * rhs:
            need(val["holds"] == (lhs <= rhs), f"holds={val['holds']} but lhs={lhs} rhs={rhs}")
    elif kind == "hardy.hardy_norm":
        coeffs = [0j] * 4
        for a, _, c in terms:
            coeffs[a] += c
        ref = orc.hardy_h2(coeffs, HARDY_LADDER)
        bounded(errs, kind, abs(val - ref) / ref, kind)
    elif kind == "hardy.hardy_toeplitz":
        phi = orc.fourier_coeffs(terms)
        need(val.shape == (n + 1, n + 1), "matrix shape")
        got = val.tolist()
        err = max(abs(got[j][k] - phi.get(j - k, 0)) for j in range(n + 1) for k in range(n + 1))
        bounded(errs, kind, err, kind)
    elif kind == "hardy.disc_algebra_membership":
        check_membership(spec["symbol"], *val)
    elif kind == "bloch.bloch_seminorm":
        (a, _, c), = terms
        ref = orc.bloch_monomial(c, a, spec["bloch_alpha"])
        bounded(errs, kind, abs(val.seminorm - ref) / ref, kind)


def check_membership(symbol: dict, member, witness) -> None:
    """Membership iff every negative frequency vanishes exactly; the witness
    must be a negative frequency of largest magnitude."""
    exact = {}
    for a, b, (re, im) in fraction_terms(symbol):
        if a < b:
            acc = exact.get(a - b, (Fraction(0), Fraction(0)))
            exact[a - b] = (acc[0] + re, acc[1] + im)
    mags = {k: math.hypot(re, im) for k, (re, im) in exact.items() if re or im}
    if not mags:
        need(member is True and witness is None, f"member={member} witness={witness}")
        return
    need(member is False, "non-member reported as member")
    need(witness in mags and mags[witness] >= max(mags.values()) - 1e-9, f"witness {witness}")


def _check_lie(spec, out, errs):
    kind = spec["kind"]
    x, y, z = spec["fields"]
    if kind == "liefields.lie_bracket":
        ref = orc.lie_bracket(x, y)
    elif kind == "liefields.jacobi":
        ref = orc.field_add(orc.lie_bracket(x, orc.lie_bracket(y, z)),
                            orc.lie_bracket(y, orc.lie_bracket(z, x)),
                            orc.lie_bracket(z, orc.lie_bracket(x, y)))
        need(all(not comp for comp in ref), "oracle Jacobi sum is not zero")
        need(out.is_zero() is True, "Jacobi sum is not zero")
    elif kind == "liefields.check_lemma_prolongation":
        need(out["exact"] is True and out["max_coeff_diff"] == 0,
              f"prolongation lemma reported {out}")
        return
    else:
        ref = orc.flow_commutator(x, y, spec["point"], FLOW_T)
        err = max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(out.tolist(), ref))
        bounded(errs, kind, err, kind)
        return
    for p in spec["probes"]:
        got = [float(v) for v in out(p)]
        need(got == [float(v) for v in orc.field_at(ref, p)], f"{kind} differs at {p}")


def _check_colombeau(spec, m, result, errs):
    import numpy as np

    # mass one and vanishing moments 1..q+1, by Simpson's rule on [-1, 1]
    t = np.linspace(-1.0, 1.0, 20001)
    w = np.ones_like(t)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (t[1] - t[0]) / 3.0
    phi = np.asarray(m(t), dtype=float)
    err = max(abs(float(np.sum(w * phi * t ** a)) - (1.0 if a == 0 else 0.0))
              for a in range(spec["q"] + 2))
    bounded(errs, "colombeau.build_mollifier", err, "colombeau.build_mollifier")
    kind, name = spec["kind"], spec["f"]
    if kind == "colombeau.l1_embedding_bound":
        ref = orc.l1_norm(name)
        # the midpoint grid resolves a jump only to within one cell
        jump = ".jump" if name == "heaviside" or name.startswith("spike:") else ""
        bounded(errs, kind, abs(result["l1_norm"] - ref) / ref, kind + jump)
        sup_phi = float(np.max(np.abs(phi)))
        bounded(errs, kind, abs(result["c"] * spec["eps"] - sup_phi) / sup_phi, kind)
        need(result["holds"] is True and result["sup_value"] <= result["c"] * result["l1_norm"]
              * (1 + 1e-12), f"L1 bound reported {result}")
        return
    eps, vals = result.epsilons.tolist(), result.values.tolist()
    need(len(eps) == len(vals) and all(map(math.isfinite, vals)), "epsilon net")
    check_rate(kind, name, spec["q"], spec["alpha"], eps, vals, errs)


def check_rate(kind, name, q, alpha, eps, vals, errs) -> None:
    """Compare an epsilon ladder with the known rate of its defect."""
    rate = (orc.taylor_rate(name, q) if kind == "colombeau.taylor_defect"
            else orc.seminorm_rate(name, alpha))
    if rate == "zero":
        bounded(errs, kind + ".zero", max(vals), kind + ".zero")
        return
    slope = orc.loglog_slope(eps, vals, orc.tol(kind + ".floor"))
    if slope is None:                     # every value sits below the noise floor
        need(rate > 0, f"{name}: vanishing net where rate {rate} was expected")
        return
    key = kind + (".alpha3" if kind == "colombeau.seminorm_net" and alpha == 3
                  and name == "abs" else "")
    bounded(errs, kind, abs(slope - rate), key)


def _check_gelfand(spec, group, result, errs):
    gs = spec["group"]
    table = orc.group_table(gs["kind"], gs["n"])
    need(group.mul.tolist() == table, "group table differs from the oracle's")
    hecke = orc.HeckeCounts(table, gs["members"])
    if spec["kind"] == "gelfand.is_gelfand_pair":
        need(result["gelfand"] == hecke.gelfand, f"gelfand={result['gelfand']}")
        ref = hecke.max_commutator()
        bounded(errs, "gelfand.is_gelfand_pair", abs(result["max_commutator"] - ref),
                 "gelfand.is_gelfand_pair")
        return
    if not hecke.gelfand:
        need(isinstance(result, Exception), "spherical functions of a non-Gelfand pair")
        return
    need(not isinstance(result, Exception), f"raised {result!r}")
    need(len(result) == len(hecke.blocks), f"{len(result)} functions, {len(hecke.blocks)} cosets")
    worst = 0.0
    for phi in result:
        vals = phi.tolist()
        worst = max(worst, abs(vals[0] - 1.0))      # element 0 is the identity
        for block in hecke.blocks:
            worst = max(worst, max(abs(vals[g] - vals[block[0]]) for g in block))
        worst = max(worst, hecke.spherical_residual(vals))
    bounded(errs, "gelfand.spherical_functions", worst, "gelfand.spherical_functions")
    for a in range(len(result)):
        for b in range(a):
            need(float(abs(result[a] - result[b]).max()) > 1e-6, "repeated spherical function")


def _check_suite(records, errs):
    """Records are well formed; failed records are counted by the caller."""
    import json

    need(isinstance(records, list) and records, "no records")
    for r in records:
        need(set(r) >= {"name", "passed", "detail"}, f"malformed record {r!r:.80}")
    try:
        json.dumps(records, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise Mismatch(f"records do not serialise as strict JSON: {exc}")


def _plain(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(type(obj))
