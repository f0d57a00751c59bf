"""Seeded property suites for every module.

Each suite takes only a seed and returns a list of {name, passed, detail}
records; the command line prints one line per property and the acceptance
tests assert on the same records.  All randomness flows through a single
numpy Generator seeded by the caller, so reruns are byte-identical.  Each
suite imports the layer it checks when it runs, so one suite loads no other.

Most records have one of three shapes:

* ``_max_error``: an error that must stay small; detail ``max_error`` (the
  largest error, at least 0) and ``tolerance``; passes when
  ``max_error < tolerance``.
* ``_sweep``: an inequality ``lhs <= rhs + slack`` over random pairs; detail
  ``worst_gap`` (the largest ``lhs - rhs``), ``tolerance`` (the slack) and
  caller keys (the convolution sweep's ``checked_on``: one 256-point ring);
  passes when every pair holds.
* ``_slope``: a colombeau rate; detail ``slope`` (fitted log-log slope),
  ``expected`` and ``tolerance`` (0.2); passes when
  ``|slope - expected| <= tolerance``.

The others (positivity, counts, ranks, witnesses, exact Lie identities) are
written out with ``_rec``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numcore import (
    BoundaryGrid,
    HoloPoly,
    boundary_fourier,
    boundary_points,
    build_disc_quadrature,
    circle_mean,
)

SLOPE_TOLERANCE = 0.2


def _rec(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _max_error(name: str, errors, tol: float) -> dict:
    worst = float(max((0.0, *errors)))
    return _rec(name, worst < tol, max_error=worst, tolerance=tol)


def _sweep(name: str, pairs, slack: float, **detail) -> dict:
    pairs = list(pairs)
    worst_gap = max((-np.inf, *(lhs - rhs for lhs, rhs in pairs)))
    return _rec(name, all(lhs <= rhs + slack for lhs, rhs in pairs),
                worst_gap=float(worst_gap), tolerance=slack, **detail)


def _slope(name: str, net, expected) -> dict:
    from . import colombeau
    slope = colombeau.estimate_order(net).slope
    return _rec(name, abs(slope - expected) <= SLOPE_TOLERANCE, slope=slope,
                expected=expected, tolerance=SLOPE_TOLERANCE)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def _cnormal(rng, n=None):
    """Complex normal: the real parts are drawn first, then the imaginary."""
    re = rng.standard_normal(n)
    return re + 1j * rng.standard_normal(n)


def _disc_point(rng, radius: float) -> complex:
    """Area-uniform point of the disc of the given radius."""
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _random_poly(rng, max_deg: int) -> HoloPoly:
    deg = int(rng.integers(1, max_deg + 1))
    return HoloPoly(_cnormal(rng, deg + 1))


def _random_int_field(rng, d: int, max_deg: int = 2) -> liefields.PolyVectorField:
    from . import liefields
    maps = []
    for _ in range(d):
        m = {}
        for _ in range(3):
            expts = tuple(int(e) for e in rng.integers(0, max_deg + 1, size=d))
            if sum(expts) > max_deg:
                continue
            m[expts] = int(rng.integers(-3, 4))
        if not m:
            m[(0,) * d] = 1
        maps.append(m)
    return liefields.from_coeff_map(maps, d)


def _random_fields(rng, count: int) -> list[liefields.PolyVectorField]:
    """``count`` random integer fields of one random dimension, 1 or 2."""
    d = int(rng.integers(1, 3))
    return [_random_int_field(rng, d) for _ in range(count)]


# ---------------------------------------------------------------------------
# bergman
# ---------------------------------------------------------------------------

def _circle_norms(f, g, p: float) -> tuple[float, float]:
    """lhs ||f*g||_p and rhs ||f||_p ||g||_p of Young's inequality on the circle."""
    from . import bergman
    conv = bergman.circle_convolution(BoundaryGrid(f), BoundaryGrid(g)).samples
    lhs, nf, ng = (circle_mean(v, p) ** (1.0 / p) for v in (conv, f, g))
    return lhs, nf * ng


def bergman_suite(seed: int = 0) -> list[dict]:
    from . import bergman
    rng = np.random.default_rng(seed)
    q = build_disc_quadrature(0.0, 64, 256)
    z = q.nodes
    cutoff = 16
    # draw tables, built once: z^j and conj(z)^k for j, k <= 3, and the
    # angular characters of the frequencies -6..6
    powers = [z ** j for j in range(4)]
    conj_powers = [np.conj(z) ** k for k in range(4)]
    chars = np.exp(1j * np.outer(np.arange(-6, 7), q.angles))

    def symbol():
        """Random polynomial in z and conj(z), sampled on the quadrature nodes."""
        out = np.zeros_like(z)
        for zj in powers:
            for zk in conj_powers:
                out = out + _cnormal(rng) * zj * zk
        return out

    def trig():
        """Random trigonometric polynomial on the 256-point ring."""
        return np.sum(_cnormal(rng, len(chars))[:, None] * chars, axis=0)

    def toep(phi):
        return bergman.toeplitz_matrix(phi, q, cutoff).entries

    def fixed_error(deg):
        c = np.zeros(cutoff + 1, dtype=complex)
        c[deg] = 1.0
        c[:deg] = 0.1 * _cnormal(rng, deg)
        proj = bergman.bergman_project(HoloPoly(c[: deg + 1])(z), q, cutoff)
        return np.max(np.abs(proj.coeffs - c))

    def linearity_error():
        phi, psi = symbol(), symbol()
        x, y = _cnormal(rng), _cnormal(rng)
        return np.max(np.abs(toep(x * phi + y * psi) - (x * toep(phi) + y * toep(psi))))

    def min_eigenvalue(phi):
        mat = toep(phi)
        return float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))

    def block_error(a, b, ab, d):
        """T_a T_b - T_ab on the leading block that the degrees d leave exact."""
        blk = cutoff + 1 - d
        return np.max(np.abs((toep(a) @ toep(b) - toep(ab))[:blk, :blk]))

    out = [_max_error("projection fixes holomorphic polynomials",
                      [fixed_error(deg) for deg in range(cutoff + 1)], 1e-9)]
    out.append(_max_error(
        "projection annihilates antiholomorphic monomials",
        (np.max(np.abs(bergman.bergman_project(np.conj(z) ** k, q, cutoff).coeffs))
         for k in range(1, 9)), 1e-9))
    out.append(_max_error("Toeplitz linearity",
                          [linearity_error() for _ in range(5)], 1e-10))
    phis = [symbol() for _ in range(5)]
    out.append(_max_error("Toeplitz adjoint", (
        np.max(np.abs(toep(np.conj(phi)) - toep(phi).conj().T)) for phi in phis), 1e-10))

    min_eig = min((np.inf, *(min_eigenvalue(np.abs(_random_poly(rng, 3)(z)) ** 2)
                             for _ in range(10))))
    out.append(_rec("Toeplitz positivity for nonnegative symbols",
                    min_eig >= -1e-8, min_eigenvalue=min_eig, tolerance=-1e-8))

    pairs = [(_random_poly(rng, 3), _random_poly(rng, 3)) for _ in range(5)]
    out.append(_max_error("holomorphic multiplicativity on leading blocks", (
        block_error(g(z), f(z), (f * g)(z), f.degree + g.degree) for f, g in pairs), 1e-9))
    pairs = [(_random_poly(rng, 3), _random_poly(rng, 3)) for _ in range(5)]
    out.append(_max_error("conjugate-symbol product rule on leading blocks", (
        block_error(np.conj(f(z)), g(z), np.conj(f(z)) * g(z), f.degree + g.degree)
        for f, g in pairs), 1e-9))

    p1 = bergman.bergman_project(symbol(), q, cutoff)
    p2 = bergman.bergman_project(p1(z), q, cutoff)
    out.append(_max_error("projection idempotence",
                          [np.max(np.abs(p1.coeffs - p2.coeffs))], 1e-9))

    out.append(_sweep("convolution norm submultiplicativity",
                      (_circle_norms(trig(), trig(), p) for p in (1.0, 2.0, 4.0)
                       for _ in range(100)), 1e-9, checked_on="circle, 256 points"))
    return out


# ---------------------------------------------------------------------------
# bloch
# ---------------------------------------------------------------------------

def bloch_suite(seed: int = 0) -> list[dict]:
    from . import bloch
    rng = np.random.default_rng(seed)

    rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), 1.0)
    target = 4.0 / (3.0 * np.sqrt(3.0))
    err = abs(rep.seminorm - target) / target
    out = [_rec("seminorm of z^2 at alpha=1", err < 1e-12 and rep.seminorm <= target <= rep.upper,
                error=err, value=rep.seminorm, upper=rep.upper, expected=target,
                tolerance=1e-12)]

    points = [(_disc_point(rng, 0.95), _disc_point(rng, 0.95)) for _ in range(100)]
    out.append(_max_error("Mobius involution", (
        abs(bloch.mobius(a, bloch.mobius(a, z)) - z) for a, z in points), 1e-12))

    trials = [(_random_poly(rng, 5), _disc_point(rng, 0.9)) for _ in range(20)]
    out.append(_max_error("invariant gradient chain rule", (
        abs(bloch.invariant_gradient_norm(f, z) - (1.0 - abs(z) ** 2) * abs(f.derivative()(z)))
        for f, z in trials), 1e-10))

    # product bound at the proof level, ||fg||_B <= |f(0) g(0)| + sup w |f'g| + sup w |fg'|
    # with w = 1 - |z|^2: the left side attained, the right side from upper bounds
    pairs = [(_random_poly(rng, 4), _random_poly(rng, 4)) for _ in range(50)]
    value, _, upper, _ = bloch.weighted_sups([p for f, g in pairs for p in (
        (f * g).derivative(), f.derivative() * g, f * g.derivative())], 1.0)
    out.append(_sweep("product bound (proof-level)", (
        ((abs(f(0.0) * g(0.0)) + v) / (abs(f(0.0) * g(0.0)) + u1 + u2), 1.0)
        for (f, g), v, u1, u2 in zip(pairs, value[::3], upper[1::3], upper[2::3])), 1e-12))

    pairs = [(_random_poly(rng, 5), _random_poly(rng, 5)) for _ in range(20)]
    out.append(_max_error("Leibniz consistency", (
        np.max(np.abs(((f * g).derivative()
                       + (-1) * (f.derivative() * g + f * g.derivative())).coeffs))
        for f, g in pairs), 1e-12))

    # norm homogeneity and triangle inequality, relative to the norms involved
    draws = [(_random_poly(rng, 4), _random_poly(rng, 4), _cnormal(rng)) for _ in range(10)]
    nf, naf, nfg, ng = bloch.bloch_norms(
        [h for f, g, a in draws for h in (f, a * f, f + g, g)]).reshape(-1, 4).T
    out.append(_max_error("norm homogeneity",
                          np.abs(naf / (np.abs([a for _, _, a in draws]) * nf) - 1.0), 1e-12))
    out.append(_sweep("norm subadditivity", zip(nfg / (nf + ng), np.ones(10)), 1e-12))
    return out


# ---------------------------------------------------------------------------
# hardy
# ---------------------------------------------------------------------------

def hardy_suite(seed: int = 0) -> list[dict]:
    from . import hardy
    rng = np.random.default_rng(seed)
    cutoff = 12

    def toep(c):
        return hardy.hardy_toeplitz(c, cutoff).entries

    def rand_symbol(lo, hi):
        """Fourier array for offsets -cutoff..cutoff, random on lo..hi; draws
        run over the offsets in ascending order."""
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        for k in range(lo, hi + 1):
            c[k] = _cnormal(rng)
        return c

    def product_error():
        deg_f, deg_g = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f_hat, g_hat = rand_symbol(0, deg_f), rand_symbol(-deg_g, deg_g)
        blk = cutoff + 1 - (deg_f + deg_g)
        prod = hardy.symbol_product(g_hat, f_hat)
        return np.max(np.abs((toep(g_hat) @ toep(f_hat) - toep(prod))[:blk, :blk]))

    # Parseval cross-check at the top of the radius ladder
    polys = [_random_poly(rng, 8) for _ in range(10)]
    out = [_max_error("p=2 Parseval cross-check", (
        abs(hardy.hardy_norm(f, 2.0, radii=[0.9999])
            - hardy.hardy_norm_parseval(f, 0.9999)) for f in polys), 1e-10)]

    xi = boundary_points(512)
    kernels = [hardy.poisson_kernel(_disc_point(rng, 0.9), xi) for _ in range(20)]
    out.append(_rec("Poisson positivity", all(np.all(pk > 0) for pk in kernels)))
    out.append(_max_error("Poisson mean one", (
        abs(float(np.mean(pk)) - 1.0) for pk in kernels), 1e-10))

    trials = [(_random_poly(rng, 8), _disc_point(rng, 0.9)) for _ in range(20)]
    out.append(_max_error("Szego/Poisson reproduction", (
        abs(reproduce(f, z) - f(z)) for f, z in trials
        for reproduce in (hardy.szego_reproduce, hardy.poisson_reproduce)), 1e-8))

    # linearity against an independent construction: column k of the
    # compression P M_phi P holds the Fourier coefficients 0..cutoff of
    # phi(xi) xi^k, which 64 boundary points resolve for offsets up to 2 cutoff
    circle = boundary_points(64)

    def compression(c):
        phi = sum(c[j] * circle ** j for j in range(-cutoff, cutoff + 1))
        return np.stack([boundary_fourier(BoundaryGrid(phi * circle ** k))[: cutoff + 1]
                         for k in range(cutoff + 1)], axis=1)

    trials = [(rand_symbol(-4, 4), rand_symbol(-4, 4), _cnormal(rng)) for _ in range(5)]
    out.append(_max_error("Hardy-Toeplitz linearity", (
        np.max(np.abs(toep(x * a + b) - (x * compression(a) + compression(b))))
        for a, b, x in trials), 1e-12))

    # the adjoint is exact: conjugating the symbol transposes the table
    symbols = [rand_symbol(-4, 4) for _ in range(5)]
    worst = float(max((0.0, *(np.max(np.abs(toep(hardy.conjugate_symbol(a)) - toep(a).conj().T))
                              for a in symbols))))
    out.append(_rec("Hardy-Toeplitz adjoint", worst == 0.0, max_error=worst,
                    tolerance=0.0))

    out.append(_max_error("analytic-symbol product on leading blocks",
                          [product_error() for _ in range(5)], 1e-10))
    return out


# ---------------------------------------------------------------------------
# gelfand
# ---------------------------------------------------------------------------

def gelfand_suite(seed: int = 0) -> list[dict]:
    from . import gelfand
    rng = np.random.default_rng(seed)
    s3 = gelfand.symmetric(3)
    # transposition subgroup: identity plus the first order-2 element
    transposition = next(g for g in range(1, s3.order)
                         if s3.mul[g, g] == s3.id)
    k = [s3.id, transposition]

    def conv(a, b):
        return gelfand.convolve(a, b, s3)

    def project(f):
        return gelfand.biinvariant_project(f, s3, k)

    def transform(f, phi):
        return gelfand.spherical_transform(f, phi, s3)

    rep = gelfand.is_gelfand_pair(s3, k)
    out = [_rec("(S3, <transposition>) is a Gelfand pair", rep["gelfand"],
                max_commutator=rep["max_commutator"])]

    sph = gelfand.spherical_functions(s3, k, seed=seed)
    n_cosets = len(gelfand.double_cosets(s3, k))
    out.append(_rec("spherical count equals double-coset count",
                    len(sph) == n_cosets, count=len(sph), cosets=n_cosets))

    basis = gelfand.coset_basis(s3, k)
    out.append(_max_error("spherical multiplicativity on basis pairs", (
        abs(transform(conv(bi, bj), phi) - transform(bi, phi) * transform(bj, phi))
        for phi in sph for bi in basis for bj in basis), 1e-10))

    rank = np.linalg.matrix_rank(np.array(sph))
    out.append(_rec("spherical functions linearly independent",
                    rank == len(sph), rank=int(rank)))

    q8 = gelfand.quaternion()
    rep = gelfand.is_gelfand_pair(q8, [q8.id])
    out.append(_rec("(Q8, trivial) rejected with witness", not rep["gelfand"],
                    witness=rep["witness"], max_commutator=rep["max_commutator"]))

    # Plancherel: (1/|G|) sum |phi|^2 = 1/d for the spherical function of an
    # irreducible of dimension d, and these d sum to the index [G:K]
    s4 = gelfand.symmetric(4)
    perms4 = list(itertools.permutations(range(4)))
    plancherel_pairs = {
        "S3/<transposition>": (s3, k),
        "S4/S3": (s4, [i for i, p in enumerate(perms4) if p[3] == 3]),
        "S4/S2xS2": (s4, [i for i, p in enumerate(perms4) if set(p[:2]) == {0, 1}]),
        "D5/<s>": (gelfand.dihedral(5), [0, 5]),
        "Z6/1": (gelfand.cyclic(6), [0]),
    }
    dims, dim_errors, sums_hold = {}, [], True
    for name, (group, members) in plancherel_pairs.items():
        d = np.array([group.order / np.sum(np.abs(phi) ** 2)
                      for phi in gelfand.spherical_functions(group, members, seed=seed)])
        dim_errors.append(float(np.max(np.abs(d - np.round(d)))))
        dims[name] = sorted(int(x) for x in np.round(d))
        sums_hold &= sum(dims[name]) == group.order // len(members)
    out.append(_rec("Plancherel dimensions are integers summing to the index",
                    max(dim_errors) < 1e-9 and sums_hold, dimensions=dims,
                    max_error=max(dim_errors), tolerance=1e-9))

    sph4 = gelfand.spherical_functions(gelfand.cyclic(4), [0], seed=seed)
    chars = {tuple(np.round(1j ** (j * np.arange(4)), 9)) for j in range(4)}
    got = {tuple(np.round(phi, 9)) for phi in sph4}
    out.append(_rec("Z4 spherical functions are the characters", got == chars,
                    decimals=9))

    # projection algebra identities on S3, f1 bi-invariant
    trials = [(project(_cnormal(rng, 6)), _cnormal(rng, 6)) for _ in range(20)]
    out.append(_max_error("bi-invariant projection convolution identities", [
        err for f1, f2 in trials for err in (
            np.max(np.abs(project(conv(f2, f1)) - conv(project(f2), f1))),
            np.max(np.abs(project(conv(f1, f2)) - conv(f1, project(f2)))))], 1e-12))

    f = _cnormal(rng, 6)
    err_unit = float(np.max(np.abs(conv(gelfand.delta_unit(s3), f) - f)))
    g, h = _cnormal(rng, 6), _cnormal(rng, 6)
    assoc = float(np.max(np.abs(conv(conv(f, g), h) - conv(f, conv(g, h)))))
    out.append(_rec("convolution unit and associativity",
                    err_unit < 1e-12 and assoc < 1e-12,
                    unit_error=err_unit, associativity_error=assoc, tolerance=1e-12))

    # weighted seminorm submultiplicativity with phi = 1
    phi = np.ones(6)

    def seminorm(f):
        return gelfand.phi_seminorm(f, phi, s3)

    pairs = [(_cnormal(rng, 6), _cnormal(rng, 6)) for _ in range(200)]
    out.append(_sweep("weighted seminorm submultiplicativity", (
        (seminorm(conv(f1, f2)), seminorm(f1) * seminorm(f2)) for f1, f2 in pairs), 1e-12))
    return out


# ---------------------------------------------------------------------------
# lie fields
# ---------------------------------------------------------------------------

def lie_suite(seed: int = 0) -> list[dict]:
    from . import liefields
    rng = np.random.default_rng(seed)
    bracket = liefields.lie_bracket

    pairs = [_random_fields(rng, 2) for _ in range(50)]
    out = [_rec("bracket antisymmetry (exact)", all(
        liefields.fields_equal(bracket(x, y) + bracket(y, x),
                               liefields.PolyVectorField([0] * x.dim))
        for x, y in pairs))]
    out.append(_rec("self-bracket vanishes (exact)",
                    all(bracket(x, x).is_zero() for x, _ in pairs)))

    triples = [_random_fields(rng, 3) for _ in range(50)]
    out.append(_rec("Jacobi identity (exact)",
                    all(liefields.jacobi_sum(*t).is_zero() for t in triples)))

    reps = [liefields.check_lemma_prolongation(*_random_fields(rng, 2)) for _ in range(50)]
    out.append(_rec("order-1 prolongation is a bracket morphism (exact)",
                    all(rep["exact"] for rep in reps),
                    max_coeff_diff=max((0.0, *(rep["max_coeff_diff"] for rep in reps)))))

    # flow-commutator convergence: error O(t), log-log slope >= 0.9
    x = liefields.from_coeff_map([{(1, 0): 1, (0, 1): -2},
                                  {(1, 1): 1}], 2)
    y = liefields.from_coeff_map([{(0, 1): 1},
                                  {(2, 0): 1, (0, 0): 1}], 2)
    target = bracket(x, y)((0.3, -0.2))
    ts = np.array([0.1, 0.05, 0.025])
    errs = np.array([
        np.linalg.norm(liefields.bracket_via_flows(x, y, (0.3, -0.2), t) - target)
        for t in ts
    ])
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    out.append(_rec("flow-commutator first-order convergence", slope >= 0.9,
                    slope=slope, errors=[float(e) for e in errs], threshold=0.9))
    return out


# ---------------------------------------------------------------------------
# colombeau
# ---------------------------------------------------------------------------

def colombeau_suite(seed: int = 0) -> list[dict]:
    from . import colombeau
    rng = np.random.default_rng(seed)
    mollifiers = {q: colombeau.build_mollifier(q) for q in (0, 2, 4)}
    m2 = mollifiers[2]
    out = []
    for q, m in mollifiers.items():
        mass_err = abs(colombeau.mollifier_moment(m, 0) - 1.0)
        worst = max((abs(colombeau.mollifier_moment(m, a))
                     for a in range(1, q + 1)), default=0.0)
        out.append(_rec(f"mollifier q={q} moments", mass_err < 1e-10 and worst < 1e-9,
                        mass_error=mass_err, max_moment=worst,
                        mass_tolerance=1e-10, tolerance=1e-9))

    # linearity of the regularization, with slack relative to its terms
    k_grid = np.linspace(-1.0, 1.0, 801)
    a, b = rng.standard_normal(2)
    f, g = colombeau.catalog("exp"), colombeau.catalog("sin")
    lhs = colombeau.regularize(lambda t: a * f(t) + b * g(t), m2, 0.25, k_grid)
    af = a * colombeau.regularize(f, m2, 0.25, k_grid)
    bg = b * colombeau.regularize(g, m2, 0.25, k_grid)
    err = float(np.max(np.abs(lhs - (af + bg))))
    scale = float(np.max(np.abs(af) + np.abs(bg)))
    out.append(_rec("regularization linearity", err < 1e-10 * scale, max_error=err,
                    scale=scale, tolerance=1e-10))

    # polynomials of degree <= q are reproduced exactly
    worst = float(np.max(colombeau.taylor_defect(colombeau.catalog("poly:2"), m2).values))
    out.append(_rec("degree <= q polynomials reproduced", worst < 1e-9,
                    max_defect=worst, tolerance=1e-9))

    # smooth defect rate m + 1, with m the actual vanishing-moment count:
    # the even order-q mollifier also kills moment q + 1, so m = q + 1
    for q, m in mollifiers.items():
        out.append(_slope(f"smooth regularization defect rate q={q}",
                          colombeau.taylor_defect(colombeau.catalog("exp"), m), q + 2))
    out.append(_slope("modulus-of-continuity defect rate for |t|",
                      colombeau.taylor_defect(colombeau.catalog("abs"), m2), 1.0))

    # product defect: smooth pair decays at rate >= q, |t| pair stays nonzero
    net = colombeau.product_defect(colombeau.catalog("exp"), colombeau.catalog("exp"), m2)
    rep = colombeau.estimate_order(net)
    out.append(_rec("product defect slope for smooth pair", rep.slope >= m2.q,
                    slope=rep.slope, threshold=m2.q))
    net = colombeau.product_defect(colombeau.catalog("abs"), colombeau.catalog("abs"), m2)
    nonzero = bool(np.all(net.values > 1e-10))
    at_coarse = float(net.values[np.argmin(np.abs(net.epsilons - 2.0 ** -4))])
    rep = colombeau.estimate_order(net)
    out.append(_rec("product defect nonzero for |t| pair (non-subalgebra)",
                    nonzero and at_coarse > 1e-9,
                    min_defect=float(np.min(net.values)),
                    defect_at_2pow_minus4=at_coarse, slope=rep.slope,
                    threshold=1e-10, coarse_threshold=1e-9))

    # Heaviside derivative seminorm growth ~ 1/eps
    out.append(_slope("Heaviside derivative seminorm slope -1",
                      colombeau.seminorm_net(colombeau.catalog("heaviside"), m2, alpha=1),
                      -1.0))

    # exact power-law ladder classification
    eps = colombeau.default_ladder()
    net = colombeau.EpsilonNet(epsilons=eps, values=eps ** 3,
                               meta={"K": (-1.0, 1.0), "alpha": 0})
    rep = colombeau.estimate_order(net, negligible_order=3)
    out.append(_rec("exact power-law slope", abs(rep.slope - 3.0) <= 0.01
                    and rep.kind == "negligible", slope=rep.slope, tolerance=0.01))

    # L1 embedding bound on the 3-function catalog
    reps = {name: colombeau.l1_embedding_bound(colombeau.catalog(name), m2, 2 ** -4)
            for name in ("const", "abs", "spike:0.01")}
    out.append(_rec("L1 embedding sup bound", all(r["holds"] for r in reps.values()),
                    ratios={name: r["sup_value"] / (r["c"] * r["l1_norm"])
                            for name, r in reps.items()},
                    **{key: reps["const"][key] for key in ("cells", "k_points", "tolerance")}))
    return out


SUITES = {
    "bergman": bergman_suite,
    "bloch": bloch_suite,
    "hardy": hardy_suite,
    "gelfand": gelfand_suite,
    "lie": lie_suite,
    "colombeau": colombeau_suite,
}


def run_suite(name: str, seed: int = 0) -> list[dict]:
    if name == "all":
        return [{**rec, "name": f"{key}: {rec['name']}"}
                for key, suite in SUITES.items() for rec in suite(seed=seed)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed=seed)
