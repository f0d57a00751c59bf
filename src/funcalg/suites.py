"""Seeded property suites for every module.

Each suite returns a list of {name, passed, detail} records; the command line
prints one line per property and the acceptance tests assert on the same
records.  All randomness flows through a single numpy Generator seeded by the
caller, so reruns are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import bergman, bloch, colombeau, gelfand, hardy, liefields
from .numcore import HoloPoly, boundary_points, build_disc_quadrature


def _rec(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _random_poly(rng, max_deg: int) -> HoloPoly:
    deg = int(rng.integers(1, max_deg + 1))
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return HoloPoly(c)


def _random_symbol_samples(rng, q, max_deg: int = 3) -> np.ndarray:
    """Random polynomial in z and conj(z), sampled on the quadrature nodes."""
    z = q.nodes
    out = np.zeros_like(z)
    for j in range(max_deg + 1):
        for k in range(max_deg + 1):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            out = out + a * z ** j * np.conj(z) ** k
    return out


def _random_trig_grid(rng, q, max_freq: int = 6) -> np.ndarray:
    """Radius-independent trigonometric polynomial on the tensor grid."""
    freqs = np.arange(-max_freq, max_freq + 1)
    c = rng.standard_normal(len(freqs)) + 1j * rng.standard_normal(len(freqs))
    theta = q.angles
    ring = np.sum(c[:, None] * np.exp(1j * np.outer(freqs, theta)), axis=0)
    return np.tile(ring, (q.n_rad, 1))


# ---------------------------------------------------------------------------
# bergman
# ---------------------------------------------------------------------------

def bergman_suite(seed: int = 0, cutoff: int = 16, n_rad: int = 64,
                  n_ang: int = 256, n_pairs: int = 100) -> list[dict]:
    rng = np.random.default_rng(seed)
    q = build_disc_quadrature(0.0, n_rad, n_ang)
    out = []

    # reproducing property of the projection
    worst = 0.0
    for deg in range(cutoff + 1):
        c = np.zeros(deg + 1, dtype=complex)
        c[deg] = 1.0
        c[: deg] = 0.1 * (rng.standard_normal(deg) + 1j * rng.standard_normal(deg))
        p = HoloPoly(c)
        proj = bergman.bergman_project(p(q.nodes), q, cutoff)
        padded = np.zeros(cutoff + 1, dtype=complex)
        padded[: deg + 1] = p.coeffs
        worst = max(worst, float(np.max(np.abs(proj.coeffs - padded))))
    out.append(_rec("projection fixes holomorphic polynomials", worst < 1e-9,
                    max_error=worst, tolerance=1e-9))

    worst = max(
        float(np.max(np.abs(
            bergman.bergman_project(np.conj(q.nodes) ** k, q, cutoff).coeffs)))
        for k in range(1, 9)
    )
    out.append(_rec("projection annihilates antiholomorphic monomials",
                    worst < 1e-9, max_error=worst, tolerance=1e-9))

    # Toeplitz linearity
    worst = 0.0
    for _ in range(5):
        phi = _random_symbol_samples(rng, q)
        psi = _random_symbol_samples(rng, q)
        x = complex(rng.standard_normal(), rng.standard_normal())
        y = complex(rng.standard_normal(), rng.standard_normal())
        lhs = bergman.toeplitz_matrix(x * phi + y * psi, q, cutoff).entries
        rhs = (x * bergman.toeplitz_matrix(phi, q, cutoff).entries
               + y * bergman.toeplitz_matrix(psi, q, cutoff).entries)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_rec("Toeplitz linearity", worst < 1e-10, max_error=worst,
                    tolerance=1e-10))

    # adjoint
    worst = 0.0
    for _ in range(5):
        phi = _random_symbol_samples(rng, q)
        lhs = bergman.toeplitz_matrix(np.conj(phi), q, cutoff).entries
        rhs = bergman.toeplitz_matrix(phi, q, cutoff).entries.conj().T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_rec("Toeplitz adjoint", worst < 1e-10, max_error=worst,
                    tolerance=1e-10))

    # positivity for nonnegative symbols
    min_eig = np.inf
    for _ in range(10):
        p = _random_poly(rng, 3)
        phi = np.abs(p(q.nodes)) ** 2
        mat = bergman.toeplitz_matrix(phi, q, cutoff).entries
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)))))
    out.append(_rec("Toeplitz positivity for nonnegative symbols",
                    min_eig >= -1e-8, min_eigenvalue=min_eig, tolerance=-1e-8))

    # holomorphic multiplicativity on the leading block
    worst = 0.0
    for _ in range(5):
        f = _random_poly(rng, 3)
        g = _random_poly(rng, 3)
        d = f.degree + g.degree
        tf = bergman.toeplitz_matrix(f(q.nodes), q, cutoff).entries
        tg = bergman.toeplitz_matrix(g(q.nodes), q, cutoff).entries
        tgf = bergman.toeplitz_matrix((f * g)(q.nodes), q, cutoff).entries
        b = cutoff + 1 - d
        worst = max(worst, float(np.max(np.abs((tg @ tf - tgf)[:b, :b]))))
    out.append(_rec("holomorphic multiplicativity on leading blocks",
                    worst < 1e-9, max_error=worst, tolerance=1e-9))

    # conjugate-holomorphic product rule on the leading block
    worst = 0.0
    for _ in range(5):
        f = _random_poly(rng, 3)
        g = _random_poly(rng, 3)
        d = f.degree + g.degree
        tfbar = bergman.toeplitz_matrix(np.conj(f(q.nodes)), q, cutoff).entries
        tg = bergman.toeplitz_matrix(g(q.nodes), q, cutoff).entries
        tprod = bergman.toeplitz_matrix(np.conj(f(q.nodes)) * g(q.nodes), q, cutoff).entries
        b = cutoff + 1 - d
        worst = max(worst, float(np.max(np.abs((tfbar @ tg - tprod)[:b, :b]))))
    out.append(_rec("conjugate-symbol product rule on leading blocks",
                    worst < 1e-9, max_error=worst, tolerance=1e-9))

    # projection idempotence
    phi = _random_symbol_samples(rng, q)
    p1 = bergman.bergman_project(phi, q, cutoff)
    p2 = bergman.bergman_project(p1(q.nodes), q, cutoff)
    err = float(np.max(np.abs(p1.coeffs - p2.coeffs)))
    out.append(_rec("projection idempotence", err < 1e-9, max_error=err,
                    tolerance=1e-9))

    # convolution submultiplicativity sweep
    all_hold = True
    worst_gap = -np.inf
    for p in (1.0, 2.0, 4.0):
        for _ in range(n_pairs):
            f = _random_trig_grid(rng, q)
            g = _random_trig_grid(rng, q)
            rep = bergman.check_convolution_submultiplicative(f, g, p, q)
            all_hold &= rep["holds"]
            worst_gap = max(worst_gap, rep["lhs"] - rep["rhs"])
    out.append(_rec("convolution norm submultiplicativity", all_hold,
                    worst_gap=float(worst_gap), tolerance=1e-9))
    return out


# ---------------------------------------------------------------------------
# bloch
# ---------------------------------------------------------------------------

def bloch_suite(seed: int = 0, n_pairs: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []

    rep = bloch.bloch_seminorm(HoloPoly([0, 0, 1]), 1.0)
    target = 4.0 / (3.0 * np.sqrt(3.0))
    err = abs(rep.seminorm - target)
    out.append(_rec("seminorm of z^2 at alpha=1", err < 1e-6, error=err,
                    value=rep.seminorm, expected=target, tolerance=1e-6))

    # Mobius involution
    worst = 0.0
    for _ in range(100):
        a = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        worst = max(worst, abs(bloch.mobius(a, bloch.mobius(a, z)) - z))
    out.append(_rec("Mobius involution", worst < 1e-12, max_error=worst,
                    tolerance=1e-12))

    # invariant gradient equals the chain-rule value
    worst = 0.0
    for _ in range(20):
        f = _random_poly(rng, 5)
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        direct = bloch.invariant_gradient_norm(f, z)
        oracle = (1.0 - abs(z) ** 2) * abs(f.derivative()(z))
        worst = max(worst, abs(direct - oracle))
    out.append(_rec("invariant gradient chain rule", worst < 1e-10,
                    max_error=worst, tolerance=1e-10))

    # product bound at the proof level, on a shared grid
    r = np.linspace(0.0, 1.0, 400, endpoint=False)
    theta = 2.0 * np.pi * np.arange(128) / 128
    zg = r[:, None] * np.exp(1j * theta)[None, :]
    w = 1.0 - np.abs(zg) ** 2
    all_hold = True
    worst_gap = -np.inf
    for _ in range(n_pairs):
        f = _random_poly(rng, 4)
        g = _random_poly(rng, 4)
        h = f * g
        lhs = abs(h(0.0)) + float(np.max(w * np.abs(h.derivative()(zg))))
        rhs = (abs(f(0.0)) * abs(g(0.0))
               + float(np.max(w * np.abs(f.derivative()(zg) * g(zg))))
               + float(np.max(w * np.abs(f(zg) * g.derivative()(zg)))))
        all_hold &= lhs <= rhs + 1e-8
        worst_gap = max(worst_gap, lhs - rhs)
    out.append(_rec("product bound (proof-level)", all_hold,
                    worst_gap=float(worst_gap), tolerance=1e-8))

    # Leibniz rule for polynomial products
    worst = 0.0
    for _ in range(20):
        f = _random_poly(rng, 5)
        g = _random_poly(rng, 5)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        n = max(len(lhs.coeffs), len(rhs.coeffs))
        a = np.zeros(n, complex); a[: len(lhs.coeffs)] = lhs.coeffs
        b = np.zeros(n, complex); b[: len(rhs.coeffs)] = rhs.coeffs
        worst = max(worst, float(np.max(np.abs(a - b))))
    out.append(_rec("Leibniz consistency", worst < 1e-12, max_error=worst,
                    tolerance=1e-12))

    # norm homogeneity and triangle inequality
    worst_h = 0.0
    worst_t = -np.inf
    for _ in range(10):
        f = _random_poly(rng, 4)
        g = _random_poly(rng, 4)
        a = complex(rng.standard_normal(), rng.standard_normal())
        nf = bloch.bloch_norm(f)
        worst_h = max(worst_h, abs(bloch.bloch_norm(a * f) - abs(a) * nf))
        worst_t = max(worst_t, bloch.bloch_norm(f + g) - nf - bloch.bloch_norm(g))
    out.append(_rec("norm homogeneity", worst_h < 1e-6, max_error=worst_h,
                    tolerance=1e-6))
    out.append(_rec("norm subadditivity", worst_t <= 1e-10,
                    worst_gap=float(worst_t), tolerance=1e-10))
    return out


# ---------------------------------------------------------------------------
# hardy
# ---------------------------------------------------------------------------

def hardy_suite(seed: int = 0, cutoff: int = 12) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []

    # Parseval cross-check at the top of the radius ladder
    worst = 0.0
    for _ in range(10):
        f = _random_poly(rng, 8)
        r = 0.9999
        grid_val = hardy.hardy_norm(f, 2.0, radii=[r], m=512)
        worst = max(worst, abs(grid_val - hardy.hardy_norm_parseval(f, r)))
    out.append(_rec("p=2 Parseval cross-check", worst < 1e-10, max_error=worst,
                    tolerance=1e-10))

    # Poisson positivity and mean one
    xi = boundary_points(512)
    worst = 0.0
    positive = True
    for _ in range(20):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        pk = hardy.poisson_kernel(z, xi)
        positive &= bool(np.all(pk > 0))
        worst = max(worst, abs(float(np.mean(pk)) - 1.0))
    out.append(_rec("Poisson positivity", positive))
    out.append(_rec("Poisson mean one", worst < 1e-10, max_error=worst,
                    tolerance=1e-10))

    # kernel reproduction at interior points
    worst = 0.0
    for _ in range(20):
        f = _random_poly(rng, 8)
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        worst = max(worst, abs(hardy.szego_reproduce(f, z) - f(z)))
        worst = max(worst, abs(hardy.poisson_reproduce(f, z) - f(z)))
    out.append(_rec("Szego/Poisson reproduction", worst < 1e-8,
                    max_error=worst, tolerance=1e-8))

    # Toeplitz linearity (exact) and adjoint
    def rand_symbol(lo, hi):
        """Fourier array for offsets -cutoff..cutoff, random on lo..hi; draws
        run over the offsets in ascending order."""
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        for k in range(lo, hi + 1):
            c[k] = complex(rng.standard_normal(), rng.standard_normal())
        return c

    worst = 0.0
    for _ in range(5):
        a = rand_symbol(-4, 4)
        b = rand_symbol(-4, 4)
        x = complex(rng.standard_normal(), rng.standard_normal())
        lhs = hardy.hardy_toeplitz(x * a + b, cutoff).entries
        rhs = (x * hardy.hardy_toeplitz(a, cutoff).entries
               + hardy.hardy_toeplitz(b, cutoff).entries)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_rec("Hardy-Toeplitz linearity", worst < 1e-12, max_error=worst,
                    tolerance=1e-12))

    worst = 0.0
    for _ in range(5):
        a = rand_symbol(-4, 4)
        lhs = hardy.hardy_toeplitz(hardy.conjugate_symbol(a), cutoff).entries
        rhs = hardy.hardy_toeplitz(a, cutoff).entries.conj().T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_rec("Hardy-Toeplitz adjoint", worst == 0.0, max_error=worst,
                    tolerance=1e-12))

    # analytic-symbol products agree on the leading block
    worst = 0.0
    for _ in range(5):
        deg_f, deg_g = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f_hat = rand_symbol(0, deg_f)
        g_hat = rand_symbol(-deg_g, deg_g)
        prod = hardy.symbol_product(g_hat, f_hat)
        tf = hardy.hardy_toeplitz(f_hat, cutoff).entries
        tg = hardy.hardy_toeplitz(g_hat, cutoff).entries
        tgf = hardy.hardy_toeplitz(prod, cutoff).entries
        d = deg_f + deg_g
        blk = cutoff + 1 - d
        worst = max(worst, float(np.max(np.abs((tg @ tf - tgf)[:blk, :blk]))))
    out.append(_rec("analytic-symbol product on leading blocks", worst < 1e-10,
                    max_error=worst, tolerance=1e-10))
    return out


# ---------------------------------------------------------------------------
# gelfand
# ---------------------------------------------------------------------------

def gelfand_suite(seed: int = 0, n_pairs: int = 200) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    s3 = gelfand.symmetric(3)
    # transposition subgroup: identity plus the first order-2 element
    transposition = next(g for g in range(1, s3.order)
                         if s3.mul[g, g] == s3.id)
    k = [s3.id, transposition]

    rep = gelfand.is_gelfand_pair(s3, k)
    out.append(_rec("(S3, <transposition>) is a Gelfand pair", rep["gelfand"],
                    max_commutator=rep["max_commutator"]))

    sph = gelfand.spherical_functions(s3, k, seed=seed)
    n_cosets = len(gelfand.double_cosets(s3, k))
    out.append(_rec("spherical count equals double-coset count",
                    len(sph) == n_cosets, count=len(sph), cosets=n_cosets))

    basis = gelfand.coset_basis(s3, k)
    worst = 0.0
    for phi in sph:
        for i in range(len(basis)):
            for j in range(len(basis)):
                conv = gelfand.convolve(basis[i], basis[j], s3)
                lhs = gelfand.spherical_transform(conv, phi, s3)
                rhs = (gelfand.spherical_transform(basis[i], phi, s3)
                       * gelfand.spherical_transform(basis[j], phi, s3))
                worst = max(worst, abs(lhs - rhs))
    out.append(_rec("spherical multiplicativity on basis pairs", worst < 1e-10,
                    max_error=worst, tolerance=1e-10))

    mat = np.array([phi for phi in sph])
    rank = np.linalg.matrix_rank(mat)
    out.append(_rec("spherical functions linearly independent",
                    rank == len(sph), rank=int(rank)))

    q8 = gelfand.quaternion()
    rep = gelfand.is_gelfand_pair(q8, [q8.id])
    out.append(_rec("(Q8, trivial) rejected with witness", not rep["gelfand"],
                    witness=rep["witness"], max_commutator=rep["max_commutator"]))

    z4 = gelfand.cyclic(4)
    sph4 = gelfand.spherical_functions(z4, [0], seed=seed)
    chars = {tuple(np.round(1j ** (j * np.arange(4)), 9)) for j in range(4)}
    got = {tuple(np.round(phi, 9)) for phi in sph4}
    out.append(_rec("Z4 spherical functions are the characters", got == chars))

    # projection algebra identities on S3
    worst = 0.0
    for _ in range(20):
        f1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f1 = gelfand.biinvariant_project(f1, s3, k)     # bi-invariant
        f2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = gelfand.biinvariant_project(gelfand.convolve(f2, f1, s3), s3, k)
        rhs = gelfand.convolve(gelfand.biinvariant_project(f2, s3, k), f1, s3)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        lhs = gelfand.biinvariant_project(gelfand.convolve(f1, f2, s3), s3, k)
        rhs = gelfand.convolve(f1, gelfand.biinvariant_project(f2, s3, k), s3)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_rec("bi-invariant projection convolution identities",
                    worst < 1e-12, max_error=worst, tolerance=1e-12))

    # convolution unit and associativity
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    unit = gelfand.delta_unit(s3)
    err_unit = float(np.max(np.abs(gelfand.convolve(unit, f, s3) - f)))
    g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assoc = float(np.max(np.abs(
        gelfand.convolve(gelfand.convolve(f, g, s3), h, s3)
        - gelfand.convolve(f, gelfand.convolve(g, h, s3), s3))))
    out.append(_rec("convolution unit and associativity",
                    err_unit < 1e-12 and assoc < 1e-12,
                    unit_error=err_unit, associativity_error=assoc))

    # weighted seminorm submultiplicativity sweep with phi = 1
    phi = np.ones(6)
    all_hold = True
    worst_gap = -np.inf
    for _ in range(n_pairs):
        f1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = gelfand.phi_seminorm(gelfand.convolve(f1, f2, s3), phi, s3)
        rhs = gelfand.phi_seminorm(f1, phi, s3) * gelfand.phi_seminorm(f2, phi, s3)
        all_hold &= lhs <= rhs + 1e-12
        worst_gap = max(worst_gap, lhs - rhs)
    out.append(_rec("weighted seminorm submultiplicativity", all_hold,
                    worst_gap=float(worst_gap), tolerance=1e-12))
    return out


# ---------------------------------------------------------------------------
# lie fields
# ---------------------------------------------------------------------------

def _random_int_field(rng, d: int, max_deg: int = 2) -> liefields.PolyVectorField:
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


def lie_suite(seed: int = 0, n_pairs: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []

    anti_ok = self_ok = True
    for _ in range(n_pairs):
        d = int(rng.integers(1, 3))
        x = _random_int_field(rng, d)
        y = _random_int_field(rng, d)
        anti_ok &= liefields.fields_equal(
            liefields.lie_bracket(x, y) + liefields.lie_bracket(y, x),
            liefields.PolyVectorField([0] * d))
        self_ok &= liefields.lie_bracket(x, x).is_zero()
    out.append(_rec("bracket antisymmetry (exact)", anti_ok))
    out.append(_rec("self-bracket vanishes (exact)", self_ok))

    jacobi_ok = True
    for _ in range(n_pairs):
        d = int(rng.integers(1, 3))
        x, y, z = (_random_int_field(rng, d) for _ in range(3))
        total = (liefields.lie_bracket(x, liefields.lie_bracket(y, z))
                 + liefields.lie_bracket(y, liefields.lie_bracket(z, x))
                 + liefields.lie_bracket(z, liefields.lie_bracket(x, y)))
        jacobi_ok &= total.is_zero()
    out.append(_rec("Jacobi identity (exact)", jacobi_ok))

    prolong_ok = True
    worst = 0.0
    for _ in range(n_pairs):
        d = int(rng.integers(1, 3))
        x = _random_int_field(rng, d)
        y = _random_int_field(rng, d)
        rep = liefields.check_lemma_prolongation(x, y)
        prolong_ok &= rep["exact"]
        worst = max(worst, rep["max_coeff_diff"])
    out.append(_rec("order-1 prolongation is a bracket morphism (exact)",
                    prolong_ok, max_coeff_diff=worst))

    # flow-commutator convergence: error O(t), log-log slope >= 0.9
    x = liefields.from_coeff_map([{(1, 0): 1, (0, 1): -2},
                                  {(1, 1): 1}], 2)
    y = liefields.from_coeff_map([{(0, 1): 1},
                                  {(2, 0): 1, (0, 0): 1}], 2)
    target = liefields.lie_bracket(x, y)((0.3, -0.2))
    ts = np.array([0.1, 0.05, 0.025])
    errs = np.array([
        np.linalg.norm(liefields.bracket_via_flows(x, y, (0.3, -0.2), t) - target)
        for t in ts
    ])
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    out.append(_rec("flow-commutator first-order convergence", slope >= 0.9,
                    slope=slope, errors=[float(e) for e in errs]))
    return out


# ---------------------------------------------------------------------------
# colombeau
# ---------------------------------------------------------------------------

def colombeau_suite(seed: int = 0) -> list[dict]:
    out = []
    for q in (0, 2, 4):
        m = colombeau.build_mollifier(q)
        mass_err = abs(colombeau.mollifier_moment(m, 0) - 1.0)
        worst = max((abs(colombeau.mollifier_moment(m, a))
                     for a in range(1, q + 1)), default=0.0)
        out.append(_rec(f"mollifier q={q} moments", mass_err < 1e-10 and worst < 1e-9,
                        mass_error=mass_err, max_moment=worst, tolerance=1e-9))

    m2 = colombeau.build_mollifier(2)
    k_grid = np.linspace(-1.0, 1.0, 801)

    # linearity of the regularization
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2)
    f, g = colombeau.catalog("exp"), colombeau.catalog("sin")
    lhs = colombeau.regularize(lambda t: a * f(t) + b * g(t), m2, 0.25, k_grid)
    rhs = (a * colombeau.regularize(f, m2, 0.25, k_grid)
           + b * colombeau.regularize(g, m2, 0.25, k_grid))
    err = float(np.max(np.abs(lhs - rhs)))
    out.append(_rec("regularization linearity", err < 1e-10, max_error=err,
                    tolerance=1e-10))

    # polynomials of degree <= q are reproduced exactly
    net = colombeau.taylor_defect(colombeau.catalog("poly:2"), m2)
    worst = float(np.max(net.values))
    out.append(_rec("degree <= q polynomials reproduced", worst < 1e-9,
                    max_defect=worst, tolerance=1e-9))

    # smooth defect rate m + 1, with m the actual vanishing-moment count:
    # the even order-q mollifier also kills moment q + 1, so m = q + 1
    for q in (0, 2, 4):
        m = colombeau.build_mollifier(q)
        net = colombeau.taylor_defect(colombeau.catalog("exp"), m)
        rep = colombeau.estimate_order(net)
        expected = q + 2
        ok = abs(rep.slope - expected) <= 0.2
        out.append(_rec(f"smooth regularization defect rate q={q}", ok,
                        slope=rep.slope, expected=expected, tolerance=0.2))

    # |t| defect rate 1
    net = colombeau.taylor_defect(colombeau.catalog("abs"), m2)
    rep = colombeau.estimate_order(net)
    out.append(_rec("modulus-of-continuity defect rate for |t|",
                    abs(rep.slope - 1.0) <= 0.2, slope=rep.slope,
                    expected=1.0, tolerance=0.2))

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
                    defect_at_2pow_minus4=at_coarse, slope=rep.slope))

    # Heaviside derivative seminorm growth ~ 1/eps
    net = colombeau.seminorm_net(colombeau.catalog("heaviside"), m2, alpha=1)
    rep = colombeau.estimate_order(net)
    out.append(_rec("Heaviside derivative seminorm slope -1",
                    abs(rep.slope + 1.0) <= 0.2, slope=rep.slope,
                    expected=-1.0, tolerance=0.2))

    # exact power-law ladder classification
    eps = colombeau.default_ladder()
    net = colombeau.EpsilonNet(epsilons=eps, values=eps ** 3,
                               meta={"K": (-1.0, 1.0), "alpha": 0})
    rep = colombeau.estimate_order(net, negligible_order=3)
    out.append(_rec("exact power-law slope", abs(rep.slope - 3.0) <= 0.01
                    and rep.kind == "negligible", slope=rep.slope))

    # L1 embedding bound on the 3-function catalog
    all_hold = True
    ratios = {}
    for name in ("const", "abs", "spike:0.01"):
        repb = colombeau.l1_embedding_bound(colombeau.catalog(name), m2, 2 ** -4)
        all_hold &= repb["holds"]
        ratios[name] = repb["sup_value"] / (repb["c"] * repb["l1_norm"])
    out.append(_rec("L1 embedding sup bound", all_hold, ratios=ratios))
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
        records = []
        for key in ("bergman", "bloch", "hardy", "gelfand", "lie", "colombeau"):
            for rec in SUITES[key](seed=seed):
                rec = dict(rec)
                rec["name"] = f"{key}: {rec['name']}"
                records.append(rec)
        return records
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed=seed)
